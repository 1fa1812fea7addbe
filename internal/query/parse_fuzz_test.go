package query

import "testing"

// FuzzParse: no input panics the parser of the /query language, and
// every query it accepts selects at least one field from at least one
// binding. Seeded with the queries the parser tests accept and reject.
func FuzzParse(f *testing.F) {
	f.Add(figure13)
	f.Add("select p.name from Player p where p.hand != 'left' limit 3")
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		f.Add("SELECT p.a FROM C p WHERE p.a " + op + " 'x'")
	}
	for _, src := range badQueries {
		f.Add(src)
	}
	for _, tc := range parseErrorCases {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		if len(q.Select) == 0 || len(q.From) == 0 {
			t.Fatalf("Parse(%q) accepted a query without a select list or bindings: %+v", src, q)
		}
	})
}
