package query

import "testing"

// parseErrorCases pairs each rejection path of the parser with its
// diagnostic.
var parseErrorCases = []struct {
	src  string
	want string
}{
	{"", "query: expected SELECT"},
	{"FROM Player p", "query: expected SELECT"},
	{"SELECT p.name", "query: expected FROM"},
	{"SELECT p FROM Player p", `query: expected '.' after "p"`},
	{"SELECT p.name FROM Player", `query: expected identifier, found ""`},
	{"SELECT p.name FROM Player p WHERE", `query: expected identifier, found ""`},
	{"SELECT p.name FROM Player p WHERE p.x",
		"query: expected comparison operator after p.x"},
	{"SELECT p.name FROM Player p WHERE p.x = unquoted",
		`query: expected string literal, found "unquoted"`},
	{"SELECT p.name FROM Player p WHERE p.x = 'unterminated",
		"query: unterminated string literal"},
	{"SELECT p.name FROM Player p WHERE p.x @ 'y'",
		`query: unexpected character "@"`},
	{"SELECT p.name FROM Player p WHERE contains(p.x 'y')",
		"query: expected ',' in contains()"},
	{"SELECT p.name FROM Player p WHERE contains(p.x, 'y'",
		"query: expected ')'"},
	{"SELECT p.name FROM Player p WHERE event(v.video 'netplay')",
		"query: expected ',' in event()"},
	{"SELECT p.name FROM Player p WHERE About(v p)",
		"query: expected ',' in association About()"},
	{"SELECT p.name FROM Player p WHERE About(v, p",
		"query: expected ')'"},
	{"SELECT p.name FROM Player p WHERE foo = 'y'",
		`query: expected '.' or '(' after "foo"`},
	{"SELECT p.name FROM Player p LIMIT 'x'",
		"query: expected number after LIMIT"},
	{"SELECT p.name FROM Player p LIMIT 99999999999999999999999999",
		"query: bad LIMIT"},
	{"SELECT p.name FROM Player p trailing",
		`query: trailing input at "trailing"`},
	{"SELECT p.name FROM Player p, Article p",
		"query: duplicate variable p"},
	{"SELECT q.name FROM Player p",
		"query: unbound variable q"},
	{"SELECT p.name FROM Player p WHERE q.x = 'y'",
		"query: unbound variable q"},
	{"SELECT p.name FROM Player p WHERE About(p, q)",
		"query: unbound variable q"},
}

// TestParseErrorMessages pins the parser's diagnostics: every rejection
// path must name what was expected and what was found, so a malformed
// query over HTTP comes back with an actionable 400 body rather than a
// bare "parse error".
func TestParseErrorMessages(t *testing.T) {
	for _, tc := range parseErrorCases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("accepted bad query: %s", tc.src)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("Parse(%q):\n  got  %q\n  want %q", tc.src, err.Error(), tc.want)
		}
	}
}
