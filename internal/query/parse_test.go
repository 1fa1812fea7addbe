package query

import "testing"

// figure13 is the paper's Figure 13 query in the query language.
const figure13 = `
SELECT p.name, v.video
FROM Player p, Profile v
WHERE p.gender = 'female'
  AND p.hand = 'left'
  AND contains(p.history, 'Winner')
  AND About(v, p)
  AND event(v.video, 'netplay')
LIMIT 10`

func TestParseFigure13(t *testing.T) {
	q, err := Parse(figure13)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 2 || q.Select[0].String() != "p.name" || q.Select[1].String() != "v.video" {
		t.Fatalf("select = %v", q.Select)
	}
	if len(q.From) != 2 || q.From[0].Class != "Player" || q.From[1].Var != "v" {
		t.Fatalf("from = %v", q.From)
	}
	if len(q.Preds) != 5 {
		t.Fatalf("preds = %d", len(q.Preds))
	}
	if ap, ok := q.Preds[0].(*AttrPred); !ok || ap.Field.Attr != "gender" || ap.Op != "=" || ap.Value != "female" {
		t.Fatalf("pred 0 = %+v", q.Preds[0])
	}
	if cp, ok := q.Preds[2].(*ContainsPred); !ok || cp.Text != "Winner" {
		t.Fatalf("pred 2 = %+v", q.Preds[2])
	}
	if apd, ok := q.Preds[3].(*AssocPred); !ok || apd.Name != "About" || apd.FromVar != "v" || apd.ToVar != "p" {
		t.Fatalf("pred 3 = %+v", q.Preds[3])
	}
	if ep, ok := q.Preds[4].(*EventPred); !ok || ep.Event != "netplay" {
		t.Fatalf("pred 4 = %+v", q.Preds[4])
	}
	if q.Limit != 10 {
		t.Fatalf("limit = %d", q.Limit)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	q, err := Parse("select p.name from Player p where p.hand != 'left' limit 3")
	if err != nil {
		t.Fatal(err)
	}
	if q.Limit != 3 || len(q.Preds) != 1 {
		t.Fatalf("q = %+v", q)
	}
	if ap := q.Preds[0].(*AttrPred); ap.Op != "!=" {
		t.Fatalf("op = %q", ap.Op)
	}
}

func TestParseOperators(t *testing.T) {
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		q, err := Parse("SELECT p.a FROM C p WHERE p.a " + op + " 'x'")
		if err != nil {
			t.Fatalf("op %s: %v", op, err)
		}
		if got := q.Preds[0].(*AttrPred).Op; got != op {
			t.Fatalf("op = %q, want %q", got, op)
		}
	}
}

// badQueries are queries the parser must reject.
var badQueries = []string{
	"",
	"FROM Player p",
	"SELECT p.name",
	"SELECT p FROM Player p",
	"SELECT p.name FROM Player",
	"SELECT p.name FROM Player p WHERE",
	"SELECT p.name FROM Player p WHERE p.x",
	"SELECT p.name FROM Player p WHERE p.x = unquoted",
	"SELECT p.name FROM Player p WHERE contains(p.x 'y')",
	"SELECT p.name FROM Player p WHERE contains(p.x, 'y'",
	"SELECT p.name FROM Player p LIMIT 'x'",
	"SELECT p.name FROM Player p trailing",
	"SELECT p.name FROM Player p WHERE q.x = 'y'",           // unbound var
	"SELECT q.name FROM Player p",                           // unbound select
	"SELECT p.name FROM Player p, Article p",                // dup var
	"SELECT p.name FROM Player p WHERE About(p, q)",         // unbound assoc var
	"SELECT p.name FROM Player p WHERE p.x = 'unterminated", // bad string
	"SELECT p.name FROM Player p WHERE p.x @ 'y'",           // bad char
}

func TestParseErrors(t *testing.T) {
	for _, src := range badQueries {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted bad query: %s", src)
		}
	}
}

func TestQueryBindingLookup(t *testing.T) {
	q, err := Parse("SELECT p.name FROM Player p")
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := q.Binding("p"); !ok || b.Class != "Player" {
		t.Fatalf("binding = %+v, %v", b, ok)
	}
	if _, ok := q.Binding("zz"); ok {
		t.Fatal("phantom binding")
	}
}
