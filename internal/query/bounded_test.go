package query

import (
	"fmt"
	"reflect"
	"testing"

	"dlsearch/internal/ir"
	"dlsearch/internal/monetxml"
	"dlsearch/internal/webspace"
)

// tieDB builds a database whose contains rankings are mostly ties:
// three players whose history says "winner" twice, tieCount whose
// identical histories say it once, and a few who never say it. Runs of
// four players share a name, later runs sorting first, so among tied
// scores a document the ranking puts last can lead the answer, and
// within a run only the stable sort decides. Every article has the
// same title. Every third player's video has a netplay shot.
func tieDB(t *testing.T, tieCount int) *Database {
	t.Helper()
	store := monetxml.NewStore()
	doc := &webspace.Document{URL: "ties"}
	histories := map[string]string{}
	n := 3 + tieCount + 4
	for i := 0; i < n; i++ {
		gender := "female"
		if i%2 == 1 {
			gender = "male"
		}
		pid := fmt.Sprintf("p%03d", i)
		switch {
		case i < 3:
			histories[pid] = "winner winner volley"
		case i < 3+tieCount:
			histories[pid] = "winner serve volley"
		default:
			histories[pid] = "serve volley rally"
		}
		doc.Objects = append(doc.Objects,
			&webspace.Object{Class: "Player", ID: pid, Attrs: map[string]string{"name": fmt.Sprintf("Tie %03d", (n-i)/4), "gender": gender}},
			&webspace.Object{Class: "Profile", ID: pid, Attrs: map[string]string{"video": "http://v/" + pid + ".mpg"}},
		)
		doc.Links = append(doc.Links,
			webspace.Link{Association: "About", From: "Profile:" + pid, To: "Player:" + pid},
			webspace.Link{Association: "Is_covered_in", From: "Player:" + pid, To: fmt.Sprintf("Article:a%d", i%5)})
	}
	for i := 0; i < 5; i++ {
		doc.Objects = append(doc.Objects, &webspace.Object{Class: "Article", ID: fmt.Sprintf("a%d", i), Attrs: map[string]string{"title": "Same title"}})
	}
	if _, err := store.LoadNode(doc.URL, doc.XML()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		netplay := i%3 == 0
		mmo := monetxml.MustParseNode(fmt.Sprintf(`<MMO><location>http://v/p%03d.mpg</location><mm_type><video><segment>
  <shot><begin><frameNo>%d</frameNo></begin><end><frameNo>%d</frameNo></end><type>tennis<tennis><event><netplay>%t</netplay></event></tennis></type></shot>
</segment></video></mm_type></MMO>`, i, i, i+10, netplay))
		if _, err := store.LoadNode(fmt.Sprintf("http://v/p%03d.mpg", i), mmo); err != nil {
			t.Fatal(err)
		}
	}
	db := NewDatabase(store, nil)
	idx := ir.NewIndex()
	for pid, h := range histories {
		oid, ok := db.OIDOf("Player:" + pid)
		if !ok {
			t.Fatalf("player %s not stored", pid)
		}
		idx.Add(oid, pid, h)
	}
	db.IR["Player.history"] = idx
	return db
}

// TestBoundedRankingMatchesUnbounded: a LIMIT query with one contains
// predicate ranks only the top k documents and widens k until no
// unranked document can enter or tie the answer. Its rows, scores,
// shots and quality equal the unbounded ranking's (DisableRestriction
// ranks every matching document) on ties that straddle the LIMIT, for
// every shape the bound applies to.
func TestBoundedRankingMatchesUnbounded(t *testing.T) {
	db := tieDB(t, 60)
	lossy := &ir.EvalPlan{Frags: 2, Budget: 1}
	cases := []struct {
		name    string
		src     string
		plan    *ir.EvalPlan
		widened int
	}{
		// The LIMIT-th row is a double "winner", above the k-th ranked tie.
		{"unrestricted above the ties", "SELECT p.name FROM Player p WHERE contains(p.history, 'winner') LIMIT 2", nil, 0},
		// The LIMIT-th row ties the k-th ranked document: widen.
		{"unrestricted into the ties", "SELECT p.name FROM Player p WHERE contains(p.history, 'winner') LIMIT 5", nil, 1},
		{"restricted", "SELECT p.name FROM Player p WHERE p.gender = 'female' AND contains(p.history, 'winner') LIMIT 4", nil, 1},
		{"budgeted", "SELECT p.name FROM Player p WHERE contains(p.history, 'winner volley') LIMIT 5", lossy, 1},
		{"restricted budgeted", "SELECT p.name FROM Player p WHERE p.gender = 'male' AND contains(p.history, 'winner volley') LIMIT 3", lossy, 1},
		{"event", "SELECT p.name, v.video FROM Player p, Profile v WHERE contains(p.history, 'winner') AND About(v, p) AND event(v.video, 'netplay') LIMIT 3", nil, 1},
		{"join", "SELECT p.name, a.title FROM Player p, Article a WHERE Is_covered_in(p, a) AND contains(p.history, 'winner') LIMIT 6", nil, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q, err := Parse(c.src)
			if err != nil {
				t.Fatal(err)
			}
			bounded := NewExecutor(db)
			bounded.Plan = c.plan
			got, err := bounded.Run(q)
			if err != nil {
				t.Fatal(err)
			}
			unbounded := NewExecutor(db)
			unbounded.DisableRestriction = true
			unbounded.Plan = c.plan
			want, err := unbounded.Run(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Rows) != q.Limit {
				t.Fatalf("fixture gives %d rows, want a full LIMIT %d", len(want.Rows), q.Limit)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("bounded rows differ\ngot  %+v\nwant %+v", got.Rows, want.Rows)
			}
			if bounded.Quality != unbounded.Quality || (c.plan != nil) != (bounded.Quality.TotalIDF > 0) {
				t.Fatalf("bounded quality %+v, unbounded %+v", bounded.Quality, unbounded.Quality)
			}
			if bounded.Stats.Widened != c.widened || bounded.Stats.Ranked != q.Limit*rankStart*pow(rankGrowth, c.widened) {
				t.Fatalf("ranked=%d widened=%d, want widened=%d", bounded.Stats.Ranked, bounded.Stats.Widened, c.widened)
			}
			if c.widened == 0 && bounded.Stats.IRDocsScored >= unbounded.Stats.IRDocsScored {
				t.Fatalf("the bound saved no ranking: bounded %+v, unbounded %+v", bounded.Stats, unbounded.Stats)
			}
		})
	}
}

func pow(b, e int) int {
	r := 1
	for ; e > 0; e-- {
		r *= b
	}
	return r
}
