package query

import (
	"testing"

	"dlsearch/internal/bat"
	"dlsearch/internal/ir"
	"dlsearch/internal/monetxml"
	"dlsearch/internal/webspace"
)

// fixtureDB hand-builds a tiny database: two players, one profile,
// one About link, a history IR index and one MMO meta-document with a
// netplay shot, exercising the whole physical access layer without
// the crawler/FDE machinery.
func fixtureDB(t *testing.T) *Database {
	t.Helper()
	store := monetxml.NewStore()

	doc := &webspace.Document{
		URL: "u1",
		Objects: []*webspace.Object{
			{Class: "Player", ID: "ann", Attrs: map[string]string{
				"name": "Ann", "gender": "female", "hand": "left", "history": "Winner of the title"}},
			{Class: "Player", ID: "bob", Attrs: map[string]string{
				"name": "Bob", "gender": "male", "hand": "right", "history": "Runner up"}},
			{Class: "Profile", ID: "ann", Attrs: map[string]string{
				"video": "http://v/ann.mpg"}},
		},
		Links: []webspace.Link{{Association: "About", From: "Profile:ann", To: "Player:ann"}},
	}
	if _, err := store.LoadNode(doc.URL, doc.XML()); err != nil {
		t.Fatal(err)
	}

	// Meta-index document for Ann's video: one tennis shot with
	// netplay=true, one "other" shot.
	mmo := monetxml.MustParseNode(`<MMO>
  <location>http://v/ann.mpg</location>
  <header><MIME_type><primary>video</primary><secondary>mpeg</secondary></MIME_type></header>
  <mm_type><video_type/><video><segment>
    <shot>
      <begin><frameNo>0</frameNo></begin>
      <end><frameNo>11</frameNo></end>
      <type>tennis<tennis>
        <frame><frameNo>0</frameNo><player><xPos>320.0</xPos><yPos>150.0</yPos><Area>21</Area><Ecc>0.5</Ecc><Orient>1.5</Orient></player></frame>
        <event><netplay>true</netplay></event>
      </tennis></type>
    </shot>
    <shot>
      <begin><frameNo>12</frameNo></begin>
      <end><frameNo>17</frameNo></end>
      <type>other</type>
    </shot>
  </segment></video></mm_type>
</MMO>`)
	if _, err := store.LoadNode("http://v/ann.mpg", mmo); err != nil {
		t.Fatal(err)
	}

	db := NewDatabase(store, nil)
	idx := ir.NewIndex()
	for _, o := range doc.Objects {
		if o.Class == "Player" {
			oid, ok := db.OIDOf(o.QualifiedID())
			if !ok {
				t.Fatalf("object %s not stored", o.QualifiedID())
			}
			idx.Add(oid, o.QualifiedID(), o.Attrs["history"])
		}
	}
	db.IR["Player.history"] = idx
	return db
}

func run(t *testing.T, db *Database, src string) *Result {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewExecutor(db).Run(q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExecConceptualSelection(t *testing.T) {
	db := fixtureDB(t)
	res := run(t, db, "SELECT p.name FROM Player p WHERE p.gender = 'female'")
	if len(res.Rows) != 1 || res.Rows[0].Values[0] != "Ann" {
		t.Fatalf("rows = %+v", res.Rows)
	}
	res = run(t, db, "SELECT p.name FROM Player p WHERE p.gender != 'female'")
	if len(res.Rows) != 1 || res.Rows[0].Values[0] != "Bob" {
		t.Fatalf("rows = %+v", res.Rows)
	}
	res = run(t, db, "SELECT p.name FROM Player p")
	if len(res.Rows) != 2 {
		t.Fatalf("unfiltered rows = %d", len(res.Rows))
	}
}

func TestExecContains(t *testing.T) {
	db := fixtureDB(t)
	res := run(t, db, "SELECT p.name FROM Player p WHERE contains(p.history, 'winner')")
	if len(res.Rows) != 1 || res.Rows[0].Values[0] != "Ann" {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if res.Rows[0].Score <= 0 {
		t.Fatal("contains must attach a score")
	}
}

func TestExecContainsMissingIndex(t *testing.T) {
	db := fixtureDB(t)
	q, err := Parse("SELECT p.name FROM Player p WHERE contains(p.name, 'x')")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewExecutor(db).Run(q); err == nil {
		t.Fatal("missing IR index should error")
	}
}

func TestExecEvent(t *testing.T) {
	db := fixtureDB(t)
	res := run(t, db, "SELECT v.video FROM Profile v WHERE event(v.video, 'netplay')")
	if len(res.Rows) != 1 || res.Rows[0].Values[0] != "http://v/ann.mpg" {
		t.Fatalf("rows = %+v", res.Rows)
	}
	shots := res.Rows[0].Shots
	if len(shots) != 1 || shots[0].Begin != 0 || shots[0].End != 11 || !shots[0].Netplay {
		t.Fatalf("shots = %+v", shots)
	}
	// Unknown event errors.
	q, _ := Parse("SELECT v.video FROM Profile v WHERE event(v.video, 'moonwalk')")
	if _, err := NewExecutor(db).Run(q); err == nil {
		t.Fatal("unknown event should error")
	}
}

func TestExecRallyEvent(t *testing.T) {
	db := fixtureDB(t)
	// Ann's video has one netplay tennis shot and one non-tennis shot:
	// no baseline rally.
	res := run(t, db, "SELECT v.video FROM Profile v WHERE event(v.video, 'rally')")
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %+v", res.Rows)
	}
}

func TestExecAssociationJoin(t *testing.T) {
	db := fixtureDB(t)
	res := run(t, db, "SELECT p.name, v.video FROM Player p, Profile v WHERE About(v, p)")
	if len(res.Rows) != 1 || res.Rows[0].Values[0] != "Ann" {
		t.Fatalf("rows = %+v", res.Rows)
	}
	// Unsatisfied join yields nothing.
	res = run(t, db, "SELECT p.name FROM Player p, Profile v WHERE About(v, p) AND p.name = 'Bob'")
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %+v", res.Rows)
	}
}

func TestExecLimitAndOrdering(t *testing.T) {
	db := fixtureDB(t)
	res := run(t, db, "SELECT p.name FROM Player p LIMIT 1")
	if len(res.Rows) != 1 {
		t.Fatalf("limit ignored: %d rows", len(res.Rows))
	}
	// Without scores, ordering is deterministic by values.
	res = run(t, db, "SELECT p.name FROM Player p")
	if res.Rows[0].Values[0] != "Ann" || res.Rows[1].Values[0] != "Bob" {
		t.Fatalf("ordering = %+v", res.Rows)
	}
}

func TestExecStatsRestriction(t *testing.T) {
	db := fixtureDB(t)
	q, err := Parse("SELECT p.name FROM Player p WHERE p.gender = 'female' AND contains(p.history, 'winner')")
	if err != nil {
		t.Fatal(err)
	}
	opt := NewExecutor(db)
	if _, err := opt.Run(q); err != nil {
		t.Fatal(err)
	}
	naive := NewExecutor(db)
	naive.DisableRestriction = true
	if _, err := naive.Run(q); err != nil {
		t.Fatal(err)
	}
	// The restricted plan scores at most as many documents.
	if opt.Stats.IRDocsScored > naive.Stats.IRDocsScored {
		t.Fatalf("restriction increased IR work: %d vs %d", opt.Stats.IRDocsScored, naive.Stats.IRDocsScored)
	}
	if opt.Stats.ConceptualCandidates == 0 {
		t.Fatal("stats not recorded")
	}
}

func TestVideoEventsShape(t *testing.T) {
	db := fixtureDB(t)
	ev := db.VideoEvents()
	shots := ev["http://v/ann.mpg"]
	if len(shots) != 2 {
		t.Fatalf("shots = %+v", shots)
	}
	if !shots[0].Netplay || shots[1].Netplay {
		t.Fatalf("netplay flags = %+v", shots)
	}
	if shots[1].Begin != 12 || shots[1].End != 17 {
		t.Fatalf("second shot = %+v", shots[1])
	}
}

func TestDatabaseAccessors(t *testing.T) {
	db := fixtureDB(t)
	players := db.ObjectsOfClass("Player")
	if len(players) != 2 {
		t.Fatalf("players = %v", players)
	}
	if got := db.ObjectsOfClass("Nothing"); len(got) != 0 {
		t.Fatalf("phantom class: %v", got)
	}
	oid, ok := db.OIDOf("Player:ann")
	if !ok {
		t.Fatal("OIDOf failed")
	}
	if db.QIDOf(oid) != "Player:ann" {
		t.Fatal("QIDOf mismatch")
	}
	if db.AttrOf(oid, "hand") != "left" {
		t.Fatal("AttrOf mismatch")
	}
	if db.AttrOf(bat.OID(999999), "hand") != "" {
		t.Fatal("AttrOf of unknown oid should be empty")
	}
	pairs := db.AssocPairs("About")
	if len(pairs) != 1 || pairs[0][0] != "Profile:ann" {
		t.Fatalf("pairs = %v", pairs)
	}
	db.InvalidateCaches()
	if len(db.ObjectsOfClass("Player")) != 2 {
		t.Fatal("rebuild after invalidation failed")
	}
}

func TestEmptyDatabase(t *testing.T) {
	db := NewDatabase(monetxml.NewStore(), nil)
	res := run(t, db, "SELECT p.name FROM Player p")
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if ev := db.VideoEvents(); len(ev) != 0 {
		t.Fatalf("events = %v", ev)
	}
}

// TestExecutorBudgetedPlan: the executor evaluates contains
// predicates, restricted or not, under an ir.EvalPlan, accumulates the
// achieved quality, and a full-coverage plan returns exactly the exact
// answer.
func TestExecutorBudgetedPlan(t *testing.T) {
	db := fixtureDB(t)
	const src = "SELECT p.name FROM Player p WHERE contains(p.history, 'winner title')"
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	exact := NewExecutor(db)
	exact.DisableRestriction = true // unrestricted: the plan applies
	wantRes, err := exact.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	budgeted := NewExecutor(db)
	budgeted.DisableRestriction = true
	budgeted.Plan = &ir.EvalPlan{Frags: 2, Budget: 2}
	gotRes, err := budgeted.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if budgeted.Quality.Value() != 1.0 {
		t.Fatalf("full-coverage plan quality = %v", budgeted.Quality.Value())
	}
	if len(gotRes.Rows) != len(wantRes.Rows) {
		t.Fatalf("budgeted rows = %d, want %d", len(gotRes.Rows), len(wantRes.Rows))
	}
	for i := range wantRes.Rows {
		if gotRes.Rows[i].Score != wantRes.Rows[i].Score {
			t.Fatalf("row %d score %v, want %v", i, gotRes.Rows[i].Score, wantRes.Rows[i].Score)
		}
	}
	// The cut-off composes with the a-priori restriction: under a
	// full-coverage plan the restricted predicate is byte-identical to
	// the unplanned executor and provably exact.
	wantRes, err = NewExecutor(db).Run(q)
	if err != nil {
		t.Fatal(err)
	}
	restricted := NewExecutor(db)
	restricted.Plan = &ir.EvalPlan{Frags: 2, Budget: 2}
	gotRes, err = restricted.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if restricted.Quality.TotalIDF == 0 || restricted.Quality.Value() != 1.0 {
		t.Fatalf("restricted full-coverage estimate = %+v", restricted.Quality)
	}
	if len(gotRes.Rows) != len(wantRes.Rows) {
		t.Fatalf("restricted rows = %d, want %d", len(gotRes.Rows), len(wantRes.Rows))
	}
	for i, want := range wantRes.Rows {
		if got := gotRes.Rows[i]; got.Values[0] != want.Values[0] || got.Score != want.Score {
			t.Fatalf("restricted row %d = %+v, want %+v", i, got, want)
		}
	}
	// A lossy budget: the estimate accounts for query terms, not
	// documents, so the restricted run reports what the unrestricted
	// one does. A document outside every class skews the dfs so that
	// 'title' falls into the trailing fragment.
	db.IR["Player.history"].Add(9001, "skew", "title title match")
	lossy := ir.EvalPlan{Frags: 2, Budget: 1}
	restricted = NewExecutor(db)
	restricted.Plan = &lossy
	unrestricted := NewExecutor(db)
	unrestricted.DisableRestriction = true
	unrestricted.Plan = &lossy
	for _, ex := range []*Executor{restricted, unrestricted} {
		if _, err := ex.Run(q); err != nil {
			t.Fatal(err)
		}
	}
	if restricted.Quality.Value() >= 1.0 {
		t.Fatalf("budget 1 of 2 did not cut a query term: %+v", restricted.Quality)
	}
	if restricted.Quality != unrestricted.Quality {
		t.Fatalf("restricted estimate %+v, unrestricted %+v", restricted.Quality, unrestricted.Quality)
	}
}
