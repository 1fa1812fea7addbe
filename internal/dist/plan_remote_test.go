package dist_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"dlsearch/internal/bat"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
)

// loadCluster adds the corpus to a cluster, failing the test on error.
func loadCluster(t testing.TB, c *dist.Cluster, docs []string) {
	t.Helper()
	for i, d := range docs {
		if err := c.AddContext(context.Background(), bat.OID(i+1), "u", d); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRemotePlanFullBudgetExact is the acceptance guarantee of the
// fragment-aware distribution: with a budget covering all fragments, a
// cluster of HTTP-backed nodes returns a ranking byte-identical —
// documents AND scores — to the exact single-index ranking, and
// reports exact quality.
func TestRemotePlanFullBudgetExact(t *testing.T) {
	docs := remoteCorpus(400, 7)
	single := ir.NewIndex()
	for i, d := range docs {
		single.Add(bat.OID(i+1), "u", d)
	}
	queries := []string{"champion winner serve", "seles", "melbourne trophy volley match"}
	for _, withCache := range []bool{false, true} {
		for _, k := range []int{1, 2, 4} {
			c := startRemoteCluster(t, k, withCache, nil)
			loadCluster(t, c, docs)
			for _, q := range queries {
				want := single.TopN(q, 10)
				sr, err := c.SearchPlan(context.Background(), q, ir.EvalPlan{N: 10, Frags: 4, Budget: 4})
				if err != nil {
					t.Fatalf("cache=%v k=%d q=%q: %v", withCache, k, q, err)
				}
				if !sr.Complete() {
					t.Fatalf("cache=%v k=%d q=%q: dropped %v", withCache, k, q, sr.Dropped)
				}
				if v := sr.Quality.Value(); v != 1.0 {
					t.Fatalf("cache=%v k=%d q=%q: full-budget quality %v", withCache, k, q, v)
				}
				ctx := fmt.Sprintf("cache=%v k=%d q=%q", withCache, k, q)
				if len(sr.Results) != len(want) {
					t.Fatalf("%s: %d results, want %d", ctx, len(sr.Results), len(want))
				}
				for i := range want {
					if sr.Results[i].Doc != want[i].Doc || sr.Results[i].Score != want[i].Score {
						t.Fatalf("%s: rank %d = %+v, want %+v", ctx, i, sr.Results[i], want[i])
					}
				}
			}
		}
	}
}

// TestRemotePlanReducedBudget: a reduced budget over HTTP nodes
// returns a degraded-but-flagged ranking — the quality estimate drops
// below 1 and reports how many fragments were evaluated.
func TestRemotePlanReducedBudget(t *testing.T) {
	docs := remoteCorpus(400, 7)
	c := startRemoteCluster(t, 3, false, nil)
	loadCluster(t, c, docs)
	// Rare ("seles") plus very common ("match ball") terms: the
	// trailing fragments hold the common ones, so a budget of 2 must
	// cut coverage. (Under this corpus's global df, "seles" lies in the
	// second of the eight fragments.)
	sr, err := c.SearchPlan(context.Background(), "seles match ball", ir.EvalPlan{N: 10, Frags: 8, Budget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Complete() {
		t.Fatalf("dropped %v", sr.Dropped)
	}
	if v := sr.Quality.Value(); v >= 1.0 || v <= 0 {
		t.Fatalf("reduced-budget quality = %v, want in (0, 1)", v)
	}
	if sr.Quality.FragsUsed >= sr.Quality.FragsTotal {
		t.Fatalf("fragment accounting = %+v, want a real cut", sr.Quality)
	}
	if len(sr.Results) == 0 {
		t.Fatal("no results from the budgeted prefix")
	}
	// The rare term's contribution must survive the cut: doc scores
	// reflect "seles", so every returned doc actually contains it.
	exact := ir.NewIndex()
	for i, d := range docs {
		exact.Add(bat.OID(i+1), "u", d)
	}
	selesDocs := map[bat.OID]bool{}
	for _, r := range exact.TopN("seles", len(docs)) {
		selesDocs[r.Doc] = true
	}
	for _, r := range sr.Results {
		if !selesDocs[r.Doc] {
			t.Fatalf("budgeted result %v does not contain the surviving rare term", r.Doc)
		}
	}
}

// TestPlanQualityMonotone is the fragment quality accounting property:
// the reported estimate is monotone in the fragment budget and equals
// 1.0 at full budget — on a cluster of LocalNodes and on a remote
// cluster, which must also agree with each other.
func TestPlanQualityMonotone(t *testing.T) {
	docs := remoteCorpus(300, 19)
	const frags = 6
	queries := []string{"seles match", "champion winner serve ball", "melbourne", "court game set trophy"}
	local := dist.NewCluster(3, nil)
	remote := startRemoteCluster(t, 3, false, nil)
	loadCluster(t, local, docs)
	loadCluster(t, remote, docs)
	for _, q := range queries {
		prevLocal, prevRemote := 0.0, 0.0
		for b := 1; b <= frags; b++ {
			plan := ir.EvalPlan{N: 10, Frags: frags, Budget: b}
			lsr, err := local.SearchPlan(context.Background(), q, plan)
			if err != nil {
				t.Fatal(err)
			}
			rsr, err := remote.SearchPlan(context.Background(), q, plan)
			if err != nil {
				t.Fatal(err)
			}
			lv, rv := lsr.Quality.Value(), rsr.Quality.Value()
			if lv < prevLocal-1e-12 || rv < prevRemote-1e-12 {
				t.Fatalf("q=%q b=%d: quality not monotone: local %v after %v, remote %v after %v",
					q, b, lv, prevLocal, rv, prevRemote)
			}
			if lsr.Quality != rsr.Quality {
				t.Fatalf("q=%q b=%d: local estimate %+v != remote %+v", q, b, lsr.Quality, rsr.Quality)
			}
			prevLocal, prevRemote = lv, rv
		}
		if prevLocal != 1.0 || prevRemote != 1.0 {
			t.Fatalf("q=%q: full-budget quality local %v remote %v, want 1.0", q, prevLocal, prevRemote)
		}
	}
}

// TestEstimateReadsLastReportedStats: Estimate is the estimate a
// search under steady statistics reports, it refreshes nothing (an
// ingest the cluster has not pulled yet does not move it, the next
// search does) and it counts no admitted postings.
func TestEstimateReadsLastReportedStats(t *testing.T) {
	ctx := context.Background()
	c := dist.NewCluster(2, nil)
	loadCluster(t, c, remoteCorpus(300, 19))
	const q = "seles match"
	plan := ir.EvalPlan{N: 10, Frags: 6, Budget: 1}
	if _, ok := c.Estimate(q, plan); ok {
		t.Fatal("estimate before any group reported its statistics")
	}
	sr, err := c.SearchPlan(ctx, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	posted := c.FragmentPostings()
	est, ok := c.Estimate(q, plan)
	if !ok || est != sr.Quality {
		t.Fatalf("estimate %+v (%v), search reported %+v", est, ok, sr.Quality)
	}
	if got := c.FragmentPostings(); !slices.Equal(got, posted) {
		t.Fatalf("estimate counted admitted postings: %v, then %v", posted, got)
	}
	// "seles" grows 30-fold in documents: its idf mass shrinks.
	for i := 0; i < 300; i++ {
		if err := c.AddContext(ctx, bat.OID(1000+i), "u", "seles"); err != nil {
			t.Fatal(err)
		}
	}
	if stale, _ := c.Estimate(q, plan); stale != est {
		t.Fatalf("estimate moved to %+v before any refresh, want %+v", stale, est)
	}
	sr, err = c.SearchPlan(ctx, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	if fresh, _ := c.Estimate(q, plan); sr.Quality == est || fresh != sr.Quality {
		t.Fatalf("after the refresh: search %+v, estimate %+v, before %+v", sr.Quality, fresh, est)
	}
}

// TestClusterAddBatch: a batch add lands the same documents on the
// same nodes as per-document adds — node loads and rankings agree —
// over local nodes and remote nodes (one round-trip per partition).
func TestClusterAddBatch(t *testing.T) {
	texts := remoteCorpus(120, 23)
	docs := make([]dist.Doc, len(texts))
	for i, text := range texts {
		docs[i] = dist.Doc{OID: bat.OID(i + 1), URL: "u", Text: text}
	}
	control := dist.NewCluster(3, nil)
	for _, d := range docs {
		control.Add(d.OID, d.URL, d.Text)
	}
	want := control.TopN("champion winner serve", 10)

	batchedLocal := dist.NewCluster(3, nil)
	if err := batchedLocal.AddBatchContext(context.Background(), docs); err != nil {
		t.Fatal(err)
	}
	batchedRemote := startRemoteCluster(t, 3, false, nil)
	if err := batchedRemote.AddBatchContext(context.Background(), docs); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*dist.Cluster{"local": batchedLocal, "remote": batchedRemote} {
		if got := c.NodeLoads(); fmt.Sprint(got) != fmt.Sprint(control.NodeLoads()) {
			t.Fatalf("%s: loads %v, want %v", name, got, control.NodeLoads())
		}
		sr, err := c.Search(context.Background(), "champion winner serve", 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(sr.Results) != len(want) {
			t.Fatalf("%s: %d results, want %d", name, len(sr.Results), len(want))
		}
		for i := range want {
			if sr.Results[i] != want[i] {
				t.Fatalf("%s: rank %d = %+v, want %+v", name, i, sr.Results[i], want[i])
			}
		}
	}
	if err := dist.NewCluster(2, nil).AddBatchContext(context.Background(), nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}
