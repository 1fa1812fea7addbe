package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"testing"

	"dlsearch/internal/bat"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
)

// TestSearchFragsPerRequest: ?frags= is a per-request value that costs
// nothing. A hostile granularity clamps to the number of df classes —
// the same answer as asking for exactly that many, with nothing
// allocated in proportion to the request — and searches alternating
// two granularities each return the single-index answer of their own
// plan, ranking and quality alike.
func TestSearchFragsPerRequest(t *testing.T) {
	cluster := dist.NewCluster(2, nil)
	single := ir.NewIndex()
	for i, text := range corpusForFrags() {
		cluster.Add(bat.OID(i+1), "u", text)
		single.Add(bat.OID(i+1), "u", text)
	}
	single.Freeze()
	classes := single.StatsLocal().Histogram().Classes()
	h := NewCoordinator(map[string]*dist.Cluster{"a": cluster}, nil).Handler()
	const body = `{"query":"seles melbourne match ball","n":10}`
	search := func(path string) SearchResponse {
		t.Helper()
		w := postJSON(t, h, path, body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", path, w.Code, w.Body)
		}
		var sr SearchResponse
		if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}
	want := func(plan ir.EvalPlan) SearchResponse {
		plan.N = 10
		res, est := single.Evaluate(ir.Request{Query: "seles melbourne match ball", Plan: plan})
		return SearchResponse{Index: "a", Results: dist.ResultsToJSON(res), Quality: dist.QualityToJSON(est), Complete: true}
	}

	hostile := search("/search?frag=1&frags=1000000000")
	clamped := search(fmt.Sprintf("/search?frag=1&frags=%d", classes))
	if !reflect.DeepEqual(hostile, clamped) {
		t.Fatalf("frags=1e9 answered %+v, frags=%d answered %+v", hostile, classes, clamped)
	}
	if w := want(ir.EvalPlan{Frags: classes, Budget: 1}); !reflect.DeepEqual(hostile, w) {
		t.Fatalf("frags=1e9 answered %+v, the single index %+v", hostile, w)
	}
	if hostile.Quality.FragsTotal != classes {
		t.Fatalf("frags=1e9 cut %d fragments, want the %d df classes", hostile.Quality.FragsTotal, classes)
	}
	// Nothing in proportion to the request: the search that re-cuts the
	// table for the hostile granularity allocates a few kilobytes, and
	// once cut it allocates what one at the clamped granularity does.
	ctx := context.Background()
	plan := func(k int) ir.EvalPlan { return ir.EvalPlan{N: 10, Frags: k, Budget: 1} }
	if _, err := cluster.SearchPlan(ctx, "winner serve", plan(4)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := cluster.SearchPlan(ctx, "winner serve", plan(1_000_000_000)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a frags=1e9 search allocated %d bytes", grew)
	}
	allocs := func(k int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := cluster.SearchPlan(ctx, "seles melbourne match ball", plan(k)); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The race detector makes sync.Pool drop items at random, so two
	// allocation counts compare only without it.
	if !raceEnabled {
		if hostileAllocs, clampedAllocs := allocs(1_000_000_000), allocs(classes); hostileAllocs > clampedAllocs {
			t.Fatalf("frags=1e9 search: %v allocs, frags=%d: %v", hostileAllocs, classes, clampedAllocs)
		}
	}

	for i := 0; i < 6; i++ {
		k := 4 + 4*(i%2)
		for _, budget := range []int{1, 2} {
			got := search(fmt.Sprintf("/search?frag=%d&frags=%d", budget, k))
			if w := want(ir.EvalPlan{Frags: k, Budget: budget}); !reflect.DeepEqual(got, w) {
				t.Fatalf("search %d frags=%d frag=%d: %+v, single index %+v", i, k, budget, got, w)
			}
		}
	}
}

// TestFragPostingsLabelsBounded: a request cutting far finer than the
// coordinator's granularity registers no series past it. One
// /search?frag=1000&frags=1000000000 admits every query stem, each from
// its own df class; the index still exports at most DefaultFragments
// frag series, and they sum to the admitted global df.
func TestFragPostingsLabelsBounded(t *testing.T) {
	cluster := dist.NewCluster(2, nil)
	single := ir.NewIndex()
	for i, text := range corpusForFrags() {
		cluster.Add(bat.OID(i+1), "u", text)
		single.Add(bat.OID(i+1), "u", text)
	}
	h := NewCoordinator(map[string]*dist.Cluster{"a": cluster}, nil).Handler()
	const query = "seles melbourne match ball"
	if w := postJSON(t, h, "/search?frag=1000&frags=1000000000", `{"query":"`+query+`","n":10}`); w.Code != http.StatusOK {
		t.Fatalf("search = %d: %s", w.Code, w.Body)
	}
	if n := len(cluster.FragmentPostings()); n <= ir.DefaultFragments {
		t.Fatalf("the search admitted up to fragment %d; the test needs one past %d", n-1, ir.DefaultFragments-1)
	}
	admitted := 0.0
	global := single.StatsLocal()
	stems, _ := single.ResolveQuery(query)
	for _, stem := range stems {
		admitted += float64(global.DF[stem])
	}
	series, sum := 0, 0.0
	for _, s := range getStats(t, h).Metrics {
		if s.Name == "dl_cluster_frag_postings_total" && s.Labels["index"] == "a" {
			series++
			sum += *s.Value
		}
	}
	if series > ir.DefaultFragments || sum != admitted {
		t.Fatalf("%d frag series summing to %v; want at most %d summing to the admitted df %v",
			series, sum, ir.DefaultFragments, admitted)
	}
}

// corpusForFrags is a corpus of many df classes: term j of a
// thirty-term vocabulary lies in every (30-j)-th document.
func corpusForFrags() []string {
	vocab := []string{"seles", "melbourne", "trophy", "hingis", "capriati", "volley",
		"smash", "rally", "ace", "winner", "serve", "champion", "final", "open",
		"australian", "tournament", "report", "weather", "player", "coach",
		"crowd", "umpire", "racket", "tiebreak", "deuce", "net", "court", "game", "ball", "match"}
	docs := make([]string, 300)
	for d := range docs {
		text := ""
		for j, w := range vocab {
			if d%(len(vocab)-j) == 0 {
				text += w + " "
			}
		}
		docs[d] = text + "set"
	}
	return docs
}
