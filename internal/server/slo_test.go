package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dlsearch/internal/bat"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/obs"
	"dlsearch/internal/slo"
)

// adaptiveFixture builds a 2-partition cluster whose corpus mixes
// frequent (low-idf, trailing-fragment) and rare terms, so a reduced
// fragment budget measurably drops quality below 1.
func adaptiveFixture(t *testing.T, cfg *CoordinatorConfig) (*Coordinator, http.Handler) {
	t.Helper()
	cluster := dist.NewCluster(2, nil)
	// Every tenth document holds the rare terms (df 6); the common term
	// j holds the documents whose oid mod 10 lies in 1..9-j (df 54, 48,
	// …, 12). Nine df classes: enough for an eight-fragment cut-off, and
	// "match ball" (df 54 and 48) lie in its last two fragments.
	common := strings.Fields("match ball play game set court net serve")
	for i := 0; i < 60; i++ {
		text := "seles melbourne trophy"
		if r := i % 10; r > 0 {
			text = strings.Join(common[:min(len(common), 10-r)], " ")
		}
		cluster.Add(bat.OID(i+1), "u", text)
	}
	co := NewCoordinator(map[string]*dist.Cluster{"a": cluster}, cfg)
	return co, co.Handler()
}

const adaptiveQuery = `{"query":"seles match ball","n":10}`

// queuedSearch issues the request on a goroutine (an adaptive search
// against a saturated semaphore decides its budget, then blocks in
// Acquire), waits until it is queued, and returns a collector.
func queuedSearch(t *testing.T, co *Coordinator, h http.Handler, path, body string) func() *httptest.ResponseRecorder {
	t.Helper()
	before := co.sem.Waiting()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postJSON(t, h, path, body) }()
	deadline := time.Now().Add(5 * time.Second)
	for co.sem.Waiting() <= before {
		if time.Now().After(deadline) {
			t.Fatal("adaptive search never queued on the semaphore")
		}
		time.Sleep(time.Millisecond)
	}
	return func() *httptest.ResponseRecorder {
		select {
		case w := <-done:
			return w
		case <-time.After(5 * time.Second):
			t.Fatal("queued search never completed")
			return nil
		}
	}
}

// TestAdaptiveSearchDegradesAndRecovers is the in-process half of the
// acceptance criterion: under semaphore pressure an adaptive
// coordinator serves a degraded-but-200 ranking instead of a 503, the
// decision is visible in /metrics and /stats, and once the pressure
// drains /search returns the byte-identical full-quality response.
func TestAdaptiveSearchDegradesAndRecovers(t *testing.T) {
	reg := obs.NewRegistry()
	ctl := slo.New(slo.Config{Target: time.Second, MaxBudget: 8})
	co, h := adaptiveFixture(t, &CoordinatorConfig{
		Frags:         8,
		MaxConcurrent: 2,
		Metrics:       reg,
		SLO:           ctl,
	})

	// Unloaded: the empty curve decides the full budget — quality 1.
	w := postJSON(t, h, "/search", adaptiveQuery)
	if w.Code != http.StatusOK {
		t.Fatalf("unloaded /search = %d: %s", w.Code, w.Body)
	}
	baseline := append([]byte(nil), w.Body.Bytes()...)
	var base SearchResponse
	if err := json.Unmarshal(baseline, &base); err != nil {
		t.Fatal(err)
	}
	if base.Quality.Value != 1.0 || !base.Complete {
		t.Fatalf("unloaded response = %+v, want full quality", base)
	}

	// Saturate the semaphore: both slots held, so the next adaptive
	// search decides at occupancy (2+0+1)/2 = 1.5 → shed level 1 →
	// budget 4-of-8 — SERVED degraded once a slot frees, not shed.
	if !co.sem.TryAcquire() || !co.sem.TryAcquire() {
		t.Fatal("could not saturate the semaphore")
	}
	collect := queuedSearch(t, co, h, "/search", adaptiveQuery)
	co.sem.Release() // one held query finishes; the queued search runs
	w = collect()
	co.sem.Release()
	if w.Code != http.StatusOK {
		t.Fatalf("saturated /search = %d, want degraded 200: %s", w.Code, w.Body)
	}
	var degraded SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &degraded); err != nil {
		t.Fatal(err)
	}
	if v := degraded.Quality.Value; v <= 0 || v >= 1 {
		t.Fatalf("saturated quality = %v, want degraded in (0, 1)", v)
	}
	if degraded.Quality.FragsUsed != 4 {
		t.Fatalf("saturated search used %d fragments, want 4 (shed level 1)", degraded.Quality.FragsUsed)
	}
	if len(degraded.Results) == 0 || !degraded.Complete {
		t.Fatalf("degraded response = %+v", degraded)
	}

	// The decision trail: controller counters, /stats slo block,
	// dl_slo_* metrics.
	if c := ctl.Counters("a"); c.Decisions < 2 || c.Degraded == 0 || c.Rejected != 0 {
		t.Fatalf("controller counters = %+v", c)
	}
	stats := getStats(t, h)
	decisions := statsValue(t, stats, "dl_slo_decisions_total", "index", "a")
	if degraded := statsValue(t, stats, "dl_slo_degraded_total", "index", "a"); decisions < 2 || degraded == 0 {
		t.Fatalf("/stats slo counters = decisions %v, degraded %v", decisions, degraded)
	}
	sloStats := stats.Indexes["a"].SLO
	if sloStats == nil || sloStats.MaxBudget != 8 || sloStats.TargetMs != 1000 {
		t.Fatalf("/stats slo block = %+v", sloStats)
	}
	if len(sloStats.Curve) == 0 {
		t.Fatalf("/stats slo curve empty after %v decisions", decisions)
	}
	metrics := get(t, h, "/metrics").Body.String()
	for _, want := range []string{
		`dl_slo_decisions_total{index="a"}`,
		`dl_slo_degraded_total{index="a"}`,
		`dl_slo_shed_level{index="a"}`,
		"dl_slo_budget_bucket",
		// The coordinator's cut-offs: "seles" (df 6) admitted from the
		// rarest fragment by both searches, "match" (df 54) from the
		// last by the full-budget one only.
		`dl_cluster_frag_postings_total{index="a",frag="0"} 12`,
		`dl_cluster_frag_postings_total{index="a",frag="7"} 54`,
	} {
		if !bytes.Contains([]byte(metrics), []byte(want)) {
			t.Fatalf("/metrics missing %s", want)
		}
	}

	// Drained: byte-identical to the unloaded full-quality response.
	w = postJSON(t, h, "/search", adaptiveQuery)
	if w.Code != http.StatusOK {
		t.Fatalf("drained /search = %d: %s", w.Code, w.Body)
	}
	if !bytes.Equal(w.Body.Bytes(), baseline) {
		t.Fatalf("drained response differs from baseline:\n%s\nvs\n%s", w.Body, baseline)
	}
}

// TestAdaptiveExplicitBudgetKeepsManualContract: a request that pins
// its own budget bypasses the controller — and keeps the classic
// immediate-503 behaviour when the coordinator is saturated.
func TestAdaptiveExplicitBudgetKeepsManualContract(t *testing.T) {
	ctl := slo.New(slo.Config{Target: time.Second, MaxBudget: 8})
	co, h := adaptiveFixture(t, &CoordinatorConfig{
		Frags:         8,
		MaxConcurrent: 1,
		SLO:           ctl,
	})
	// Unsaturated: the manual budget is honoured verbatim.
	w := postJSON(t, h, "/search", `{"query":"seles match ball","n":10,"budget":1}`)
	if w.Code != http.StatusOK {
		t.Fatalf("manual /search = %d: %s", w.Code, w.Body)
	}
	var manual SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &manual); err != nil {
		t.Fatal(err)
	}
	if manual.Quality.FragsUsed != 1 {
		t.Fatalf("manual budget not honoured: %+v", manual.Quality)
	}
	if c := ctl.Counters("a"); c.Decisions != 0 {
		t.Fatalf("manual request consulted the controller: %+v", c)
	}
	// Saturated: manual requests shed immediately, adaptive ones queue
	// and are served degraded.
	if !co.sem.TryAcquire() {
		t.Fatal("could not saturate")
	}
	if w := postJSON(t, h, "/search?frag=1", adaptiveQuery); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated manual /search = %d, want 503", w.Code)
	}
	collect := queuedSearch(t, co, h, "/search", adaptiveQuery)
	co.sem.Release()
	if w := collect(); w.Code != http.StatusOK {
		t.Fatalf("saturated adaptive /search = %d, want 200: %s", w.Code, w.Body)
	}
}

// searchBody decodes a /search answer, failing unless it is a 200.
func searchBody(t *testing.T, w *httptest.ResponseRecorder) SearchResponse {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("/search = %d, want 200: %s", w.Code, w.Body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestAdaptiveQualityFloorRejects: the floor is the query's, from the
// cut-off's a-priori estimate, not an average over other queries. Past
// the rejection occupancy a query whose floor budget the shed budget
// cannot meet is refused; a query the rarest fragment already serves
// in full is served at budget 1; and a request that waives the
// coordinator's floor is never refused for it.
func TestAdaptiveQualityFloorRejects(t *testing.T) {
	ctl := slo.New(slo.Config{Target: time.Second, MaxBudget: 8})
	co, h := adaptiveFixture(t, &CoordinatorConfig{
		Frags:         8,
		MaxConcurrent: 1,
		MinQuality:    0.9,
		SLO:           ctl,
	})
	// One unloaded search pulls every group's statistics, so the
	// coordinator can estimate from here on.
	searchBody(t, postJSON(t, h, "/search", `{"query":"seles","n":10}`))
	// "seles match ball" covers 0.81 of its idf mass below budget 7
	// ("seles" alone) and 0.91 at it ("ball" joins): floor budget 7.
	cluster := co.indexes["a"]
	for _, b := range []int{6, 7} {
		est, ok := cluster.Estimate("seles match ball", ir.EvalPlan{Frags: 8, Budget: b})
		if !ok || (b < 7) != (est.Value() < 0.9) {
			t.Fatalf("estimate at budget %d = %+v (%v), want the floor crossed at 7", b, est, ok)
		}
	}

	// One slot held and one search queued: the next decision sees
	// occupancy (1+1+1)/1 = 3 — the rejection threshold.
	if !co.sem.TryAcquire() {
		t.Fatal("could not saturate")
	}
	floored := queuedSearch(t, co, h, "/search", adaptiveQuery)
	refused := make(chan *httptest.ResponseRecorder, 1)
	go func() { refused <- postJSON(t, h, "/search", adaptiveQuery) }()
	select {
	case w := <-refused:
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("floor-clamped overload /search = %d, want 503: %s", w.Code, w.Body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("floor-clamped overload /search queued instead of being refused")
	}
	if c := ctl.Counters("a"); c.Rejected != 1 || c.FloorHits != 2 {
		t.Fatalf("controller counters after reject = %+v, want 1 rejected of 2 floor hits", c)
	}
	// Still past the threshold: neither of these is refused, and
	// neither hits its floor.
	waived := queuedSearch(t, co, h, "/search", `{"query":"seles match ball","n":10,"min_quality":0}`)
	rare := queuedSearch(t, co, h, "/search", `{"query":"seles","n":10}`)
	if c := ctl.Counters("a"); c.Rejected != 1 || c.FloorHits != 2 {
		t.Fatalf("controller counters = %+v, want no new floor hit", c)
	}
	co.sem.Release()
	if got := searchBody(t, floored()).Quality; got.FragsUsed != 7 || got.Value < 0.9 {
		t.Fatalf("floor-clamped search served %+v, want 7 fragments at quality >= 0.9", got)
	}
	if got := searchBody(t, waived()).Quality; got.FragsUsed != 1 {
		t.Fatalf("waived-floor search served %+v, want the shed budget 1", got)
	}
	if got := searchBody(t, rare()).Quality; got.FragsUsed != 1 || got.Value != 1 {
		t.Fatalf("rare-stem search served %+v, want full quality at budget 1", got)
	}
}

// TestAdaptiveRequestFloor: a request's own min_quality governs
// admission on a coordinator with no configured floor, and the search
// admits exactly the budget the controller decided.
func TestAdaptiveRequestFloor(t *testing.T) {
	var buf bytes.Buffer
	ctl := slo.New(slo.Config{Target: time.Second, MaxBudget: 8})
	co, h := adaptiveFixture(t, &CoordinatorConfig{
		Frags:         8,
		MaxConcurrent: 2,
		SLO:           ctl,
		SlowQuery:     obs.NewSlowQueryLog(&buf, time.Nanosecond),
	})
	searchBody(t, postJSON(t, h, "/search", adaptiveQuery))
	buf.Reset()
	// Occupancy 1.5 sheds to budget 4; the request's 0.95 floor needs
	// all 8 ("match" joins last).
	if !co.sem.TryAcquire() || !co.sem.TryAcquire() {
		t.Fatal("could not saturate")
	}
	collect := queuedSearch(t, co, h, "/search", `{"query":"seles match ball","n":10,"min_quality":0.95}`)
	co.sem.Release()
	got := searchBody(t, collect()).Quality
	co.sem.Release()
	var rec obs.SlowQueryRecord
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil || rec.SLO == nil {
		t.Fatalf("slow-query line %q: %v", buf.String(), err)
	}
	if !rec.SLO.FloorHit || rec.SLO.Budget != 8 || got.FragsUsed != rec.SLO.Budget || got.Value < 0.95 {
		t.Fatalf("decision %+v served %+v, want a floor hit at budget 8 served as decided", rec.SLO, got)
	}
	if c := ctl.Counters("a"); c.FloorHits != 1 {
		t.Fatalf("controller counters = %+v, want 1 floor hit", c)
	}
}

// TestAdaptiveFloorIsTheCutoffs: over random df vectors, queries,
// floors and occupancies, with statistics steady, the controller's
// floor is the cut-off's — the floor budget is the smallest budget
// whose estimate meets the floor, the decided budget is the FragsUsed
// of the search it admits, and served quality meets the floor
// whenever some budget does.
func TestAdaptiveFloorIsTheCutoffs(t *testing.T) {
	words := strings.Fields("alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima")
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	for corpus := 0; corpus < 10; corpus++ {
		// Twelve distinct dfs in 1..40: twelve df classes, so an
		// eight-fragment table is never clamped.
		dfs := rng.Perm(40)[:len(words)]
		cluster := dist.NewCluster(2, nil)
		for d := 1; d <= 40; d++ {
			var text []string
			for i, df := range dfs {
				if d <= df+1 {
					text = append(text, words[i])
				}
			}
			if len(text) > 0 {
				cluster.Add(bat.OID(d), "u", strings.Join(text, " "))
			}
		}
		if _, err := cluster.GlobalStatsContext(ctx); err != nil {
			t.Fatal(err)
		}
		ctl := slo.New(slo.Config{MaxBudget: 8})
		for trial := 0; trial < 50; trial++ {
			var q []string
			for _, i := range rng.Perm(len(words))[:1+rng.Intn(4)] {
				q = append(q, words[i])
			}
			if rng.Intn(4) == 0 {
				q = append(q, "zulu") // unknown: no idf mass
			}
			query := strings.Join(q, " ")
			plan := ir.EvalPlan{N: 10, Frags: 8, MinQuality: []float64{0, rng.Float64(), 1}[rng.Intn(3)]}
			floor := queryFloor(cluster, query, plan)
			if floor > 1 {
				below, _ := cluster.Estimate(query, ir.EvalPlan{Frags: 8, Budget: floor - 1})
				if below.Value() >= plan.MinQuality {
					t.Fatalf("%q floor %v: budget %d already meets it, floor budget %d", query, plan.MinQuality, floor-1, floor)
				}
			}
			d := ctl.Decide("p", 0, 5*rng.Float64(), floor)
			if d.Budget < floor {
				t.Fatalf("%q: decided budget %d below floor budget %d", query, d.Budget, floor)
			}
			if d.Reject {
				continue
			}
			plan.Budget = d.Budget
			sr, err := cluster.SearchPlan(ctx, query, plan)
			if err != nil {
				t.Fatal(err)
			}
			if sr.Quality.FragsUsed != d.Budget {
				t.Fatalf("%q floor %v: decided budget %d, search admitted %d", query, plan.MinQuality, d.Budget, sr.Quality.FragsUsed)
			}
			full, _ := cluster.Estimate(query, ir.EvalPlan{Frags: 8, Budget: 8})
			if full.Value() >= plan.MinQuality && sr.Quality.Value() < plan.MinQuality-1e-12 {
				t.Fatalf("%q: served quality %v below reachable floor %v", query, sr.Quality.Value(), plan.MinQuality)
			}
		}
	}
}

// TestSearchRejectsNonFinitePlan: strconv.ParseFloat accepts "NaN",
// "Inf" and magnitudes past time.Duration's range; none of them is a
// plan parameter.
func TestSearchRejectsNonFinitePlan(t *testing.T) {
	_, h := adaptiveFixture(t, &CoordinatorConfig{
		Frags: 8,
		SLO:   slo.New(slo.Config{Target: time.Second, MaxBudget: 8}),
	})
	for _, tc := range []struct{ path, body string }{
		{"/search?min_quality=NaN&frag=1", adaptiveQuery},
		{"/search?slo_ms=NaN", adaptiveQuery},
		{"/search?slo_ms=Inf", adaptiveQuery},
		{"/search?slo_ms=1e300", adaptiveQuery},
		{"/search", `{"query":"seles","n":10,"slo_ms":1e300}`},
	} {
		if w := postJSON(t, h, tc.path, tc.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s %s = %d, want 400: %s", tc.path, tc.body, w.Code, w.Body)
		}
	}
}

// TestAdaptiveBurstOverHTTP: a burst past the semaphore over real
// HTTP. Without a floor every query is served, degraded; with a
// floor, every query served meets it (refusals allowed); once the
// bursts drain the answer is byte-identical to the unloaded one.
func TestAdaptiveBurstOverHTTP(t *testing.T) {
	reg := obs.NewRegistry()
	_, h := adaptiveFixture(t, &CoordinatorConfig{
		Frags:         8,
		MaxConcurrent: 2,
		Metrics:       reg,
		SLO:           slo.New(slo.Config{Target: 500 * time.Millisecond, MaxBudget: 8}),
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	post := func(path, body string) (int, []byte) {
		resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
		}
		return resp.StatusCode, b
	}
	// burst issues 60 POSTs, 12-way parallel, and checks each answer.
	burst := func(body string, check func(code int, b []byte)) {
		var wg sync.WaitGroup
		for range 12 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 5 {
					check(post("/search?slo_ms=0.001", body))
				}
			}()
		}
		wg.Wait()
	}
	code, baseline := post("/search", adaptiveQuery)
	if code != http.StatusOK {
		t.Fatalf("unloaded /search = %d: %s", code, baseline)
	}

	burst(adaptiveQuery, func(code int, b []byte) {
		if code != http.StatusOK {
			t.Errorf("floorless burst answered %d, want 200: %s", code, b)
		}
	})
	if v := statsValue(t, getStats(t, h), "dl_slo_degraded_total", "index", "a"); v < 1 {
		t.Fatalf("dl_slo_degraded_total = %v after the burst, want >= 1", v)
	}

	burst(`{"query":"seles match ball","n":10,"min_quality":0.9}`, func(code int, b []byte) {
		if code == http.StatusServiceUnavailable {
			return
		}
		var resp SearchResponse
		if code != http.StatusOK || json.Unmarshal(b, &resp) != nil || resp.Quality.Value < 0.9 {
			t.Errorf("floored burst answered %d %s, want quality >= 0.9 or 503", code, b)
		}
	})

	code, after := post("/search", adaptiveQuery)
	if code != http.StatusOK || !bytes.Equal(after, baseline) {
		t.Fatalf("drained /search = %d %s, want the baseline %s", code, after, baseline)
	}
}

// TestAdaptiveSLOMsOverride: a per-request slo_ms replaces the
// configured target for that decision, is counted as an override, and
// is validated.
func TestAdaptiveSLOMsOverride(t *testing.T) {
	ctl := slo.New(slo.Config{Target: time.Second, MaxBudget: 8})
	_, h := adaptiveFixture(t, &CoordinatorConfig{
		Frags: 8,
		SLO:   ctl,
	})
	// Teach the curve latency(b) = b x 10ms.
	curve := ctl.Curve("a")
	for b := 1; b <= 8; b++ {
		for i := 0; i < 20; i++ {
			curve.ObserveCost(b, float64(b)*0.010)
		}
	}
	// Default 1s target: everything fits, full budget.
	var full SearchResponse
	if err := json.Unmarshal(postJSON(t, h, "/search", adaptiveQuery).Body.Bytes(), &full); err != nil {
		t.Fatal(err)
	}
	if full.Quality.Value != 1.0 {
		t.Fatalf("default-target quality = %+v, want 1", full.Quality)
	}
	// A 25ms override only fits ~2 fragments: the served quality drops.
	var tight SearchResponse
	w := postJSON(t, h, "/search?slo_ms=25", adaptiveQuery)
	if w.Code != http.StatusOK {
		t.Fatalf("?slo_ms=25 = %d: %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &tight); err != nil {
		t.Fatal(err)
	}
	if v := tight.Quality.Value; v <= 0 || v >= 1 {
		t.Fatalf("tight-SLO quality = %v, want in (0, 1)", v)
	}
	if tight.Quality.FragsUsed >= full.Quality.FragsUsed {
		t.Fatalf("tight SLO used %d fragments, full target used %d",
			tight.Quality.FragsUsed, full.Quality.FragsUsed)
	}
	// The body spelling works too and both count as overrides.
	if w := postJSON(t, h, "/search", `{"query":"seles match ball","n":10,"slo_ms":25}`); w.Code != http.StatusOK {
		t.Fatalf("body slo_ms = %d: %s", w.Code, w.Body)
	}
	if c := ctl.Counters("a"); c.Overrides != 2 {
		t.Fatalf("overrides = %d, want 2", c.Overrides)
	}
	// Malformed overrides are 400, not decisions.
	for _, path := range []string{"/search?slo_ms=x", "/search?slo_ms=-1"} {
		if w := postJSON(t, h, path, adaptiveQuery); w.Code != http.StatusBadRequest {
			t.Fatalf("%s = %d, want 400", path, w.Code)
		}
	}
	if w := postJSON(t, h, "/search", `{"query":"q","n":5,"slo_ms":-3}`); w.Code != http.StatusBadRequest {
		t.Fatalf("negative body slo_ms = %d, want 400", w.Code)
	}
}

// TestAdaptiveSearchTraceRecordsDecision: the slow-query log line of
// an adaptively served query carries the controller's decision and an
// "admit" span.
func TestAdaptiveSearchTraceRecordsDecision(t *testing.T) {
	var buf bytes.Buffer
	ctl := slo.New(slo.Config{Target: time.Second, MaxBudget: 8})
	co, h := adaptiveFixture(t, &CoordinatorConfig{
		Frags:         8,
		MaxConcurrent: 2,
		SLO:           ctl,
		SlowQuery:     obs.NewSlowQueryLog(&buf, time.Nanosecond),
	})
	// Saturate so the recorded decision is a degraded one.
	if !co.sem.TryAcquire() || !co.sem.TryAcquire() {
		t.Fatal("could not saturate")
	}
	collect := queuedSearch(t, co, h, "/search", adaptiveQuery)
	co.sem.Release()
	if w := collect(); w.Code != http.StatusOK {
		t.Fatalf("/search = %d", w.Code)
	}
	co.sem.Release()
	var rec obs.SlowQueryRecord
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("slow-query line %q: %v", buf.String(), err)
	}
	if rec.SLO == nil {
		t.Fatalf("slow-query record has no slo block: %+v", rec)
	}
	if rec.SLO.Budget != 4 || !rec.SLO.Degraded || rec.SLO.ShedLevel != 1 {
		t.Fatalf("recorded decision = %+v, want degraded budget 4 at shed level 1", rec.SLO)
	}
	if rec.SLO.AchievedMS <= 0 {
		t.Fatalf("achieved latency not recorded: %+v", rec.SLO)
	}
	found := false
	for _, sp := range rec.Spans {
		if sp.Name == "admit" {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace spans %v missing admit", rec.Spans)
	}
}

// TestNodeTelemetryBypassesSemaphore: a saturated node is busy, not
// dead — /healthz and /metrics must answer while every request slot is
// held, or the load balancer ejects exactly the node whose telemetry
// matters most.
func TestNodeTelemetryBypassesSemaphore(t *testing.T) {
	ix := ir.NewIndex()
	ix.Add(1, "u", "alpha beta")
	s := NewNodeServer(ix, &NodeConfig{
		MaxConcurrent: 1,
		Metrics:       obs.NewRegistry(),
	})
	h := s.Handler()
	if !s.sem.TryAcquire() {
		t.Fatal("could not saturate the node semaphore")
	}
	defer s.sem.Release()
	if w := get(t, h, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("saturated /healthz = %d, want 200", w.Code)
	}
	w := get(t, h, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("saturated /metrics = %d, want 200", w.Code)
	}
	if !bytes.Contains(w.Body.Bytes(), []byte("dl_node_scoring_seconds")) {
		t.Fatal("saturated /metrics serves no node metrics")
	}
	// The request plane meanwhile sheds as configured.
	if w := postWire(t, h, "/node/search", searchFrame(t, "alpha", ir.EvalPlan{N: 5}, ir.Stats{})); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated /node/search = %d, want 503", w.Code)
	}
}
