package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
	for i := 0; i < 60; i++ {
		text := "match play game set court ball"
		if i%10 == 0 {
			text = "seles melbourne trophy"
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

// TestAdaptiveQualityFloorRejects: when the curve proves every budget
// the pressure asks for is below the quality floor and occupancy is
// past the rejection threshold, the coordinator finally answers 503 —
// quality sheds first, queries only past the floor.
func TestAdaptiveQualityFloorRejects(t *testing.T) {
	ctl := slo.New(slo.Config{Target: time.Second, MaxBudget: 8, MinQuality: 0.9})
	co, h := adaptiveFixture(t, &CoordinatorConfig{
		Frags:         8,
		MaxConcurrent: 1,
		MinQuality:    0.9,
		SLO:           ctl,
	})
	// Teach the curve that budgets 1..7 are fast but far below the
	// floor: pressure has nowhere to shed to.
	curve := ctl.Curve("a")
	for b := 1; b <= 7; b++ {
		for i := 0; i < 20; i++ {
			curve.ObserveCost(b, 0.001, 0.2)
		}
	}
	// One slot held and one search queued: the next decision sees
	// occupancy (1+1+1)/1 = 3 — the rejection threshold.
	if !co.sem.TryAcquire() {
		t.Fatal("could not saturate")
	}
	collect := queuedSearch(t, co, h, "/search", adaptiveQuery)
	w := postJSON(t, h, "/search", adaptiveQuery)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("floor-clamped overload /search = %d, want 503: %s", w.Code, w.Body)
	}
	if c := ctl.Counters("a"); c.Rejected == 0 || c.FloorHits == 0 {
		t.Fatalf("controller counters after reject = %+v", c)
	}
	co.sem.Release()
	if w := collect(); w.Code != http.StatusOK {
		t.Fatalf("queued search finished with %d, want 200: %s", w.Code, w.Body)
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
			curve.ObserveCost(b, float64(b)*0.010, float64(b)/8)
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
	// After a budgeted evaluation the per-fragment postings counters
	// register lazily and report where the budget cut landed.
	s.sem.Release()
	if w := postWire(t, h, "/node/search", searchFrame(t, "alpha", ir.EvalPlan{N: 5, Frags: 2, Budget: 1}, ir.Stats{})); w.Code != http.StatusOK {
		t.Fatalf("/node/search = %d: %s", w.Code, w.Body)
	}
	if !s.sem.TryAcquire() {
		t.Fatal("could not re-saturate")
	}
	if w := get(t, h, "/metrics"); !bytes.Contains(w.Body.Bytes(), []byte(`dl_node_frag_postings_total{frag="0"}`)) {
		t.Fatal("/metrics missing per-fragment postings counters after budgeted search")
	}
}
