package slo

import (
	"sync"
	"testing"
	"time"

	"dlsearch/internal/obs"
)

// seed pushes n identical (budget, seconds) samples into the curve —
// enough to clear the controller's evidence threshold.
func seed(c *Curve, n, budget int, seconds float64) {
	for i := 0; i < n; i++ {
		c.ObserveCost(budget, seconds)
	}
}

func TestCurveLearnsLatency(t *testing.T) {
	c := NewCurve(8)
	seed(c, 50, 2, 0.004)
	lat, w := c.Latency(2, 0.95)
	if w < DefaultMinWeight {
		t.Fatalf("weight %v below evidence threshold after 50 samples", w)
	}
	// 4ms lands in a log bucket; the quantile must be in its ballpark.
	if lat < 0.002 || lat > 0.010 {
		t.Fatalf("p95 = %vs, want ~0.004s", lat)
	}
	// Unobserved budgets report no evidence.
	if _, w := c.Latency(7, 0.95); w != 0 {
		t.Fatalf("unobserved budget reports weight %v", w)
	}
}

func TestCurveDecayTracksShift(t *testing.T) {
	c := NewCurve(4)
	seed(c, 2*obs.DefaultCurveHalfLife, 1, 0.002)
	// The corpus grew: the same budget now costs 10x. After a few
	// half-lives of fresh samples the curve must have moved.
	seed(c, 2*obs.DefaultCurveHalfLife, 1, 0.020)
	lat, _ := c.Latency(1, 0.50)
	if lat < 0.010 {
		t.Fatalf("median still %vs after the shift, decay not tracking", lat)
	}
}

func TestCurveClampAndNil(t *testing.T) {
	c := NewCurve(4)
	c.ObserveCost(0, 0.001)  // below range: clamps to 1
	c.ObserveCost(99, 0.001) // above range: clamps to 4
	if _, w := c.Latency(1, 0.5); w == 0 {
		t.Fatal("clamped-low observation lost")
	}
	if _, w := c.Latency(4, 0.5); w == 0 {
		t.Fatal("clamped-high observation lost")
	}
	var nilCurve *Curve
	nilCurve.ObserveCost(1, 1) // must not panic
	if pts := nilCurve.Snapshot(); pts != nil {
		t.Fatalf("nil curve snapshot = %v", pts)
	}
}

func TestCurveSnapshotOmitsUnobserved(t *testing.T) {
	c := NewCurve(8)
	seed(c, 10, 3, 0.005)
	pts := c.Snapshot()
	if len(pts) != 1 || pts[0].Budget != 3 {
		t.Fatalf("snapshot = %+v, want exactly budget 3", pts)
	}
	if pts[0].P95Ms <= 0 {
		t.Fatalf("snapshot point = %+v", pts[0])
	}
}

// TestControllerConvergence is the in-process convergence proof: with
// a synthetic cost model latency(b) = b x 5ms, the controller's chosen
// budget must settle on the largest budget fitting the SLO, and must
// re-converge when the cost model shifts under it.
func TestControllerConvergence(t *testing.T) {
	ctl := New(Config{Target: 12 * time.Millisecond, MaxBudget: 8})
	curve := ctl.Curve("ix")
	// Closed loop: every decision is executed against the synthetic
	// cost model and its sample fed back, exactly like live serving.
	cost := func(b int) float64 { return float64(b) * 0.005 }
	// A few curve half-lives per phase: long enough for decay to
	// retire the previous cost model.
	decisions := 4 * obs.DefaultCurveHalfLife
	var last Decision
	for i := 0; i < decisions; i++ {
		last = ctl.Decide("ix", ctl.Target(), 0, 1)
		curve.ObserveCost(last.Budget, cost(last.Budget))
	}
	if last.Budget != 2 {
		t.Fatalf("budget converged to %d under a 12ms SLO with 5ms/fragment, want 2", last.Budget)
	}
	if last.Predicted <= 0 || last.Confidence <= 0 {
		t.Fatalf("converged decision carries no prediction: %+v", last)
	}
	// The corpus doubles: each fragment now costs 10ms. The decayed
	// curve must pull the budget down to 1 without operator action.
	cost = func(b int) float64 { return float64(b) * 0.010 }
	for i := 0; i < decisions; i++ {
		last = ctl.Decide("ix", ctl.Target(), 0, 1)
		curve.ObserveCost(last.Budget, cost(last.Budget))
	}
	if last.Budget != 1 {
		t.Fatalf("budget re-converged to %d after the cost shift, want 1", last.Budget)
	}
	// A generous per-request override climbs back up: predictions for
	// larger budgets extrapolate from the observed point.
	d := ctl.Decide("ix", 100*time.Millisecond, 0, 1)
	if d.Budget <= 1 {
		t.Fatalf("override to 100ms still decides budget %d", d.Budget)
	}
}

func TestControllerEmptyCurveServesFullQuality(t *testing.T) {
	ctl := New(Config{Target: time.Millisecond, MaxBudget: 8})
	d := ctl.Decide("ix", ctl.Target(), 0, 1)
	if d.Budget != 8 || d.Degraded || d.Reject {
		t.Fatalf("empty-curve decision = %+v, want optimistic full budget", d)
	}
	if d.Confidence != 0 {
		t.Fatalf("empty-curve confidence = %v, want 0", d.Confidence)
	}
}

func TestControllerPressureShedsQuality(t *testing.T) {
	ctl := New(Config{Target: time.Second, MaxBudget: 8})
	curve := ctl.Curve("ix")
	for b := 1; b <= 8; b++ {
		seed(curve, 20, b, float64(b)*0.001)
	}
	cases := []struct {
		occupancy float64
		budget    int
	}{
		{0, 8}, {0.5, 8}, {1.0, 4}, {2.0, 2}, {3.0, 1}, {4.5, 1}, {50, 1},
	}
	for _, tc := range cases {
		d := ctl.Decide("ix", ctl.Target(), tc.occupancy, 1)
		if d.Budget != tc.budget {
			t.Fatalf("occupancy %v: budget %d, want %d", tc.occupancy, d.Budget, tc.budget)
		}
		if d.Reject {
			t.Fatalf("occupancy %v: rejected a query without a floor", tc.occupancy)
		}
		if (d.ShedLevel > 0) != (tc.occupancy >= 1) {
			t.Fatalf("occupancy %v: shed level %d", tc.occupancy, d.ShedLevel)
		}
	}
	if c := ctl.Counters("ix"); c.Degraded == 0 || c.Decisions != uint64(len(cases)) {
		t.Fatalf("counters = %+v", c)
	}
}

func TestControllerQualityFloorAndReject(t *testing.T) {
	ctl := New(Config{Target: time.Second, MaxBudget: 8})
	curve := ctl.Curve("ix")
	for b := 1; b <= 8; b++ {
		seed(curve, 20, b, float64(b)*0.001)
	}
	// The query's floor budget is 4: pressure may shed to 4, never
	// below, and only a floor-clamped decision under extreme occupancy
	// rejects.
	d := ctl.Decide("ix", ctl.Target(), 2.0, 4) // wants 8>>2 = 2
	if d.Budget != 4 || !d.FloorHit || d.Reject {
		t.Fatalf("floored decision = %+v, want budget 4, floor hit, no reject", d)
	}
	d = ctl.Decide("ix", ctl.Target(), DefaultRejectOccupancy+0.5, 4)
	if !d.Reject {
		t.Fatalf("decision past reject occupancy = %+v, want reject", d)
	}
	// The floor is the query's: one whose floor the shed budget meets
	// is served at any occupancy.
	d = ctl.Decide("ix", ctl.Target(), DefaultRejectOccupancy+0.5, 1)
	if d.Budget != 1 || d.FloorHit || d.Reject {
		t.Fatalf("floorless decision past reject occupancy = %+v, want budget 1, served", d)
	}
	if c := ctl.Counters("ix"); c.FloorHits != 2 || c.Rejected != 1 {
		t.Fatalf("counters = %+v", c)
	}
	// Below saturation the floor never rejects.
	if d := ctl.Decide("ix", ctl.Target(), 0.2, 4); d.Reject {
		t.Fatalf("unsaturated decision rejected: %+v", d)
	}
}

func TestControllerStatsAndOverrides(t *testing.T) {
	ctl := New(Config{Target: 20 * time.Millisecond, MaxBudget: 4})
	seed(ctl.Curve("ix"), 10, 2, 0.003)
	ctl.Decide("ix", ctl.Target(), 0, 1)
	ctl.RecordOverride("ix")
	st := ctl.Stats("ix")
	if st.TargetMs != 20 || st.MaxBudget != 4 || st.MinQuality != 0 {
		t.Fatalf("stats config block = %+v", st)
	}
	if c := ctl.Counters("ix"); c.Decisions != 1 || c.Overrides != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if len(st.Curve) != 1 || st.Curve[0].Budget != 2 {
		t.Fatalf("stats curve = %+v", st.Curve)
	}
	if s, c := ctl.Stats("never-seen"), ctl.Counters("never-seen"); c.Decisions != 0 || s.Curve != nil {
		t.Fatalf("unknown index stats = %+v, counters = %+v", s, c)
	}
}

// TestDecideAllocationFree proves the controller's hot path (one
// decision + one cost observation per query) allocates nothing.
func TestDecideAllocationFree(t *testing.T) {
	ctl := New(Config{Target: 10 * time.Millisecond, MaxBudget: 8})
	curve := ctl.Curve("ix")
	for b := 1; b <= 8; b++ {
		seed(curve, 20, b, float64(b)*0.002)
	}
	if n := testing.AllocsPerRun(200, func() {
		d := ctl.Decide("ix", ctl.Target(), 1.5, 3)
		curve.ObserveCost(d.Budget, 0.004)
	}); n != 0 {
		t.Fatalf("Decide+ObserveCost allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		_ = ctl.Counters("ix")
	}); n != 0 {
		t.Fatalf("Counters allocates %v per run, want 0", n)
	}
}

// TestControllerConcurrent exercises the decide/observe/stats paths
// under the race detector.
func TestControllerConcurrent(t *testing.T) {
	ctl := New(Config{Target: 5 * time.Millisecond, MaxBudget: 8})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			curve := ctl.Curve("ix")
			for i := 0; i < 500; i++ {
				d := ctl.Decide("ix", ctl.Target(), float64(i%3), 1+i%2)
				curve.ObserveCost(d.Budget, float64(d.Budget)*0.001)
				if i%50 == 0 {
					_ = ctl.Stats("ix")
					_ = ctl.Counters("ix")
				}
			}
		}(g)
	}
	wg.Wait()
	if c := ctl.Counters("ix"); c.Decisions != 2000 {
		t.Fatalf("decisions = %d, want 2000", c.Decisions)
	}
}

func TestControllerProbeRelearnsAfterLoadDrop(t *testing.T) {
	ctl := New(Config{Target: 12 * time.Millisecond, MaxBudget: 8})
	curve := ctl.Curve("ix")
	// Overload: 10ms per fragment. The controller converges to budget 1
	// and every larger budget is remembered as "too slow".
	cost := func(b int) float64 { return float64(b) * 0.010 }
	var d Decision
	for i := 0; i < 200; i++ {
		d = ctl.Decide("ix", ctl.Target(), 0, 1)
		curve.ObserveCost(d.Budget, cost(d.Budget))
	}
	if d.Budget != 1 {
		t.Fatalf("overloaded budget = %d, want 1", d.Budget)
	}
	// Load drops to 1ms per fragment. Without probing the target loop
	// would never evaluate a larger budget again, so its curve point
	// could never refresh; the periodic probes feed fresh samples one
	// budget above the choice and the controller climbs back.
	// A probe refreshes budget 2 once per DefaultProbeEvery decisions:
	// four curve half-lives of probes retire its overload samples.
	cost = func(b int) float64 { return float64(b) * 0.001 }
	sawProbe := false
	for i := 0; i < 4*obs.DefaultCurveHalfLife*DefaultProbeEvery; i++ {
		d = ctl.Decide("ix", ctl.Target(), 0, 1)
		if d.Probe {
			sawProbe = true
		}
		curve.ObserveCost(d.Budget, cost(d.Budget))
	}
	if !sawProbe {
		t.Fatal("no probe decision among the target-limited decisions")
	}
	if d.Budget <= 1 {
		t.Fatalf("budget still %d after load dropped — stale points never re-learned", d.Budget)
	}
	if c := ctl.Counters("ix"); c.Probes == 0 {
		t.Fatalf("probe counter = %+v, want Probes > 0", c)
	}
}
