package slo

import (
	"sync"
	"testing"
	"time"
)

// seed pushes n identical (budget, seconds, quality) samples into the
// curve — enough to clear the controller's evidence threshold.
func seed(c *Curve, n, budget int, seconds, quality float64) {
	for i := 0; i < n; i++ {
		c.ObserveCost(budget, seconds, quality)
	}
}

func TestCurveLearnsLatencyAndQuality(t *testing.T) {
	c := NewCurve(8, 64)
	seed(c, 50, 2, 0.004, 0.6)
	lat, w := c.Latency(2, 0.95)
	if w < DefaultMinWeight {
		t.Fatalf("weight %v below evidence threshold after 50 samples", w)
	}
	// 4ms lands in a log bucket; the quantile must be in its ballpark.
	if lat < 0.002 || lat > 0.010 {
		t.Fatalf("p95 = %vs, want ~0.004s", lat)
	}
	q, qw := c.Quality(2)
	if qw < DefaultMinWeight || q < 0.59 || q > 0.61 {
		t.Fatalf("quality = %v (weight %v), want ~0.6", q, qw)
	}
	// Unobserved budgets report no evidence.
	if _, w := c.Latency(7, 0.95); w != 0 {
		t.Fatalf("unobserved budget reports weight %v", w)
	}
}

func TestCurveDecayTracksShift(t *testing.T) {
	c := NewCurve(4, 32) // short half-life: old evidence fades fast
	seed(c, 200, 1, 0.002, 0.5)
	// The corpus grew: the same budget now costs 10x. After a few
	// half-lives of fresh samples the curve must have moved.
	seed(c, 200, 1, 0.020, 0.5)
	lat, _ := c.Latency(1, 0.50)
	if lat < 0.010 {
		t.Fatalf("median still %vs after the shift, decay not tracking", lat)
	}
}

func TestCurveClampAndNil(t *testing.T) {
	c := NewCurve(4, 0)
	c.ObserveCost(0, 0.001, 1)  // below range: clamps to 1
	c.ObserveCost(99, 0.001, 1) // above range: clamps to 4
	if _, w := c.Latency(1, 0.5); w == 0 {
		t.Fatal("clamped-low observation lost")
	}
	if _, w := c.Latency(4, 0.5); w == 0 {
		t.Fatal("clamped-high observation lost")
	}
	var nilCurve *Curve
	nilCurve.ObserveCost(1, 1, 1) // must not panic
	if pts := nilCurve.Snapshot(); pts != nil {
		t.Fatalf("nil curve snapshot = %v", pts)
	}
}

func TestCurveSnapshotOmitsUnobserved(t *testing.T) {
	c := NewCurve(8, 0)
	seed(c, 10, 3, 0.005, 0.7)
	pts := c.Snapshot()
	if len(pts) != 1 || pts[0].Budget != 3 {
		t.Fatalf("snapshot = %+v, want exactly budget 3", pts)
	}
	if pts[0].P95Ms <= 0 || pts[0].Quality < 0.69 || pts[0].Quality > 0.71 {
		t.Fatalf("snapshot point = %+v", pts[0])
	}
}

// TestControllerConvergence is the in-process convergence proof: with
// a synthetic cost model latency(b) = b x 5ms, the controller's chosen
// budget must settle on the largest budget fitting the SLO, and must
// re-converge when the cost model shifts under it.
func TestControllerConvergence(t *testing.T) {
	ctl := New(Config{Target: 12 * time.Millisecond, MaxBudget: 8, HalfLife: 32})
	curve := ctl.Curve("ix")
	// Closed loop: every decision is executed against the synthetic
	// cost model and its sample fed back, exactly like live serving.
	cost := func(b int) float64 { return float64(b) * 0.005 }
	var last Decision
	for i := 0; i < 300; i++ {
		last = ctl.Decide("ix", ctl.Target(), 0)
		curve.ObserveCost(last.Budget, cost(last.Budget), float64(last.Budget)/8)
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
	for i := 0; i < 300; i++ {
		last = ctl.Decide("ix", ctl.Target(), 0)
		curve.ObserveCost(last.Budget, cost(last.Budget), float64(last.Budget)/8)
	}
	if last.Budget != 1 {
		t.Fatalf("budget re-converged to %d after the cost shift, want 1", last.Budget)
	}
	// A generous per-request override climbs back up: predictions for
	// larger budgets extrapolate from the observed point.
	d := ctl.Decide("ix", 100*time.Millisecond, 0)
	if d.Budget <= 1 {
		t.Fatalf("override to 100ms still decides budget %d", d.Budget)
	}
}

func TestControllerEmptyCurveServesFullQuality(t *testing.T) {
	ctl := New(Config{Target: time.Millisecond, MaxBudget: 8})
	d := ctl.Decide("ix", ctl.Target(), 0)
	if d.Budget != 8 || d.Degraded || d.Reject {
		t.Fatalf("empty-curve decision = %+v, want optimistic full budget", d)
	}
	if d.Confidence != 0 {
		t.Fatalf("empty-curve confidence = %v, want 0", d.Confidence)
	}
	if d.PredictedQuality != 1 {
		t.Fatalf("empty-curve predicted quality = %v, want 1", d.PredictedQuality)
	}
}

func TestControllerPressureShedsQuality(t *testing.T) {
	ctl := New(Config{Target: time.Second, MaxBudget: 8})
	curve := ctl.Curve("ix")
	for b := 1; b <= 8; b++ {
		seed(curve, 20, b, float64(b)*0.001, float64(b)/8)
	}
	cases := []struct {
		occupancy float64
		budget    int
	}{
		{0, 8}, {0.5, 8}, {1.0, 4}, {2.0, 2}, {3.0, 1}, {4.5, 1}, {50, 1},
	}
	for _, tc := range cases {
		d := ctl.Decide("ix", ctl.Target(), tc.occupancy)
		if d.Budget != tc.budget {
			t.Fatalf("occupancy %v: budget %d, want %d", tc.occupancy, d.Budget, tc.budget)
		}
		if d.Reject {
			t.Fatalf("occupancy %v: rejected with no quality floor configured", tc.occupancy)
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
	ctl := New(Config{Target: time.Second, MaxBudget: 8, MinQuality: 0.45})
	curve := ctl.Curve("ix")
	for b := 1; b <= 8; b++ {
		seed(curve, 20, b, float64(b)*0.001, float64(b)/8)
	}
	// Quality b/8 crosses 0.45 at b=4: pressure may shed to 4, never
	// below, and only a floor-clamped decision under extreme occupancy
	// rejects.
	d := ctl.Decide("ix", ctl.Target(), 2.0) // wants 8>>2 = 2, floor says 4
	if d.Budget != 4 || !d.FloorHit || d.Reject {
		t.Fatalf("floored decision = %+v, want budget 4, floor hit, no reject", d)
	}
	d = ctl.Decide("ix", ctl.Target(), DefaultRejectOccupancy+0.5)
	if !d.Reject {
		t.Fatalf("decision past reject occupancy = %+v, want reject", d)
	}
	if c := ctl.Counters("ix"); c.FloorHits != 2 || c.Rejected != 1 {
		t.Fatalf("counters = %+v", c)
	}
	// Below saturation the floor never rejects.
	if d := ctl.Decide("ix", ctl.Target(), 0.2); d.Reject {
		t.Fatalf("unsaturated decision rejected: %+v", d)
	}
}

func TestControllerStatsAndOverrides(t *testing.T) {
	ctl := New(Config{Target: 20 * time.Millisecond, MaxBudget: 4, MinQuality: 0.5})
	seed(ctl.Curve("ix"), 10, 2, 0.003, 0.8)
	ctl.Decide("ix", ctl.Target(), 0)
	ctl.RecordOverride("ix")
	st := ctl.Stats("ix")
	if st.TargetMs != 20 || st.MaxBudget != 4 || st.MinQuality != 0.5 {
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
	ctl := New(Config{Target: 10 * time.Millisecond, MaxBudget: 8, MinQuality: 0.3})
	curve := ctl.Curve("ix")
	for b := 1; b <= 8; b++ {
		seed(curve, 20, b, float64(b)*0.002, float64(b)/8)
	}
	if n := testing.AllocsPerRun(200, func() {
		d := ctl.Decide("ix", ctl.Target(), 1.5)
		curve.ObserveCost(d.Budget, 0.004, 0.5)
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
	ctl := New(Config{Target: 5 * time.Millisecond, MaxBudget: 8, MinQuality: 0.25})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			curve := ctl.Curve("ix")
			for i := 0; i < 500; i++ {
				d := ctl.Decide("ix", ctl.Target(), float64(i%3))
				curve.ObserveCost(d.Budget, float64(d.Budget)*0.001, float64(d.Budget)/8)
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
	ctl := New(Config{Target: 12 * time.Millisecond, MaxBudget: 8, HalfLife: 32})
	curve := ctl.Curve("ix")
	// Overload: 10ms per fragment. The controller converges to budget 1
	// and every larger budget is remembered as "too slow".
	cost := func(b int) float64 { return float64(b) * 0.010 }
	var d Decision
	for i := 0; i < 200; i++ {
		d = ctl.Decide("ix", ctl.Target(), 0)
		curve.ObserveCost(d.Budget, cost(d.Budget), float64(d.Budget)/8)
	}
	if d.Budget != 1 {
		t.Fatalf("overloaded budget = %d, want 1", d.Budget)
	}
	// Load drops to 1ms per fragment. Without probing the target loop
	// would never evaluate a larger budget again, so its curve point
	// could never refresh; the periodic probes feed fresh samples one
	// budget above the choice and the controller climbs back.
	cost = func(b int) float64 { return float64(b) * 0.001 }
	sawProbe := false
	for i := 0; i < 4000; i++ {
		d = ctl.Decide("ix", ctl.Target(), 0)
		if d.Probe {
			sawProbe = true
		}
		curve.ObserveCost(d.Budget, cost(d.Budget), float64(d.Budget)/8)
	}
	if !sawProbe {
		t.Fatal("no probe decision among 4000 target-limited decisions")
	}
	if d.Budget <= 1 {
		t.Fatalf("budget still %d after load dropped — stale points never re-learned", d.Budget)
	}
	if c := ctl.Counters("ix"); c.Probes == 0 {
		t.Fatalf("probe counter = %+v, want Probes > 0", c)
	}
}

func TestControllerProbeDisabled(t *testing.T) {
	ctl := New(Config{Target: 12 * time.Millisecond, MaxBudget: 8, HalfLife: 32, ProbeEvery: -1})
	curve := ctl.Curve("ix")
	cost := func(b int) float64 { return float64(b) * 0.010 }
	for i := 0; i < 200; i++ {
		d := ctl.Decide("ix", ctl.Target(), 0)
		curve.ObserveCost(d.Budget, cost(d.Budget), float64(d.Budget)/8)
	}
	cost = func(b int) float64 { return float64(b) * 0.001 }
	for i := 0; i < 4000; i++ {
		d := ctl.Decide("ix", ctl.Target(), 0)
		if d.Probe {
			t.Fatal("probe decision with ProbeEvery < 0")
		}
		curve.ObserveCost(d.Budget, cost(d.Budget), float64(d.Budget)/8)
	}
	if c := ctl.Counters("ix"); c.Probes != 0 {
		t.Fatalf("probe counter = %d with probing disabled", c.Probes)
	}
}
