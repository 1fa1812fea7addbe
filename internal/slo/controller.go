package slo

import (
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterises the budget controller.
type Config struct {
	// Target is the latency SLO: the controller picks the largest
	// budget whose predicted p95 fits it. Per-request overrides
	// replace it per decision.
	Target time.Duration
	// MaxBudget is the fragment budget of a full-quality evaluation
	// (the cluster's fragmentation granularity).
	MaxBudget int
}

// DefaultRejectOccupancy: with a full semaphore and twice the limit
// again waiting, quality shedding has been given ~3x the capacity's
// worth of slack — past that, a floor-clamped query is rejected.
const DefaultRejectOccupancy = 3.0

// DefaultMinWeight is the evidence threshold for trusting a curve
// point outright; thinner points extrapolate from the nearest trusted
// budget.
const DefaultMinWeight = 4.0

// MaxShedLevel caps admission-pressure budget halving: past 5 levels
// the budget is 1/32 of base, i.e. already 1 for any realistic
// fragmentation.
const MaxShedLevel = 5

// DefaultProbeEvery: one decision in 32 explores one budget above the
// controller's choice (see Decide) — frequent enough to re-learn a
// recovered budget within a curve half-life, rare enough that the p95
// impact of the slower probes stays in the noise.
const DefaultProbeEvery = 32

// Decision is one controller verdict, recorded in the query trace and
// the slow-query log.
type Decision struct {
	// Budget is the fragment budget to evaluate with.
	Budget int
	// Predicted is the p95 latency the curve predicts for that budget
	// (0 when the curve has no evidence — the optimistic default).
	Predicted time.Duration
	// Confidence in [0, 1]: how much decayed evidence backs the
	// prediction (0 = none, extrapolated predictions are halved).
	Confidence float64
	// ShedLevel is the admission-pressure degradation applied: the
	// base budget was halved this many times.
	ShedLevel int
	// Degraded reports whether the chosen budget is below full
	// quality (MaxBudget).
	Degraded bool
	// FloorHit reports whether the query's floor budget clamped the
	// budget upward — the controller wanted to degrade further and
	// could not.
	FloorHit bool
	// Reject reports whether the query should be refused (503):
	// quality is already at the floor and occupancy is past
	// DefaultRejectOccupancy.
	Reject bool
	// Probe reports that this decision deliberately explored one
	// budget above the target-fitting choice to refresh the curve's
	// evidence there (DefaultProbeEvery).
	Probe bool
}

// Controller picks per-query fragment budgets from learned latency
// curves. One controller serves all indexes of a coordinator;
// per-index state (curve + decision counters) is created on first
// use. Decide and Curve.ObserveCost are allocation-free.
type Controller struct {
	cfg Config

	mu sync.RWMutex
	ix map[string]*indexState
}

type indexState struct {
	curve *Curve

	decisions atomic.Uint64
	degraded  atomic.Uint64
	overrides atomic.Uint64
	floorHits atomic.Uint64
	rejected  atomic.Uint64
	probes    atomic.Uint64
	probeTick atomic.Uint64
	shedLevel atomic.Int64
}

// New returns a controller over the given config; a MaxBudget below
// 1 selects 1.
func New(cfg Config) *Controller {
	if cfg.MaxBudget < 1 {
		cfg.MaxBudget = 1
	}
	return &Controller{cfg: cfg, ix: make(map[string]*indexState)}
}

// Target returns the configured latency SLO.
func (c *Controller) Target() time.Duration { return c.cfg.Target }

// MaxBudget returns the full-quality fragment budget.
func (c *Controller) MaxBudget() int { return c.cfg.MaxBudget }

func (c *Controller) state(index string) *indexState {
	c.mu.RLock()
	st := c.ix[index]
	c.mu.RUnlock()
	if st != nil {
		return st
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if st = c.ix[index]; st == nil {
		st = &indexState{curve: NewCurve(c.cfg.MaxBudget)}
		c.ix[index] = st
	}
	return st
}

// Curve returns the index's latency curve, creating it on
// first use. The coordinator feeds it every budgeted search of the
// index.
func (c *Controller) Curve(index string) *Curve { return c.state(index).curve }

// predict returns the p95 latency the curve supports at the budget,
// with a confidence in [0, 1]. Budgets without enough decayed
// evidence extrapolate linearly from the nearest trusted budget
// (latency of the cut-off scales with admitted postings, which scale
// roughly linearly with leading fragments of balanced tuple counts)
// at half confidence; with no trusted point at all it returns (0, 0):
// unknown, treated optimistically.
func (c *Controller) predict(st *indexState, budget int) (time.Duration, float64) {
	lat, w := st.curve.Latency(budget, 0.95)
	if w >= DefaultMinWeight {
		return time.Duration(lat * float64(time.Second)), w / (w + DefaultMinWeight)
	}
	// Nearest trusted budget, preferring the closer and then the lower
	// (interpolating down is safer than up: extrapolated latency for a
	// smaller budget overestimates, which degrades early — the safe
	// direction under an SLO).
	best, bestLat, bestW := 0, 0.0, 0.0
	for b := 1; b <= st.curve.MaxBudget(); b++ {
		l, bw := st.curve.Latency(b, 0.95)
		if bw < DefaultMinWeight {
			continue
		}
		if best == 0 || abs(b-budget) < abs(best-budget) {
			best, bestLat, bestW = b, l, bw
		}
	}
	if best == 0 {
		return 0, 0
	}
	scaled := bestLat * float64(budget) / float64(best)
	return time.Duration(scaled * float64(time.Second)), bestW / (bestW + DefaultMinWeight) / 2
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Decide picks the fragment budget for one query against the index:
// the largest budget whose predicted p95 fits the target, halved once
// per unit of admission-pressure occupancy past 1.0, clamped upward
// to the query's floor budget — and rejected only when the floor
// leaves no quality left to shed and occupancy is past
// DefaultRejectOccupancy. target <= 0 means "no latency bound" (only
// pressure shedding applies). occupancy is (in-flight + waiting) /
// concurrency-limit. floor is the smallest budget whose a-priori
// quality meets the query's quality floor (the cut-off's FragsUsed at
// budget 1; 1 when the query has no floor). Allocation-free.
func (c *Controller) Decide(index string, target time.Duration, occupancy float64, floor int) Decision {
	st := c.state(index)
	maxB := c.cfg.MaxBudget

	// Base budget: largest that fits the target. Unknown predictions
	// are optimistic (an empty curve serves full quality and learns).
	base := maxB
	var pred time.Duration
	var conf float64
	if target > 0 {
		base = 1
		for b := maxB; b >= 1; b-- {
			p, cf := c.predict(st, b)
			if p <= target || b == 1 {
				base, pred, conf = b, p, cf
				break
			}
		}
	}

	// Admission pressure: halve the budget once per unit of occupancy
	// past saturation. Shedding quality, not queries.
	shed := 0
	if occupancy >= 1 {
		shed = int(occupancy)
		if shed > MaxShedLevel {
			shed = MaxShedLevel
		}
	}
	budget := base >> shed
	if budget < 1 {
		budget = 1
	}

	// Quality floor: never choose a budget below the query's floor
	// budget; 503 only when the floor leaves nothing to shed.
	floorHit := floor > budget
	if floorHit {
		budget = floor
	}
	reject := floorHit && occupancy >= DefaultRejectOccupancy

	// Stale-point re-probing: the target loop only ever evaluates
	// budgets the curve predicts to fit, so a budget once learned as
	// "too slow" would keep its decaying evidence forever. Every
	// DefaultProbeEvery-th unshedded, target-limited decision explores
	// one budget above the choice — its cost sample refreshes the
	// curve, and if load has dropped the larger budget wins the target
	// loop again. Probing never overrides shedding or a rejection.
	probe := false
	if target > 0 && shed == 0 && !reject && budget < maxB {
		if st.probeTick.Add(1)%DefaultProbeEvery == 0 {
			budget++
			probe = true
			st.probes.Add(1)
		}
	}

	if budget != base || pred == 0 {
		pred, conf = c.predict(st, budget)
	}

	st.decisions.Add(1)
	degraded := budget < maxB
	if degraded {
		st.degraded.Add(1)
	}
	if floorHit {
		st.floorHits.Add(1)
	}
	if reject {
		st.rejected.Add(1)
	}
	st.shedLevel.Store(int64(shed))

	return Decision{
		Budget:     budget,
		Predicted:  pred,
		Confidence: conf,
		ShedLevel:  shed,
		Degraded:   degraded,
		FloorHit:   floorHit,
		Reject:     reject,
		Probe:      probe,
	}
}

// RecordOverride counts a per-request slo_ms override against the
// index.
func (c *Controller) RecordOverride(index string) { c.state(index).overrides.Add(1) }

// Counters is a snapshot of one index's decision counters.
type Counters struct {
	Decisions uint64
	Degraded  uint64
	Overrides uint64
	FloorHits uint64
	Rejected  uint64
	Probes    uint64
	ShedLevel int
}

// Counters returns the index's decision counters (zero value for an
// index never decided on). Allocation-free: safe for /metrics
// CounterFunc closures.
func (c *Controller) Counters(index string) Counters {
	c.mu.RLock()
	st := c.ix[index]
	c.mu.RUnlock()
	if st == nil {
		return Counters{}
	}
	return Counters{
		Decisions: st.decisions.Load(),
		Degraded:  st.degraded.Load(),
		Overrides: st.overrides.Load(),
		FloorHits: st.floorHits.Load(),
		Rejected:  st.rejected.Load(),
		Probes:    st.probes.Load(),
		ShedLevel: int(st.shedLevel.Load()),
	}
}

// IndexStats is the `slo` block /stats reports per index: the
// controller's configuration, the coordinator's default quality floor
// and the learned latency curve. The decision counters are the dl_slo_*
// series of the metrics registry (Counters).
type IndexStats struct {
	TargetMs   float64 `json:"target_ms"`
	MinQuality float64 `json:"min_quality,omitempty"`
	MaxBudget  int     `json:"max_budget"`
	Curve      []Point `json:"curve,omitempty"`
}

// Stats returns the index's /stats block: configuration plus the
// observed latency curve. MinQuality is the caller's to fill: the
// floor is the coordinator's, not the controller's.
func (c *Controller) Stats(index string) IndexStats {
	s := IndexStats{
		TargetMs:  float64(c.cfg.Target) / float64(time.Millisecond),
		MaxBudget: c.cfg.MaxBudget,
	}
	c.mu.RLock()
	st := c.ix[index]
	c.mu.RUnlock()
	if st != nil {
		s.Curve = st.curve.Snapshot()
	}
	return s
}
