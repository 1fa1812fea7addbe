// Package slo turns the paper's quality/cost dial into a closed
// control loop: a per-index latency curve learned from live cost
// samples (budget → observed latency quantiles, exponentially decayed
// so the curve tracks the corpus and the load), and a budget
// controller that picks each query's fragment budget to meet a target
// latency SLO, degrading quality — never availability — under
// pressure. Quality is not learned: the cut-off computes it a priori,
// per query, and the caller hands Decide the query's floor budget.
package slo

import (
	"math"

	"dlsearch/internal/obs"
)

// Curve is the learned cost model of one index: for every fragment
// budget b in 1..MaxBudget, a decayed latency distribution with an
// obs.DefaultCurveHalfLife half-life. The coordinator feeds it one
// observation per budgeted search — the whole search's latency, the
// same span the Controller's predictions are scored against — and the
// Controller reads it; both paths are allocation-free.
type Curve struct {
	points []*obs.DecayedHist // index b-1, seconds
}

// NewCurve returns an empty curve over budgets 1..maxBudget.
func NewCurve(maxBudget int) *Curve {
	if maxBudget < 1 {
		maxBudget = 1
	}
	c := &Curve{points: make([]*obs.DecayedHist, maxBudget)}
	for i := range c.points {
		c.points[i] = obs.NewDecayedHist(curveLatencyBounds(), obs.DefaultCurveHalfLife)
	}
	return c
}

// curveLatencyBounds returns log-spaced bucket edges, three per
// octave, 100µs to ~105s. The controller compares bucketed p95
// estimates against the SLO, so the curve needs finer resolution than
// the metrics histograms' doubling buckets: at three buckets per
// octave the estimate stays within ~26% of the true latency.
func curveLatencyBounds() []float64 {
	bounds := make([]float64, 61)
	v, r := 1e-4, math.Pow(2, 1.0/3)
	for i := range bounds {
		bounds[i] = v
		v *= r
	}
	return bounds
}

// MaxBudget returns the largest budget the curve models.
func (c *Curve) MaxBudget() int { return len(c.points) }

// ObserveCost records one budgeted search: it took seconds end to end
// at the given fragment budget (the fragments admitted, after any
// quality-floor extension). Budgets outside 1..MaxBudget clamp to the
// nearest modelled point (a request may ask for more fragments than
// the curve models). Allocation-free; safe for concurrent use.
func (c *Curve) ObserveCost(budget int, seconds float64) {
	if c == nil || len(c.points) == 0 {
		return
	}
	budget = min(max(budget, 1), len(c.points))
	c.points[budget-1].Observe(seconds)
}

// Latency reports the decayed q-quantile of the observed latency at
// the budget, plus the decayed observation weight backing it (0 weight
// = no recent evidence; the quantile is then meaningless).
func (c *Curve) Latency(budget int, q float64) (seconds, weight float64) {
	if c == nil || budget < 1 || budget > len(c.points) {
		return 0, 0
	}
	p := c.points[budget-1]
	return p.Quantile(q), p.Weight()
}

// Point is one budget's snapshot of the curve, as reported in /stats.
type Point struct {
	Budget int     `json:"budget"`
	Weight float64 `json:"weight"` // decayed observation count
	P50Ms  float64 `json:"p50_ms"` // decayed median latency
	P95Ms  float64 `json:"p95_ms"` // decayed tail latency
}

// Snapshot returns the observed points of the curve (budgets with no
// recent evidence are omitted) in ascending budget order.
func (c *Curve) Snapshot() []Point {
	if c == nil {
		return nil
	}
	out := make([]Point, 0, len(c.points))
	for i, p := range c.points {
		w := p.Weight()
		if w < 1e-9 {
			continue
		}
		out = append(out, Point{
			Budget: i + 1,
			Weight: w,
			P50Ms:  p.Quantile(0.50) * 1e3,
			P95Ms:  p.Quantile(0.95) * 1e3,
		})
	}
	return out
}
