// Package slo turns the paper's quality/cost dial into a closed
// control loop: a per-index quality/latency curve learned from live
// cost samples (budget → observed latency quantiles + achieved
// quality, exponentially decayed so the curve tracks the corpus and
// the load), and a budget controller that picks each query's fragment
// budget to meet a target latency SLO, degrading quality — never
// availability — under pressure.
package slo

import (
	"math"
	"sync"

	"dlsearch/internal/obs"
)

// Curve is the learned cost model of one index: for every fragment
// budget b in 1..MaxBudget, a decayed latency distribution and a
// decayed mean of the achieved quality. The coordinator feeds it one
// observation per budgeted search — the whole search's latency, the
// same span the Controller's predictions are scored against — and the
// Controller reads it; both paths are allocation-free.
type Curve struct {
	points []*point // index b-1
}

type point struct {
	lat *obs.DecayedHist // seconds

	mu      sync.Mutex
	qsum    float64 // decayed quality sum
	qweight float64
	qalpha  float64
}

// NewCurve returns an empty curve over budgets 1..maxBudget with the
// given observation half-life (< 1 selects obs.DefaultCurveHalfLife).
func NewCurve(maxBudget, halfLife int) *Curve {
	if maxBudget < 1 {
		maxBudget = 1
	}
	if halfLife < 1 {
		halfLife = obs.DefaultCurveHalfLife
	}
	alpha := math.Exp(math.Ln2 / -float64(halfLife))
	c := &Curve{points: make([]*point, maxBudget)}
	for i := range c.points {
		c.points[i] = &point{
			lat:    obs.NewDecayedHist(curveLatencyBounds(), halfLife),
			qalpha: alpha,
		}
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
// and achieved quality at the given fragment budget (the fragments
// admitted, after any quality-floor extension). Budgets outside
// 1..MaxBudget clamp to the nearest modelled point (a request may ask
// for more fragments than the curve models). Allocation-free; safe for
// concurrent use.
func (c *Curve) ObserveCost(budget int, seconds, quality float64) {
	if c == nil || len(c.points) == 0 {
		return
	}
	if budget < 1 {
		budget = 1
	}
	if budget > len(c.points) {
		budget = len(c.points)
	}
	p := c.points[budget-1]
	p.lat.Observe(seconds)
	p.mu.Lock()
	p.qsum = p.qsum*p.qalpha + quality
	p.qweight = p.qweight*p.qalpha + 1
	p.mu.Unlock()
}

// Latency reports the decayed q-quantile of the observed latency at
// the budget, plus the decayed observation weight backing it (0 weight
// = no recent evidence; the quantile is then meaningless).
func (c *Curve) Latency(budget int, q float64) (seconds, weight float64) {
	if c == nil || budget < 1 || budget > len(c.points) {
		return 0, 0
	}
	p := c.points[budget-1]
	return p.lat.Quantile(q), p.lat.Weight()
}

// Quality reports the decayed mean achieved quality at the budget and
// the weight backing it.
func (c *Curve) Quality(budget int) (quality, weight float64) {
	if c == nil || budget < 1 || budget > len(c.points) {
		return 0, 0
	}
	p := c.points[budget-1]
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.qweight == 0 {
		return 0, 0
	}
	return p.qsum / p.qweight, p.qweight
}

// Point is one budget's snapshot of the curve, as reported in /stats.
type Point struct {
	Budget  int     `json:"budget"`
	Weight  float64 `json:"weight"`  // decayed observation count
	P50Ms   float64 `json:"p50_ms"`  // decayed median latency
	P95Ms   float64 `json:"p95_ms"`  // decayed tail latency
	Quality float64 `json:"quality"` // decayed mean achieved quality
}

// Snapshot returns the observed points of the curve (budgets with no
// recent evidence are omitted) in ascending budget order.
func (c *Curve) Snapshot() []Point {
	if c == nil {
		return nil
	}
	out := make([]Point, 0, len(c.points))
	for i, p := range c.points {
		w := p.lat.Weight()
		if w < 1e-9 {
			continue
		}
		q, _ := c.Quality(i + 1)
		out = append(out, Point{
			Budget:  i + 1,
			Weight:  w,
			P50Ms:   p.lat.Quantile(0.50) * 1e3,
			P95Ms:   p.lat.Quantile(0.95) * 1e3,
			Quality: q,
		})
	}
	return out
}
