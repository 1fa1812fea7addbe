package obs

import (
	"math"
	"sync"
)

// DecayedHist is a bucketed histogram whose counts decay exponentially
// per observation: every Observe first multiplies all bucket counts by
// a constant alpha < 1, then adds the new sample with weight 1. The
// histogram therefore tracks the *recent* distribution — after
// halfLife further observations an old sample contributes half as much
// as a fresh one — which is what a control loop wants from a live
// system: the latency curve follows the corpus and the load,
// instead of averaging over the process's whole lifetime.
//
// Unlike Histogram it is mutex-guarded rather than lock-free: it lives
// on per-request paths (one observation per budgeted evaluation), not
// the per-document scoring path, and decaying float counts atomically
// would need a CAS loop per bucket. Observe performs no allocations.
// A nil *DecayedHist is a valid no-op.
type DecayedHist struct {
	mu     sync.Mutex
	bounds []float64
	counts []float64 // len(bounds)+1, last bucket is +Inf
	weight float64   // decayed total count
	sum    float64   // decayed sum of observed values
	alpha  float64   // per-observation decay factor in (0, 1)
}

// DefaultCurveHalfLife is the observation half-life the serving layer
// uses for its latency curves: recent enough to track load
// shifts within a few hundred queries, long enough that one outlier
// cannot swing a quantile.
const DefaultCurveHalfLife = 256

// NewDecayedHist returns a decayed histogram over the given strictly
// ascending bucket bounds. halfLife is the number of observations
// after which a sample's weight has decayed to one half; values < 1
// select DefaultCurveHalfLife.
func NewDecayedHist(bounds []float64, halfLife int) *DecayedHist {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: decayed histogram bounds must be strictly ascending")
		}
	}
	if halfLife < 1 {
		halfLife = DefaultCurveHalfLife
	}
	return &DecayedHist{
		bounds: bounds,
		counts: make([]float64, len(bounds)+1),
		alpha:  math.Exp(math.Ln2 / -float64(halfLife)),
	}
}

// Observe decays the recorded distribution one step and records v with
// weight 1. Allocation-free.
func (h *DecayedHist) Observe(v float64) {
	if h == nil {
		return
	}
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.mu.Lock()
	for i := range h.counts {
		h.counts[i] *= h.alpha
	}
	h.counts[lo]++
	h.weight = h.weight*h.alpha + 1
	h.sum = h.sum*h.alpha + v
	h.mu.Unlock()
}

// Weight reports the decayed observation count: the effective number
// of recent samples backing the distribution (at most ~halfLife/ln 2).
// It is the curve's confidence signal — a bucket with weight below ~1
// has essentially no recent evidence.
func (h *DecayedHist) Weight() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.weight
}

// Mean reports the decayed average observed value (0 when empty).
func (h *DecayedHist) Mean() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.weight == 0 {
		return 0
	}
	return h.sum / h.weight
}

// Quantile estimates the q-quantile of the decayed distribution by
// linear interpolation inside the target bucket, exactly like
// HistSnapshot.Quantile (0 on an empty histogram, the highest finite
// edge for the +Inf bucket).
func (h *DecayedHist) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.weight <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * h.weight
	cum := 0.0
	for i, c := range h.counts {
		prev := cum
		cum += c
		if cum >= rank {
			if i == len(h.bounds) {
				if len(h.bounds) == 0 {
					return 0
				}
				return h.bounds[len(h.bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			upper := h.bounds[i]
			if c == 0 {
				return upper
			}
			return lower + (upper-lower)*(rank-prev)/c
		}
	}
	return h.bounds[len(h.bounds)-1]
}
