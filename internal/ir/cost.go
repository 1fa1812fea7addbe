package ir

// Cost accounting for budgeted evaluation: the raw signal behind
// SLO-driven adaptive serving. Each budgeted evaluation reports one
// PlanCostSample (how many fragments were admitted, how many postings
// that cost, how long scoring took, what quality came out) through a
// nil-safe observer hook, and per-fragment admitted-postings counters
// expose where the evaluation cost concentrates. Everything here is
// free when unused: no observer, no clock read; no fragmentation, no
// counters. Both count what the plan admitted, before MaxScore decides
// which postings to weigh; PostingCounts reports that split.

// PlanCostSample is the cost accounting of one budgeted evaluation.
type PlanCostSample struct {
	// Frags is the fragmentation granularity evaluated against.
	Frags int
	// Budget is the number of leading fragments actually admitted,
	// after any MinQuality floor extension — the effective budget the
	// latency below paid for.
	Budget int
	// Postings is the total local posting-list tuples of the admitted
	// query terms: the physical cost driver of the evaluation.
	Postings int
	// Seconds is the wall time of the plan evaluation (mass
	// accounting + scoring), excluding top-N selection.
	Seconds float64
	// Quality is the achieved quality estimate in [0, 1].
	Quality float64
}

// SetCostObserver installs fn as the index's plan-cost hook: every
// budgeted evaluation calls it once with its cost sample. A nil fn
// disables the hook (the default) and removes all overhead, including
// the clock reads. Install before serving begins — the field is read
// without synchronisation on the query path, the same contract as the
// serving layer's other metric hooks. fn must be cheap and must not
// call back into the index.
func (ix *Index) SetCostObserver(fn func(PlanCostSample)) { ix.costObs = fn }

// FragmentPostings returns a snapshot of the per-fragment
// admitted-postings counters: element f is the cumulative number of
// posting tuples budgeted evaluations admitted from fragment f since
// the current fragmentation was built. Nil before the first
// Fragmentize. Safe to call concurrently with evaluation and
// re-fragmentation (counters reset when Fragmentize rebuilds the
// fragmentation).
func (ix *Index) FragmentPostings() []int64 {
	fe := ix.fragEval.Load()
	if fe == nil {
		return nil
	}
	out := make([]int64, len(*fe))
	for i := range *fe {
		out[i] = (*fe)[i].Load()
	}
	return out
}

// PostingCounts returns the cumulative number of admitted postings
// evaluations weighed (scored) and passed over unweighed (skipped):
// those MaxScore proved unable to reach the top n, and those outside a
// request's candidate set. The two sum to the admitted postings of
// every evaluation, exact and budgeted alike. Safe to call
// concurrently with evaluation.
func (ix *Index) PostingCounts() (scored, skipped int64) {
	return ix.postingsScored.Load(), ix.postingsSkipped.Load()
}
