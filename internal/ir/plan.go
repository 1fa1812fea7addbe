package ir

import "dlsearch/internal/bat"

// DefaultFragments is the fragmentation granularity an EvalPlan
// selects when it does not name one: the sweep width of the paper's
// E10 experiment, fine enough that trailing-fragment cut-offs have
// room to trade quality for cost.
const DefaultFragments = 8

// EvalPlan describes how a top-N query is to be evaluated: the a-priori
// cost/quality trade-off of [BHC+01] as an execution strategy the whole
// retrieval pipeline understands, instead of an ir-only experiment.
//
// The zero value (any N) is the exact plan: every fragment of every
// query term is evaluated and the ranking equals TopN. A positive
// Budget instructs the evaluator to touch only the leading (highest
// idf, cheapest) fragments and report the estimated quality; MinQuality
// re-admits trailing fragments until the estimate reaches the floor, so
// a caller can bound quality loss instead of cost.
type EvalPlan struct {
	// N is the ranking size.
	N int
	// Frags is the fragmentation granularity: how many fragments of
	// whole df classes the cut-off table splits the vocabulary into
	// (clamped to the number of classes). 0 selects DefaultFragments.
	// Any value costs nothing beyond cutting a table of at most that
	// many entries (see Cutoff).
	Frags int
	// Budget is the number of leading idf-descending fragments to
	// evaluate. <= 0 means all fragments: the exact plan.
	Budget int
	// MinQuality is the quality floor in (0, 1]: after applying the
	// Budget, evaluation extends fragment by fragment until the
	// estimated quality reaches the floor (or fragments run out).
	// 0 disables the floor.
	MinQuality float64
}

// Exact reports whether the plan evaluates every fragment, making the
// result identical to the unbudgeted TopN.
func (p EvalPlan) Exact() bool { return p.Budget <= 0 }

// QualityEstimate is the structured quality accounting of a budgeted
// evaluation: how much of the query's idf mass the evaluated fragments
// covered. Covered == Total (or Total == 0) proves the cut-off did not
// change the candidate term set. A cluster reports the estimate its
// coordinator's cut-off made under global df (Cutoff); MergeQuality
// folds the estimates of separate rankings, such as the contains
// predicates of one conceptual query.
type QualityEstimate struct {
	CoveredIDF float64 // idf mass of the evaluated query terms
	TotalIDF   float64 // idf mass of all query terms known to the index
	FragsUsed  int     // leading fragments evaluated (after any floor extension)
	FragsTotal int     // fragments the index is partitioned into
}

// Value returns the scalar quality in [0, 1]: the covered fraction of
// the query's idf mass. An estimate with no mass (empty query, or the
// exact plan's shortcut) is exact by definition and reports 1.
func (q QualityEstimate) Value() float64 {
	if q.TotalIDF <= 0 {
		return 1
	}
	v := q.CoveredIDF / q.TotalIDF
	if v > 1 {
		return 1
	}
	return v
}

// Exact reports whether the evaluation provably covered the whole
// candidate term set.
func (q QualityEstimate) Exact() bool { return q.Value() >= 1 }

// MergeQuality folds the estimates of separate rankings into one:
// idf masses sum, fragment counts report the widest.
func MergeQuality(ests ...QualityEstimate) QualityEstimate {
	var m QualityEstimate
	for _, e := range ests {
		m.CoveredIDF += e.CoveredIDF
		m.TotalIDF += e.TotalIDF
		if e.FragsUsed > m.FragsUsed {
			m.FragsUsed = e.FragsUsed
		}
		if e.FragsTotal > m.FragsTotal {
			m.FragsTotal = e.FragsTotal
		}
	}
	return m
}

// Request is one top-N evaluation: what to rank (query text, or the
// pre-resolved terms a query-side cache holds), how (the plan), with
// which statistics (local, or the global ones a cluster ships) and
// over which documents (everything, or an a-priori candidate set —
// the paper's "only articles by a certain author"). The two a-priori
// optimisations are independent, so any combination is expressible.
type Request struct {
	// Query is the query text, resolved through the tokenize/stop/stem
	// pipeline unless Terms already holds its resolution.
	Query string
	// Stems and Terms are the parallel slices ResolveQuery returns, for
	// callers that cache resolutions; the oids must belong to the
	// evaluating index. Stems key the global DF lookups and may be nil
	// without Stats.
	Stems []string
	Terms []bat.OID
	// Plan carries the ranking size and the fragment budget; the zero
	// budget is the exact plan.
	Plan EvalPlan
	// Stats, when non-nil, replaces the index's local statistics: the
	// distributed read path, where every node weighs a term identically.
	Stats *Stats
	// Candidates, when non-nil, restricts the ranking to these documents.
	Candidates map[bat.OID]bool
}

// Evaluate ranks the request against this index: the one evaluation
// entry point. It never mutates the index, so any number of goroutines
// may call it concurrently — callers that need fresh derived state
// Freeze first. A budgeted plan cuts against the table of the index's
// own df histogram, cached per freeze epoch (see cutFor). An exact
// plan returns the zero QualityEstimate and feeds no fragment
// accounting.
func (ix *Index) Evaluate(req Request) ([]Result, QualityEstimate) {
	s := ix.getScorer()
	defer ix.putScorer(s)
	stems, oids := req.Stems, req.Terms
	if oids == nil {
		s.qstems, s.qterms = ix.resolveInto(s.qstems[:0], s.qterms[:0], req.Query)
		stems, oids = s.qstems, s.qterms
	}
	ranked, est := ix.evalPlan(s, stems, oids, &req)
	return s.selectTopN(ix.docIDs, ranked, req.Plan.N), est
}

// evalPlan admits the query terms the plan allows, scores them in one
// MaxScore pass (scoreLists), and returns the slots to select the top
// n from with the quality accounting. The exact plan admits every
// term, a budget the leading fragments' terms; either way every
// returned slot carries the score the terms give it added in their
// original query order, so a full-budget plan ranks byte-identically
// to the exact one, and both to a scan that weighs every posting.
// Pruning moves no accounting: the fragment counters count the
// admitted postings, scored or skipped.
func (ix *Index) evalPlan(s *scorer, stems []string, oids []bat.OID, req *Request) ([]int32, QualityEstimate) {
	// The statistics each term is weighed with. Under global statistics
	// a term the shipped DF lacks (a document streamed in after the
	// coordinator cached them) weighs nothing: it is not admitted, and
	// the accounting skips it with it.
	totalDF := ix.totalDF
	dfs := s.dfs[:0]
	if g := req.Stats; g != nil {
		totalDF = g.TotalDF
		for _, stem := range stems[:len(oids)] {
			dfs = append(dfs, g.DF[stem])
		}
	} else {
		for _, id := range oids {
			dfs = append(dfs, ix.postingLen(id))
		}
	}
	s.dfs = dfs
	plan := req.Plan
	var est QualityEstimate
	var cut *cutCache
	if !plan.Exact() {
		cut = ix.cutFor(plan.Frags)
		s.frag, est = Cutoff(s.frag[:0], cut.table, dfs, plan)
	}
	scan := s.scan[:0]
	for i, id := range oids {
		if dfs[i] == 0 {
			continue // weightless term
		}
		if cut != nil {
			f := int(s.frag[i])
			if f >= est.FragsUsed {
				continue // a-priori ignored fragment
			}
			// The local posting-list length: the physical cost.
			cut.postings[f].Add(int64(ix.postingLen(id)))
		}
		if bound, n := ix.termBound(id, dfs[i], totalDF); n > 0 {
			scan = append(scan, scanList{q: i, id: id, df: dfs[i], postings: n, bound: bound})
		}
	}
	s.scan = scan
	ranked := ix.scoreLists(s, totalDF, req.Candidates, plan.N)
	return ranked, est
}
