package ir

import (
	"sort"
	"time"

	"dlsearch/internal/bat"
)

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
	// Frags is the fragmentation granularity the evaluating index
	// should use. 0 keeps whatever fragmentation exists (creating
	// DefaultFragments on a never-fragmented index); a positive value
	// re-fragments an index whose granularity differs.
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
// change the candidate term set. Estimates from shared-nothing nodes
// merge by summing the masses (MergeQuality), giving the cluster-wide
// estimate the coordinator reports.
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

// MergeQuality folds per-node estimates into the cluster-wide
// estimate: idf masses sum (each node accounts for the query mass of
// its own partition), fragment counts report the widest node.
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

// EnsureFragments brings the index's fragmentation in line with the
// plan: a never-fragmented index is partitioned (plan granularity, or
// DefaultFragments), and a positive plan granularity that differs from
// the current one re-fragments. Mutates the index — serving layers
// call it under their write lock before evaluating plans read-only.
func (ix *Index) EnsureFragments(plan EvalPlan) {
	if ix.fragments == nil {
		k := plan.Frags
		if k <= 0 {
			k = DefaultFragments
		}
		ix.Fragmentize(k)
		return
	}
	if plan.Frags > 0 && ix.fragK != plan.Frags {
		ix.Fragmentize(plan.Frags)
	}
}

// PlanReady reports whether the index can evaluate the plan without
// mutating: derived state frozen and fragmentation at the plan's
// granularity. An empty vocabulary is trivially ready — there is
// nothing to fragment, and treating it as unready would force every
// budgeted query on an empty partition through the write lock.
func (ix *Index) PlanReady(plan EvalPlan) bool {
	if ix.Dirty() {
		return false
	}
	if ix.fragments == nil {
		return len(ix.termID) == 0
	}
	return plan.Frags <= 0 || ix.fragK == plan.Frags
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
// Freeze first, and callers of a budgeted plan EnsureFragments first
// (see PlanReady; an unfragmented index evaluates over one implicit
// fragment). An exact plan returns the zero QualityEstimate and feeds
// no cost accounting.
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

// idfMass is a term's share of the query's idf mass: idf = 1/df, and
// nothing for a term the statistics do not know.
func idfMass(df int) float64 {
	if df <= 0 {
		return 0
	}
	return 1.0 / float64(df)
}

// evalPlan admits the query terms the plan allows, scores them in one
// MaxScore pass (scoreLists), and returns the slots to select the top
// n from with the quality accounting. The exact plan admits every
// term, a budget the leading fragments' terms; either way every
// returned slot carries the score the terms give it added in their
// original query order, so a full-budget plan ranks byte-identically
// to the exact one, and both to a scan that weighs every posting.
// Pruning moves no accounting: fragment and cost counters count the
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
			dfs = append(dfs, ix.df[id])
		}
	}
	s.dfs = dfs
	plan := req.Plan
	var est QualityEstimate
	// Cost accounting (cost.go): clock reads only when an observer is
	// installed, per-fragment counters only when fragmented. Both are
	// allocation-free on this path, and the exact plan feeds neither.
	var costStart time.Time
	if !plan.Exact() {
		if ix.costObs != nil {
			costStart = time.Now()
		}
		est = ix.fragmentBudget(s, oids, dfs, plan)
	}
	fe := ix.fragEval.Load()
	postings := 0
	scan := s.scan[:0]
	for i, id := range oids {
		if dfs[i] == 0 {
			continue // weightless term
		}
		if !plan.Exact() {
			f := int(s.frag[i])
			if f >= est.FragsUsed {
				continue // a-priori ignored fragment
			}
			ldf := ix.df[id] // local posting-list length: the physical cost
			postings += ldf
			if fe != nil && f < len(*fe) {
				(*fe)[f].Add(int64(ldf))
			}
		}
		if bound, n := ix.termBound(id, dfs[i], totalDF); n > 0 {
			scan = append(scan, scanList{q: i, id: id, df: dfs[i], postings: n, bound: bound})
		}
	}
	s.scan = scan
	ranked := ix.scoreLists(s, totalDF, req.Candidates, plan.N)
	if !plan.Exact() && ix.costObs != nil {
		ix.costObs(PlanCostSample{
			Frags:    est.FragsTotal,
			Budget:   est.FragsUsed,
			Postings: postings,
			Seconds:  time.Since(costStart).Seconds(),
			Quality:  est.Value(),
		})
	}
	return ranked, est
}

// fragmentBudget places every query term in its fragment (s.frag) and
// decides how many leading fragments a budgeted plan admits: the
// budget, extended fragment by fragment while the quality floor is
// unmet. It returns the quality accounting, FragsUsed the admitted
// prefix.
func (ix *Index) fragmentBudget(s *scorer, oids []bat.OID, dfs []int, plan EvalPlan) QualityEstimate {
	frags := len(ix.fragments)
	if frags == 0 {
		frags = 1 // unfragmented: one implicit fragment holding everything
	}
	budget := min(plan.Budget, frags)
	// Per-term fragment placement, in the scorer's pooled buffer, and
	// the query's total idf mass.
	frag := s.frag[:0]
	var total float64
	for i, id := range oids {
		f := int32(0)
		if ix.fragments != nil {
			f = int32(ix.fragOf[id])
		}
		frag = append(frag, f)
		total += idfMass(dfs[i])
	}
	s.frag = frag
	// Admit the budgeted prefix; then extend fragment by fragment (in
	// idf-descending order, so the cheapest extensions first) until the
	// quality floor is met or fragments run out.
	covered := 0.0
	for i := range oids {
		if int(frag[i]) < budget {
			covered += idfMass(dfs[i])
		}
	}
	if plan.MinQuality > 0 && total > 0 {
		order := make([]int, 0, len(oids))
		for i := range oids {
			if int(frag[i]) >= budget {
				order = append(order, i)
			}
		}
		sort.Slice(order, func(a, b int) bool { return frag[order[a]] < frag[order[b]] })
		// Extend whole fragments at a time: admitting a fragment admits
		// every query term it holds, and the accounting must agree with
		// the admission loop.
		for j := 0; j < len(order) && covered/total < plan.MinQuality-1e-12; {
			b := int(frag[order[j]]) + 1
			for ; j < len(order) && int(frag[order[j]]) < b; j++ {
				covered += idfMass(dfs[order[j]])
			}
			budget = b
		}
	}
	return QualityEstimate{CoveredIDF: covered, TotalIDF: total, FragsUsed: budget, FragsTotal: frags}
}
