package ir

import (
	"fmt"
	"testing"

	"dlsearch/internal/bat"
)

// filterResults keeps the results whose document is a candidate (all
// of them for a nil set), cut to n.
func filterResults(res []Result, candidates map[bat.OID]bool, n int) []Result {
	var kept []Result
	for _, r := range res {
		if len(kept) < n && (candidates == nil || candidates[r.Doc]) {
			kept = append(kept, r)
		}
	}
	return kept
}

// TestEvaluateRequestSpace walks the whole request space — {text |
// resolved} × {local | global statistics} × {exact | budget k-of-8 |
// min-quality floor} × {unrestricted | restricted} — and holds every
// cell to the paper's contract: at full coverage the ranking is
// byte-identical to the naive reference (filtered to the candidates),
// below it the quality estimate is monotone in the budget, and the two
// a-priori optimisations compose — a restricted, budgeted evaluation
// equals the budgeted one filtered afterwards, scores and estimate
// included.
func TestEvaluateRequestSpace(t *testing.T) {
	const frags, n = 8, 10
	ix := planCorpus(400, 7)
	ix.Freeze()
	global := ix.StatsLocal()
	candidates := map[bat.OID]bool{}
	for d := bat.OID(3); d <= 400; d += 7 {
		candidates[d] = true
	}
	for _, q := range []string{"seles champion match ball", "melbourne trophy volley court", "winner", "nope"} {
		stems, oids := ix.ResolveQuery(q)
		naive := ix.TopNNaive(q, ix.DocCount())
		for _, resolved := range []bool{false, true} {
			for _, stats := range []*Stats{nil, &global} {
				for _, cands := range []map[bat.OID]bool{nil, candidates} {
					request := func(plan EvalPlan) Request {
						req := Request{Query: q, Plan: plan, Stats: stats, Candidates: cands}
						if resolved {
							req.Query, req.Stems, req.Terms = "", stems, oids
						}
						return req
					}
					cell := fmt.Sprintf("%q resolved=%v global=%v restricted=%v", q, resolved, stats != nil, cands != nil)
					want := filterResults(naive, cands, n)

					exact, est := ix.Evaluate(request(EvalPlan{N: n}))
					sameResults(t, cell+" exact", exact, want)
					if est != (QualityEstimate{}) {
						t.Fatalf("%s: exact plan estimate = %+v, want zero", cell, est)
					}

					prev := 0.0
					for k := 1; k <= frags; k++ {
						got, est := ix.Evaluate(request(EvalPlan{N: n, Budget: k}))
						if v := est.Value(); v < prev-1e-12 {
							t.Fatalf("%s: quality %v after %v at budget %d", cell, v, prev, k)
						} else {
							prev = v
						}
						// Budgeted-then-filtered: the same plan over the
						// whole collection, restricted afterwards.
						all := request(EvalPlan{N: ix.DocCount(), Budget: k})
						all.Candidates = nil
						ranked, allEst := ix.Evaluate(all)
						sameResults(t, fmt.Sprintf("%s budget %d", cell, k), got, filterResults(ranked, cands, n))
						if est != allEst {
							t.Fatalf("%s budget %d: estimate %+v, unrestricted %+v", cell, k, est, allEst)
						}
						if k == frags {
							sameResults(t, cell+" full budget", got, want)
						}
					}
					if prev != 1.0 {
						t.Fatalf("%s: full budget quality = %v", cell, prev)
					}

					for _, floor := range []float64{0.5, 0.9, 1.0} {
						got, est := ix.Evaluate(request(EvalPlan{N: n, Budget: 1, MinQuality: floor}))
						if est.Value() < floor-1e-12 {
							t.Fatalf("%s: floor %v not honoured: %+v", cell, floor, est)
						}
						if floor == 1.0 {
							sameResults(t, cell+" floor 1", got, want)
						}
					}
				}
			}
		}
	}
}

// TestEvaluateStaleGlobalStats: a term the node knows but the shipped
// global statistics lack — a document streamed in after the
// coordinator cached them — contributes no score, so it must carry no
// mass in the quality estimate either, and the budgeted ranking equals
// the exact one over the same statistics.
func TestEvaluateStaleGlobalStats(t *testing.T) {
	ix := planCorpus(200, 5)
	ix.Freeze()
	global := ix.StatsLocal() // cached before the add below
	ix.Add(9001, "d9001", "xylophone champion serve")
	ix.Freeze()
	if _, ok := ix.TermOID(Stem("xylophone")); !ok {
		t.Fatal("index does not know the streamed-in term")
	}
	without := Request{Query: "champion serve", Plan: EvalPlan{N: 10, Budget: 4}, Stats: &global}
	with := without
	with.Query = "xylophone champion serve"
	_, wantEst := ix.Evaluate(without)
	got, gotEst := ix.Evaluate(with)
	if gotEst != wantEst {
		t.Fatalf("estimate %+v carries mass for a term the statistics lack, want %+v", gotEst, wantEst)
	}
	exact := with
	exact.Plan = EvalPlan{N: 10}
	want, _ := ix.Evaluate(exact)
	sameResults(t, "stale stats", got, want)
	// A lossy budget must not count the weightless term as covered.
	with.Plan.Budget, without.Plan.Budget = 1, 1
	_, wantEst = ix.Evaluate(without)
	if _, gotEst = ix.Evaluate(with); gotEst != wantEst {
		t.Fatalf("budget 1 estimate %+v, want %+v", gotEst, wantEst)
	}
}
