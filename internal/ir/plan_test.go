package ir

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dlsearch/internal/bat"
)

// planCorpus builds a skewed-vocabulary corpus (the distribution the
// idf fragmentation exploits) directly in an index.
func planCorpus(n int, seed int64) *Index {
	common := []string{"match", "play", "game", "set", "court", "ball"}
	rare := []string{"seles", "hingis", "capriati", "melbourne", "trophy",
		"champion", "winner", "ace", "volley", "smash", "rally", "serve"}
	rng := rand.New(rand.NewSource(seed))
	ix := NewIndex()
	for i := 0; i < n; i++ {
		var text string
		for w := 0; w < 30; w++ {
			if rng.Intn(4) == 0 {
				text += rare[rng.Intn(len(rare))] + " "
			} else {
				text += common[rng.Intn(len(common))] + " "
			}
		}
		ix.Add(bat.OID(i+1), fmt.Sprintf("d%d", i+1), text)
	}
	return ix
}

// evalText freezes the index and evaluates the query text with local
// statistics: the steps a single-index caller of Evaluate performs.
func evalText(ix *Index, q string, plan EvalPlan) ([]Result, QualityEstimate) {
	ix.Freeze()
	return ix.Evaluate(Request{Query: q, Plan: plan})
}

// sameResults holds two rankings to byte identity: the same documents
// in the same order with the same float64 bits.
func sameResults(t *testing.T, ctx string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i].Doc != want[i].Doc || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: rank %d = %+v, want %+v", ctx, i, got[i], want[i])
		}
	}
}

// TestEvaluateExactEqualsTopN: the zero-budget (exact) plan and the
// full-budget plan both return results byte-identical to TopN —
// scores included, which pins the floating-point accumulation order.
func TestEvaluateExactEqualsTopN(t *testing.T) {
	ix := planCorpus(300, 11)
	for _, q := range []string{"champion winner serve", "seles", "melbourne trophy volley match", "nope"} {
		want := ix.TopN(q, 10)
		res, est := evalText(ix, q, EvalPlan{N: 10})
		sameResults(t, "exact plan "+q, res, want)
		if est.Value() != 1.0 {
			t.Fatalf("exact plan quality = %v", est.Value())
		}
		full, est := evalText(ix, q, EvalPlan{N: 10, Frags: 4, Budget: 4})
		sameResults(t, "full budget "+q, full, want)
		if est.Value() != 1.0 || est.FragsUsed != est.FragsTotal {
			t.Fatalf("full budget estimate = %+v", est)
		}
	}
}

// TestEvaluateGlobalStatsBudgetEqualsExact: at full budget the plan
// path over global statistics is byte-identical to the exact one,
// including over a pre-resolved query.
func TestEvaluateGlobalStatsBudgetEqualsExact(t *testing.T) {
	ix := planCorpus(250, 3)
	ix.Freeze()
	global := ix.StatsLocal()
	const q = "champion winner serve melbourne"
	want, _ := ix.Evaluate(Request{Query: q, Plan: EvalPlan{N: 10}, Stats: &global})
	res, est := ix.Evaluate(Request{Query: q, Plan: EvalPlan{N: 10, Frags: 4, Budget: 4}, Stats: &global})
	sameResults(t, "plan with stats", res, want)
	if est.Value() != 1.0 {
		t.Fatalf("quality = %v", est.Value())
	}
	stems, oids := ix.ResolveQuery(q)
	res2, est2 := ix.Evaluate(Request{Stems: stems, Terms: oids, Plan: EvalPlan{N: 10, Frags: 4, Budget: 4}, Stats: &global})
	sameResults(t, "plan with stats terms", res2, want)
	if est2 != est {
		t.Fatalf("terms-path estimate %+v != %+v", est2, est)
	}
}

// TestEvalPlanQualityMonotone: property over random corpora — the
// quality estimate is non-decreasing in the fragment budget and
// reaches exactly 1.0 at full budget.
func TestEvalPlanQualityMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	words := []string{"seles", "champion", "volley", "match", "court", "ball", "winner"}
	for iter := 0; iter < 10; iter++ {
		ix := planCorpus(50+rng.Intn(200), int64(iter))
		frags := 2 + rng.Intn(7)
		query := words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		prev := 0.0
		for b := 1; b <= frags; b++ {
			_, est := evalText(ix, query, EvalPlan{N: 10, Frags: frags, Budget: b})
			if v := est.Value(); v < prev-1e-12 {
				t.Fatalf("iter %d: quality %v after %v at budget %d", iter, v, prev, b)
			} else {
				prev = v
			}
		}
		if prev != 1.0 {
			t.Fatalf("iter %d: full budget quality = %v", iter, prev)
		}
	}
}

// TestEvalPlanQualityFloor: a quality floor extends evaluation past
// the budget until the floor is met.
func TestEvalPlanQualityFloor(t *testing.T) {
	ix := planCorpus(400, 9)
	const q = "seles champion match ball"
	_, cheap := evalText(ix, q, EvalPlan{N: 10, Frags: 8, Budget: 1})
	if cheap.Value() >= 0.9 {
		t.Skipf("corpus did not produce a low-quality budget-1 plan (%v)", cheap.Value())
	}
	res, est := evalText(ix, q, EvalPlan{N: 10, Frags: 8, Budget: 1, MinQuality: 0.9})
	if est.Value() < 0.9 {
		t.Fatalf("floor not honoured: %+v", est)
	}
	if est.FragsUsed <= cheap.FragsUsed {
		t.Fatalf("floor did not extend the budget: %+v vs %+v", est, cheap)
	}
	if len(res) == 0 {
		t.Fatal("no results under floored plan")
	}
	// An unreachable floor degrades to exact evaluation.
	full, est := evalText(ix, q, EvalPlan{N: 10, Frags: 8, Budget: 1, MinQuality: 1.0})
	sameResults(t, "unreachable floor", full, ix.TopN(q, 10))
	if est.Value() != 1.0 {
		t.Fatalf("full extension quality = %v", est.Value())
	}
}

// TestMergeQuality: per-node masses sum; the merged value is the
// mass-weighted coverage.
func TestMergeQuality(t *testing.T) {
	a := QualityEstimate{CoveredIDF: 1, TotalIDF: 2, FragsUsed: 2, FragsTotal: 4}
	b := QualityEstimate{CoveredIDF: 3, TotalIDF: 3, FragsUsed: 1, FragsTotal: 8}
	m := MergeQuality(a, b)
	if m.CoveredIDF != 4 || m.TotalIDF != 5 || m.FragsUsed != 2 || m.FragsTotal != 8 {
		t.Fatalf("merged = %+v", m)
	}
	if v := m.Value(); v != 0.8 {
		t.Fatalf("merged value = %v", v)
	}
	if z := MergeQuality(); z.Value() != 1.0 {
		t.Fatalf("empty merge value = %v", MergeQuality().Value())
	}
}

// TestMemoryBudgetIdenticalRanking: compressing cold posting lists
// under a memory budget changes residency, never results — TopN,
// fragment plans and restricted scans all return byte-identical
// rankings, and adds after compression transparently re-inflate.
func TestMemoryBudgetIdenticalRanking(t *testing.T) {
	plainIx := planCorpus(300, 21)
	budgeted := planCorpus(300, 21)
	plainBefore, _, _ := budgeted.MemoryFootprint()
	budgeted.SetMemoryBudget(plainBefore / 4)
	plainAfter, compressed, cold := budgeted.MemoryFootprint()
	if cold == 0 || compressed == 0 {
		t.Fatalf("budget compressed nothing: plain %d -> %d, cold %d", plainBefore, plainAfter, cold)
	}
	if plainAfter > plainBefore/4 {
		t.Fatalf("plain residency %d above budget %d", plainAfter, plainBefore/4)
	}
	queries := []string{"champion winner serve", "seles", "match ball court", "melbourne trophy"}
	for _, q := range queries {
		sameResults(t, "budgeted topn "+q, budgeted.TopN(q, 10), plainIx.TopN(q, 10))
		wantRes, wantEst := evalText(plainIx, q, EvalPlan{N: 10, Frags: 4, Budget: 2})
		gotRes, gotEst := evalText(budgeted, q, EvalPlan{N: 10, Frags: 4, Budget: 2})
		sameResults(t, "budgeted plan "+q, gotRes, wantRes)
		if gotEst != wantEst {
			t.Fatalf("plan estimate %+v != %+v", gotEst, wantEst)
		}
	}
	cands := map[bat.OID]bool{1: true, 5: true, 9: true, 40: true}
	restricted := Request{Query: "champion ball", Plan: EvalPlan{N: 10}, Candidates: cands}
	gotRes, _ := budgeted.Evaluate(restricted)
	wantRes, _ := plainIx.Evaluate(restricted)
	sameResults(t, "budgeted restricted", gotRes, wantRes)
	// Adds keep working against compressed terms and re-apply the
	// budget on the next freeze.
	plainIx.Add(1000, "d1000", "ball ball champion seles")
	budgeted.Add(1000, "d1000", "ball ball champion seles")
	sameResults(t, "after add", budgeted.TopN("ball seles", 10), plainIx.TopN("ball seles", 10))
	if _, _, cold := budgeted.MemoryFootprint(); cold == 0 {
		t.Fatal("budget not re-applied after add")
	}
	// Lifting the budget inflates everything back.
	budgeted.SetMemoryBudget(0)
	if plain, compressed, cold := budgeted.MemoryFootprint(); cold != 0 || compressed != 0 || plain == 0 {
		t.Fatalf("lifted budget left footprint %d/%d/%d", plain, compressed, cold)
	}
	sameResults(t, "after lift", budgeted.TopN("champion winner serve", 10), plainIx.TopN("champion winner serve", 10))
}

// TestReAddDirtiesIndex: folding new occurrences into an existing
// posting (re-adding a document) is a score-changing mutation like
// any other — it must dirty the index and move the epoch on the next
// freeze, or epoch-guarded caches would serve stale results.
func TestReAddDirtiesIndex(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, "d", "winner serve")
	ix.Freeze()
	before := ix.Epoch()
	ix.Add(1, "d", "winner")
	if !ix.Dirty() {
		t.Fatal("tf fold did not dirty the index")
	}
	ix.Freeze()
	if ix.Epoch() == before {
		t.Fatal("epoch did not move after tf fold")
	}
}

// TestQualityZeroIDFMass: an estimate carrying no idf mass — an empty
// query, a term unknown to every node, or the exact plan's shortcut —
// is exact by definition. Both the scalar and the cluster-wide merge
// must report quality 1, never 0/0.
func TestQualityZeroIDFMass(t *testing.T) {
	zero := QualityEstimate{FragsUsed: 4, FragsTotal: 4}
	if v := zero.Value(); v != 1.0 {
		t.Fatalf("zero-mass estimate Value() = %v, want 1", v)
	}
	if !zero.Exact() {
		t.Fatal("zero-mass estimate is not Exact()")
	}
	// Merging nodes that all report zero mass (e.g. the query's terms
	// appear on no partition) must stay exact.
	m := MergeQuality(zero, QualityEstimate{FragsTotal: 8}, QualityEstimate{})
	if v := m.Value(); v != 1.0 {
		t.Fatalf("merged zero-mass estimate Value() = %v, want 1", v)
	}
	if m.FragsUsed != 4 || m.FragsTotal != 8 {
		t.Fatalf("merged fragment accounting = %+v", m)
	}
	// One node with mass dominates: the zero-mass peers must not drag
	// the merged quality down (0/0 contributes nothing, not zero).
	m = MergeQuality(zero, QualityEstimate{CoveredIDF: 3, TotalIDF: 4})
	if v := m.Value(); v != 0.75 {
		t.Fatalf("mixed merge Value() = %v, want 0.75", v)
	}
	// And the degenerate merge of nothing at all.
	if v := MergeQuality().Value(); v != 1.0 {
		t.Fatalf("empty merge Value() = %v, want 1", v)
	}
}
