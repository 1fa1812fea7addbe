package ir

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestCutoffQualityMonotone is the cut-off's property over random df
// vectors: for every table cut from a random histogram, the quality
// estimate is non-decreasing in the budget and exactly 1 at full
// budget; a floor only ever extends the admitted prefix, by whole
// fragments, until it is met or fragments run out; and the covered
// mass is exactly that of the terms the admission lets through.
func TestCutoffQualityMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for iter := 0; iter < 500; iter++ {
		st := Stats{DF: map[string]int{}}
		for v := 0; v < 1+rng.Intn(60); v++ {
			st.DF[fmt.Sprint("t", v)] = 1 + rng.Intn(1+rng.Intn(400))
		}
		hist := st.Histogram()
		k := 1 + rng.Intn(12)
		table := hist.Table(k)
		if len(table) != min(k, hist.Classes()) {
			t.Fatalf("iter %d: table %v for k=%d over %d classes", iter, table, k, hist.Classes())
		}
		for f := 1; f < len(table); f++ {
			if table[f] <= table[f-1] {
				t.Fatalf("iter %d: table %v not strictly ascending", iter, table)
			}
		}
		// A query's dfs: known terms, a weightless one now and then, and
		// one that grew past the table.
		dfs := make([]int, 1+rng.Intn(6))
		for i := range dfs {
			switch r := rng.Intn(10); {
			case r == 0:
				dfs[i] = 0
			case r == 1:
				dfs[i] = 1000
			default:
				dfs[i] = hist.dfs[rng.Intn(len(hist.dfs))]
			}
		}
		floor := rng.Float64()
		prev := 0.0
		for b := 1; b <= len(table); b++ {
			frag, est := Cutoff(nil, table, dfs, EvalPlan{Budget: b})
			if est.FragsUsed != b || est.FragsTotal != len(table) {
				t.Fatalf("iter %d b=%d: accounting %+v", iter, b, est)
			}
			if v := est.Value(); v < prev {
				t.Fatalf("iter %d: quality %v after %v at budget %d", iter, v, prev, b)
			} else {
				prev = v
			}
			covered := 0.0
			for i, f := range frag {
				if int(f) < est.FragsUsed {
					covered += idfMass(dfs[i])
				}
			}
			if covered != est.CoveredIDF {
				t.Fatalf("iter %d b=%d: covered %v, admission holds %v", iter, b, est.CoveredIDF, covered)
			}
			_, floored := Cutoff(nil, table, dfs, EvalPlan{Budget: b, MinQuality: floor})
			if floored.FragsUsed < b || floored.Value() < est.Value() {
				t.Fatalf("iter %d b=%d: floor %v shrank %+v to %+v", iter, b, floor, est, floored)
			}
			if floored.Value() < floor-1e-12 && floored.FragsUsed != len(table) {
				t.Fatalf("iter %d b=%d: floor %v unmet at %+v with fragments left", iter, b, floor, floored)
			}
		}
		if prev != 1 {
			t.Fatalf("iter %d: full-budget quality %v", iter, prev)
		}
	}
}
