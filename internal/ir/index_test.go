package ir

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dlsearch/internal/bat"
)

func smallIndex() *Index {
	ix := NewIndex()
	ix.Add(1, "d1", "Seles is the winner of the Australian Open final")
	ix.Add(2, "d2", "Hingis loses the final against the winner Seles")
	ix.Add(3, "d3", "A report about weather in Melbourne during the tournament")
	ix.Add(4, "d4", "The winner winner winner takes the championship trophy")
	return ix
}

func TestIndexCounts(t *testing.T) {
	ix := smallIndex()
	if ix.DocCount() != 4 {
		t.Fatalf("DocCount = %d", ix.DocCount())
	}
	if ix.TermCount() == 0 {
		t.Fatal("empty vocabulary")
	}
	if _, ok := ix.TermOID(Stem("winner")); !ok {
		t.Fatal("winner not in vocabulary")
	}
	if _, ok := ix.TermOID("zzzz"); ok {
		t.Fatal("phantom term in vocabulary")
	}
}

func TestIDFDefinition(t *testing.T) {
	ix := smallIndex()
	// "winner" appears in docs 1, 2, 4 -> df=3 -> idf=1/3.
	if got := ix.IDFOf(Stem("winner")); got != 1.0/3.0 {
		t.Fatalf("idf(winner) = %v, want 1/3", got)
	}
	if got := ix.IDFOf(Stem("melbourne")); got != 1.0 {
		t.Fatalf("idf(melbourne) = %v, want 1", got)
	}
	if got := ix.IDFOf("absent"); got != 0 {
		t.Fatalf("idf(absent) = %v, want 0", got)
	}
}

func TestTopNRanking(t *testing.T) {
	ix := smallIndex()
	res := ix.TopN("winner", 10)
	if len(res) != 3 {
		t.Fatalf("results = %v", res)
	}
	// d4 mentions winner three times in a short doc: must rank first.
	if res[0].Doc != 4 {
		t.Fatalf("top doc = %d, want 4", res[0].Doc)
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Fatal("results not sorted by score desc")
		}
	}
}

func TestTopNLimits(t *testing.T) {
	ix := smallIndex()
	if got := ix.TopN("winner", 1); len(got) != 1 {
		t.Fatalf("n=1 returned %d", len(got))
	}
	if got := ix.TopN("quetzalcoatl", 5); len(got) != 0 {
		t.Fatalf("unknown term returned %v", got)
	}
	if got := ix.TopN("the of and", 5); len(got) != 0 {
		t.Fatalf("stop-word query returned %v", got)
	}
}

func TestNaiveEqualsOptimized(t *testing.T) {
	ix := smallIndex()
	for _, q := range []string{"winner", "seles final", "weather melbourne", "championship trophy winner"} {
		opt := ix.TopN(q, 10)
		naive := ix.TopNNaive(q, 10)
		if len(opt) != len(naive) {
			t.Fatalf("q=%q: sizes differ: %v vs %v", q, opt, naive)
		}
		for i := range opt {
			if opt[i].Doc != naive[i].Doc || opt[i].Score != naive[i].Score {
				t.Fatalf("q=%q: rank %d differs: %v vs %v", q, i, opt[i], naive[i])
			}
		}
	}
}

func TestEvaluateRestricted(t *testing.T) {
	ix := smallIndex()
	ix.Freeze()
	res, _ := ix.Evaluate(Request{Query: "winner", Plan: EvalPlan{N: 10}, Candidates: map[bat.OID]bool{2: true}})
	if len(res) != 1 || res[0].Doc != 2 {
		t.Fatalf("restricted = %v", res)
	}
}

// TestFragmentize: the table cut from the index's df histogram
// splits the vocabulary into at most k fragments of whole df classes,
// idf descending, every fragment holding at least one term.
func TestFragmentize(t *testing.T) {
	ix := smallIndex()
	ix.Freeze()
	hist := histogramOf(ix.dfs())
	table := ix.cutFor(3).table
	if len(table) != min(3, hist.Classes()) {
		t.Fatalf("table %v for %d classes", table, hist.Classes())
	}
	// Thresholds ascend strictly (idf descends across fragments), and
	// the last one is the largest df, so every term has a fragment.
	for f := 1; f < len(table); f++ {
		if table[f] <= table[f-1] {
			t.Fatalf("table %v not strictly ascending", table)
		}
	}
	if table[len(table)-1] != hist.dfs[len(hist.dfs)-1] {
		t.Fatalf("table %v stops below the largest df %d", table, hist.dfs[len(hist.dfs)-1])
	}
	terms := make([]int, len(table))
	for df := range ix.dfs() {
		terms[table.frag(df)]++
	}
	for f, n := range terms {
		if n == 0 {
			t.Fatalf("fragment %d of %v holds no term", f, table)
		}
	}
}

// TestFragmentizeDegenerate: granularities outside [1, classes] clamp,
// and an empty vocabulary is one fragment.
func TestFragmentizeDegenerate(t *testing.T) {
	ix := smallIndex()
	ix.Freeze()
	hist := histogramOf(ix.dfs())
	if got := hist.Table(0); len(got) != 1 {
		t.Fatalf("k=0 table = %v", got)
	}
	if got := ix.cutFor(0).table; len(got) != min(DefaultFragments, hist.Classes()) {
		t.Fatalf("default table = %v", got)
	}
	// More fragments than classes: one class per fragment.
	if got := hist.Table(1000); len(got) != hist.Classes() {
		t.Fatalf("k=1000 table = %v, want one entry per class of %v", got, hist.dfs)
	}
	empty := NewIndex()
	if got := empty.cutFor(4).table; len(got) != 0 {
		t.Fatalf("empty index table = %v", got)
	}
	res, est := empty.Evaluate(Request{Query: "anything", Plan: EvalPlan{N: 5, Frags: 4, Budget: 1}})
	if len(res) != 0 || est.Value() != 1.0 || est.FragsTotal != 1 {
		t.Fatalf("empty-index plan = %v / %+v", res, est)
	}
}

func TestFragmentCutoffQuality(t *testing.T) {
	ix := smallIndex()
	ix.Freeze()
	frags := len(ix.cutFor(4).table)
	full, q := ix.Evaluate(Request{Query: "winner melbourne", Plan: EvalPlan{N: 10, Frags: 4, Budget: frags}})
	if q.Value() != 1.0 || !q.Exact() {
		t.Fatalf("full evaluation quality = %+v", q)
	}
	if q.FragsUsed != frags || q.FragsTotal != frags {
		t.Fatalf("fragment accounting = %+v, want all %d", q, frags)
	}
	exact := ix.TopN("winner melbourne", 10)
	if len(full) != len(exact) {
		t.Fatalf("full fragment eval differs from exact: %v vs %v", full, exact)
	}
	// Cutting fragments can only lower (or keep) quality.
	prev := 0.0
	for k := 1; k <= frags; k++ {
		_, qk := ix.Evaluate(Request{Query: "winner melbourne", Plan: EvalPlan{N: 10, Frags: 4, Budget: k}})
		if qk.Value() < prev-1e-12 {
			t.Fatalf("quality not monotone: %v after %v at k=%d", qk.Value(), prev, k)
		}
		prev = qk.Value()
	}
	if prev != 1.0 {
		t.Fatalf("processing all fragments must give quality 1, got %v", prev)
	}
}

func TestFragmentCutoffKeepsRareTerms(t *testing.T) {
	// The rare term "melbourne" (df=1, idf=1) must live in an earlier
	// fragment than the common "winner" (df=3); with one fragment cut
	// off, the rare term's contribution must survive.
	ix := smallIndex()
	ix.Freeze()
	k := ix.TermCount() // clamped: one df class per fragment, idf-desc
	melbourne, _ := ix.TermOID(Stem("melbourne"))
	winner, _ := ix.TermOID(Stem("winner"))
	table := ix.cutFor(k).table
	fm, fw := table.frag(ix.postingLen(melbourne)), table.frag(ix.postingLen(winner))
	if fm >= fw {
		t.Fatalf("rare term (df=1) in fragment %d, common term (df=3) in %d; idf order broken", fm, fw)
	}
	// Cut off everything after melbourne's fragment: its contribution
	// survives, winner's is dropped, quality falls below 1.
	res, q := ix.Evaluate(Request{Query: "melbourne winner", Plan: EvalPlan{N: 10, Frags: k, Budget: fm + 1}})
	if len(res) == 0 || res[0].Doc != 3 {
		t.Fatalf("melbourne doc should rank, got %v", res)
	}
	if q.Value() >= 1.0 {
		t.Fatal("cutting fragments with a query term present must reduce quality below 1")
	}
}

func TestMerge(t *testing.T) {
	a := []Result{{Doc: 1, Score: 3}, {Doc: 2, Score: 1}}
	b := []Result{{Doc: 3, Score: 2}}
	got := Merge(2, a, b)
	if len(got) != 2 || got[0].Doc != 1 || got[1].Doc != 3 {
		t.Fatalf("Merge = %v", got)
	}
	if got := Merge(10); len(got) != 0 {
		t.Fatalf("empty merge = %v", got)
	}
}

// Property: for random corpora, the optimized and naive plans return
// identical rankings, and fragment evaluation with all fragments
// equals exact evaluation.
func TestPropertyPlansAgree(t *testing.T) {
	words := []string{"tennis", "open", "winner", "net", "serve", "ace",
		"match", "court", "player", "champion", "rally", "set"}
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 30; iter++ {
		ix := NewIndex()
		nDocs := 2 + rng.Intn(20)
		for d := 1; d <= nDocs; d++ {
			var text string
			for w := 0; w < 3+rng.Intn(30); w++ {
				text += words[rng.Intn(len(words))] + " "
			}
			ix.Add(bat.OID(d), fmt.Sprintf("d%d", d), text)
		}
		query := words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		opt := ix.TopN(query, 5)
		naive := ix.TopNNaive(query, 5)
		if len(opt) != len(naive) {
			t.Fatalf("iter %d: plan size mismatch", iter)
		}
		for i := range opt {
			if opt[i].Doc != naive[i].Doc {
				t.Fatalf("iter %d: plan rank mismatch at %d: %v vs %v", iter, i, opt, naive)
			}
		}
		frags := 1 + rng.Intn(5)
		frag, q := ix.Evaluate(Request{Query: query, Plan: EvalPlan{N: 5, Frags: frags, Budget: frags}})
		if q.Value() != 1.0 {
			t.Fatalf("iter %d: full-fragment quality %v", iter, q.Value())
		}
		for i := range opt {
			if frag[i].Doc != opt[i].Doc {
				t.Fatalf("iter %d: fragment eval mismatch", iter)
			}
		}
	}
}

func BenchmarkAddDocument(b *testing.B) {
	ix := NewIndex()
	text := "the quick brown fox jumps over the lazy dog while the winner celebrates the championship"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix.Add(bat.OID(i+1), "u", text)
	}
}

// lib20kTexts returns n document bodies shaped like the benchmark's
// lib20k corpus: 80 words drawn with P(k) ∝ 1/(k+1) from a vocabulary
// of 20 000 words w00000…w19999.
func lib20kTexts(seed int64, n int) []string {
	return zipfTexts(seed, n, 20000, func(*rand.Rand) int { return 80 })
}

// zipfTexts returns n document bodies of docLen words each, drawn with
// P(k) ∝ 1/(k+1) from a vocabulary of vocab words w00000, w00001, …
func zipfTexts(seed int64, n, vocab int, docLen func(*rand.Rand) int) []string {
	z := newZipfWords(vocab)
	rng := rand.New(rand.NewSource(seed))
	texts := make([]string, n)
	var sb strings.Builder
	for i := range texts {
		sb.Reset()
		for w, words := 0, docLen(rng); w < words; w++ {
			if w > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(z.draw(rng))
		}
		texts[i] = sb.String()
	}
	return texts
}

// zipfWords draws words w00000, w00001, … with P(k) ∝ 1/(k+1).
type zipfWords struct{ cdf []float64 }

func newZipfWords(vocab int) zipfWords {
	cdf := make([]float64, vocab)
	sum := 0.0
	for k := range cdf {
		sum += 1 / float64(k+1)
		cdf[k] = sum
	}
	return zipfWords{cdf: cdf}
}

func (z zipfWords) draw(rng *rand.Rand) string {
	return fmt.Sprintf("w%05d", sort.SearchFloat64s(z.cdf, rng.Float64()*z.cdf[len(z.cdf)-1]))
}

// lib20kIndex returns a frozen index of n lib20k-shaped documents with
// oids 1..n.
func lib20kIndex(seed int64, n int) *Index {
	ix := NewIndex()
	for d, text := range lib20kTexts(seed, n) {
		ix.Add(bat.OID(d+1), fmt.Sprintf("d%d", d+1), text)
	}
	ix.Freeze()
	return ix
}

// TestAddAllocsPerDocument guards Add's allocation budget on a warm
// index: a stem resolves to its term oid without allocating, and the
// per-document term scratch is reused, so what remains is the keys of
// unseen terms and amortised column growth.
func TestAddAllocsPerDocument(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 4 000-document index")
	}
	ix := lib20kIndex(1, 4000)
	fresh := lib20kTexts(2, 201)
	next := 0
	allocs := testing.AllocsPerRun(200, func() {
		ix.Add(bat.OID(4001+next), "u", fresh[next])
		next++
	})
	t.Logf("%.1f allocations per document", allocs)
	// ceil(1.05 × 13), the most of 20 runs.
	if allocs > 14 {
		t.Fatalf("Add makes %.1f allocations per document, want at most 14", allocs)
	}
}

// docShapes are the document-length shapes of the Zipf benchmarks:
// lib20k's constant 80 words, and log-normal lengths around the same
// median (5–600 words).
var docShapes = []struct {
	name   string
	docLen func(*rand.Rand) int
}{
	{"len=80", func(*rand.Rand) int { return 80 }},
	{"len=lognormal", func(r *rand.Rand) int {
		return min(600, max(5, int(math.Round(80*math.Exp(0.6*r.NormFloat64())))))
	}},
}

// BenchmarkIndexAdd adds documents of each shape to a warm index of
// 4 000 documents of the same shape, over lib20k's 20 000-word Zipf
// vocabulary.
func BenchmarkIndexAdd(b *testing.B) {
	const warm, vocab = 4000, 20000
	for _, shape := range docShapes {
		b.Run(shape.name, func(b *testing.B) {
			ix := NewIndex()
			for d, text := range zipfTexts(1, warm, vocab, shape.docLen) {
				ix.Add(bat.OID(d+1), fmt.Sprintf("d%d", d+1), text)
			}
			ix.Freeze()
			texts := zipfTexts(2, 4096, vocab, shape.docLen)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Add(bat.OID(warm+1+i), "u", texts[i%len(texts)])
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/doc")
		})
	}
}

// TestIncrementalFragmentsDeterministic: two indexes holding the same
// documents, added in different orders and frozen at different points,
// cut the same table and answer every budgeted plan identically —
// replicas cannot disagree about a cut-off, so failover cannot move a
// budgeted answer.
func TestIncrementalFragmentsDeterministic(t *testing.T) {
	texts := lib20kTexts(3, 600)
	build := func(order []int) *Index {
		ix := NewIndex()
		for i, d := range order {
			ix.Add(bat.OID(d+1), "u", texts[d])
			if i == 300 {
				ix.Freeze()
				ix.Evaluate(Request{Query: "game", Plan: EvalPlan{N: 1, Budget: 1}})
			}
		}
		ix.Freeze()
		return ix
	}
	order := make([]int, len(texts))
	for i := range order {
		order[i] = i
	}
	a := build(order)
	rand.New(rand.NewSource(9)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	b := build(order)
	if ta, tb := a.cutFor(8).table, b.cutFor(8).table; !reflect.DeepEqual(ta, tb) {
		t.Fatalf("tables differ between add orders: %v vs %v", ta, tb)
	}
	for _, q := range []string{"game set match", "court player", "the winner of the open"} {
		for _, plan := range []EvalPlan{{N: 10, Budget: 1}, {N: 10, Budget: 2}, {N: 10, Frags: 4, Budget: 1, MinQuality: 0.8}} {
			ra, ea := a.Evaluate(Request{Query: q, Plan: plan})
			rb, eb := b.Evaluate(Request{Query: q, Plan: plan})
			if !reflect.DeepEqual(ra, rb) || ea != eb {
				t.Fatalf("q=%q plan=%+v: %v / %+v vs %v / %+v", q, plan, ra, ea, rb, eb)
			}
		}
	}
}
