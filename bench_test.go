// Root benchmarks: the paper's experiments that run over the whole
// engine or the full-text index. The paper reports no absolute
// numbers, so each bench regenerates the *shape* of a claim: who
// wins, by what factor, and how the series move with the sweep
// parameter. E06, E08, E10, E12, E14, E17 and E19 live here; E09 (path
// relations vs edge tables) in internal/monetxml, E13 (token stack
// versions) in internal/fde, E15 (stroke HMMs) in internal/cobra and
// E16 (top-N pushdown vs the naive plan) in internal/ir. Allocation
// budgets are tests, not benchmarks: see allocs_test.go.
package dlsearch

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dlsearch/internal/bat"
	"dlsearch/internal/cobra"
	"dlsearch/internal/detector"
	"dlsearch/internal/ir"
	"dlsearch/internal/monetxml"
	"dlsearch/internal/video"
)

// --- shared corpus generators ---

// xmlDoc renders a synthetic article document of the given size.
func xmlDoc(i, paragraphs int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `<article id="%d"><title>Article %d</title>`, i, i)
	for p := 0; p < paragraphs; p++ {
		fmt.Fprintf(&sb, `<section no="%d"><para>tennis open winner rally %d</para><para>net serve ace %d</para></section>`, p, i, p)
	}
	sb.WriteString("</article>")
	return sb.String()
}

// textCorpus builds n pseudo-natural documents over a skewed
// vocabulary (frequent function-like words plus rare content words),
// the distribution the idf fragmentation exploits.
func textCorpus(n int, seed int64) []string {
	common := []string{"match", "play", "game", "set", "court", "ball"}
	rare := []string{"seles", "hingis", "capriati", "melbourne", "trophy",
		"champion", "winner", "ace", "volley", "smash", "rally", "serve"}
	rng := rand.New(rand.NewSource(seed))
	docs := make([]string, n)
	for i := range docs {
		var sb strings.Builder
		for w := 0; w < 40; w++ {
			if rng.Intn(4) == 0 {
				sb.WriteString(rare[rng.Intn(len(rare))])
			} else {
				sb.WriteString(common[rng.Intn(len(common))])
			}
			sb.WriteByte(' ')
		}
		docs[i] = sb.String()
	}
	return docs
}

// --- E06: the Figure 13 mixed query ---

func BenchmarkE06Figure13Query(b *testing.B) {
	engine, _, _, err := BuildAusOpen(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := engine.Query(Figure13Query)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 2 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

// --- E08: streaming bulkload vs DOM materialisation ---

func BenchmarkE08Bulkload(b *testing.B) {
	for _, docs := range []int{100, 1000} {
		b.Run(fmt.Sprintf("monet-sax/docs=%d", docs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := monetxml.NewStore()
				for d := 0; d < docs; d++ {
					if _, err := s.Load("u", strings.NewReader(xmlDoc(d, 5))); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("dom-baseline/docs=%d", docs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := monetxml.NewStore()
				for d := 0; d < docs; d++ {
					// Materialise the full tree first (DOM), then insert.
					n, err := monetxml.ParseNode(strings.NewReader(xmlDoc(d, 5)))
					if err != nil {
						b.Fatal(err)
					}
					if _, err := s.LoadNode("u", n); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- E10: idf-descending fragmentation with a-priori cut-off ---

func BenchmarkE10FragmentedTopN(b *testing.B) {
	docs := textCorpus(5000, 10)
	ix := ir.NewIndex()
	for i, d := range docs {
		ix.Add(bat.OID(i+1), "u", d)
	}
	ix.Freeze()
	for _, frags := range []int{1, 2, 4, 8} {
		req := ir.Request{Query: "seles champion volley match", Plan: ir.EvalPlan{N: 10, Budget: frags}}
		res, quality := ix.Evaluate(req)
		b.Run(fmt.Sprintf("cutoff=%d-of-8", frags), func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(quality.Value(), "quality")
			b.ReportMetric(float64(len(res)), "results")
			for i := 0; i < b.N; i++ {
				ix.Evaluate(req)
			}
		})
	}
}

// --- E12: incremental maintenance vs full rebuild (engine level) ---

func BenchmarkE12MaintenanceIncremental(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		engine, _, _, err := BuildAusOpen(1)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := engine.Upgrade(&detector.Impl{
			Name:    "header",
			Version: detector.Version{Major: 1, Minor: 1},
			Fn:      headerLikeSite(engine),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE12MaintenanceFullRebuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, _, err := BuildAusOpen(1); err != nil {
			b.Fatal(err)
		}
	}
}

// headerLikeSite re-registers the same header behaviour under a new
// version (output unchanged -> purely the revalidation cost).
func headerLikeSite(e *Engine) detector.Func {
	impl, _ := e.Registry.Lookup("header")
	return impl.Fn
}

// --- E14: shot segmentation and classification throughput ---

func BenchmarkE14ShotClassification(b *testing.B) {
	specs := video.RandomBroadcast(3, 30, video.HardBlue)
	v := video.Generate(specs, video.Options{Seed: 3})
	seg := cobra.NewSegmenter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := seg.Segment(v)
		if len(a.Shots) == 0 {
			b.Fatal("no shots")
		}
	}
	b.ReportMetric(float64(len(v.Frames))/float64(1), "frames/op")
}

// --- E17: a-priori conceptual restriction below the IR ranking ---

// At collection scale, ranking only the documents that survive the
// cheap conceptual selection ("articles by this author") beats ranking
// everything and filtering afterwards. The tiny running-example site
// cannot show this; a 20k-document collection with a 1% conceptual
// candidate set does.
func BenchmarkE17APrioriRestriction(b *testing.B) {
	docs := textCorpus(20000, 8)
	ix := ir.NewIndex()
	for i, d := range docs {
		ix.Add(bat.OID(i+1), "u", d)
	}
	// The conceptual restriction admits 1% of the collection.
	candidates := map[bat.OID]bool{}
	for i := 1; i <= len(docs); i += 100 {
		candidates[bat.OID(i)] = true
	}
	ix.Freeze()
	const query = "champion winner serve"
	b.Run("restricted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.Evaluate(ir.Request{Query: query, Plan: ir.EvalPlan{N: 10}, Candidates: candidates})
		}
	})
	b.Run("unrestricted-late-filter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			all := ix.TopN(query, len(docs))
			kept := 0
			for _, r := range all {
				if candidates[r.Doc] {
					kept++
					if kept == 10 {
						break
					}
				}
			}
		}
	})
}

// --- E19: compressed postings in the scoring hot path ---

// BenchmarkE19CompressedScoring quantifies the memory-budget
// trade-off: the same top-N over plain posting columns vs an index
// whose cold (low-idf) lists are held delta+varint compressed and
// walked in place. The plain_kb/packed_kb metrics record the
// space side of the trade ("compressed postings in the hot path",
// ROADMAP E-ablation).
func BenchmarkE19CompressedScoring(b *testing.B) {
	docs := textCorpus(5000, 6)
	build := func(budgetDiv int) *ir.Index {
		ix := ir.NewIndex()
		for i, d := range docs {
			ix.Add(bat.OID(i+1), "u", d)
		}
		ix.Freeze()
		if budgetDiv > 0 {
			plain, _, _ := ix.MemoryFootprint()
			ix.SetMemoryBudget(plain / budgetDiv)
		}
		return ix
	}
	const query = "seles champion volley match"
	for _, cfg := range []struct {
		name      string
		budgetDiv int
	}{{"plain", 0}, {"budget=1/4", 4}, {"budget=1/16", 16}} {
		ix := build(cfg.budgetDiv)
		plain, packed, cold := ix.MemoryFootprint()
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(plain)/1024, "plain_kb")
			b.ReportMetric(float64(packed)/1024, "packed_kb")
			b.ReportMetric(float64(cold), "cold_terms")
			for i := 0; i < b.N; i++ {
				if got := ix.TopN(query, 10); len(got) != 10 {
					b.Fatalf("got %d", len(got))
				}
			}
		})
	}
}
