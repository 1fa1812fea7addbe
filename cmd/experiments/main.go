// Command experiments regenerates the paper's evaluation artefacts:
// for every experiment of DESIGN.md's index it prints the measured
// rows/series next to what the paper claims. The paper is a system
// description without numeric tables, so "reproduction" means: the
// figures are reproduced functionally and every scalability /
// flexibility claim is quantified on this substrate.
//
// Run with:
//
//	go run ./cmd/experiments | tee experiments.txt
package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"dlsearch"
	"dlsearch/internal/bat"
	"dlsearch/internal/cobra"
	"dlsearch/internal/core"
	"dlsearch/internal/detector"
	"dlsearch/internal/dist"
	"dlsearch/internal/fg"
	"dlsearch/internal/ir"
	"dlsearch/internal/monetxml"
	"dlsearch/internal/video"
)

func main() {
	e01e06()
	e02e04()
	e05()
	e07()
	e08()
	e09()
	e10()
	e11()
	e12()
	e13()
	e14()
	e15()
	e16()
	e17()
}

func header(id, title string) {
	fmt.Printf("\n=== %s — %s ===\n", id, title)
}

// E01 + E06: the running example end to end, Figure 13.
func e01e06() {
	header("E01/E06", "Australian Open engine and the Figure 13 query")
	engine, site, rep, err := dlsearch.BuildAusOpen(1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("crawl: %d documents, %d media objects, %d text bodies indexed\n",
		rep.Documents, rep.MediaParsed, rep.TextsIndexed)
	fmt.Printf("physical level: %d relations, %d associations\n", rep.Relations, rep.Associations)
	res, err := engine.Query(dlsearch.Figure13Query)
	if err != nil {
		panic(err)
	}
	fmt.Println("Figure 13 answer (paper: e.g. Monica Seles with her net-approach shots):")
	for _, row := range res.Rows {
		fmt.Printf("  %-16s %-50s score %.3f shots %v\n", row.Values[0], row.Values[1], row.Score, row.Shots)
	}
	fmt.Printf("ground truth: %v -> %s\n", site.Figure13Answer(), okIf(len(res.Rows) == len(site.Figure13Answer())))
}

// E02/E03/E04: grammars and the dependency graph.
func e02e04() {
	header("E02-E04", "feature grammars (Figures 6/7) and dependency graph (Figure 8)")
	g := fg.MustParse(fg.TennisGrammar)
	d := g.Dependencies()
	fmt.Printf("grammar: start=%s, %d rules, %d detectors, %d atoms\n",
		g.Start, len(g.Rules), len(g.Detectors), len(g.Atoms))
	fmt.Printf("rule dep MMO -> %v (paper: header, not optional mm_type)\n", d.RuleDeps("MMO"))
	fmt.Printf("siblings(header) = %v (paper: location, mm_type)\n", d.Siblings("header"))
	fmt.Printf("param deps: header -> %v, video_type -> %v\n", d.ParamDeps("header"), d.ParamDeps("video_type"))
	fmt.Printf("downward(header) = %v (paper: header, MIME_type, primary, secondary)\n", d.Downward("header"))
}

// E05: Figures 9-12, the Monet transform.
func e05() {
	header("E05", "Monet transform of the Figure 9 document (Figures 10-12)")
	s := monetxml.NewStore()
	doc := `<image key="18934" source="http://ausopen.org/seles.jpg"><date>999010530</date><colors><histogram>0.399 0.277 0.344</histogram><saturation>0.390</saturation><version>0.8</version></colors></image>`
	id, err := s.Load("u", strings.NewReader(doc))
	if err != nil {
		panic(err)
	}
	fmt.Println("schema tree / relations R1..R12:")
	for _, name := range s.RelationNames() {
		if strings.HasPrefix(name, "$") || strings.Contains(name, "[rank]") {
			continue
		}
		fmt.Printf("  R(%s) %d tuples\n", name, s.Relation(name).Len())
	}
	rec, err := s.Reconstruct(id)
	if err != nil {
		panic(err)
	}
	orig := monetxml.MustParseNode(doc)
	fmt.Printf("inverse mapping isomorphic: %s\n", okIf(orig.Equal(rec)))
}

// E07: Figure 14 Internet grammar.
func e07() {
	header("E07", "Internet grammar (Figure 14): portraits about 'champion'")
	pages, images := dlsearch.SyntheticWeb(5)
	e, err := dlsearch.NewInternetEngine(pages, images)
	if err != nil {
		panic(err)
	}
	if err := e.PopulateWeb(); err != nil {
		panic(err)
	}
	hits := e.PortraitsOnPagesAbout("champion", "winner", "trophy")
	for _, h := range hits {
		fmt.Printf("  %-44s score %.3f\n", h.Image, h.Score)
	}
	fmt.Printf("link graph edges: %d (the &html references of the grammar)\n", len(e.LinkGraph()))
}

// E08: bulkload cost.
func e08() {
	header("E08", "bulkload: O(height) memory, SAX-like cost")
	for _, docs := range []int{1000, 5000} {
		s := monetxml.NewStore()
		start := time.Now()
		for d := 0; d < docs; d++ {
			if _, err := s.Load("u", strings.NewReader(benchDoc(d))); err != nil {
				panic(err)
			}
		}
		el := time.Since(start)
		st := s.Stats()
		fmt.Printf("  docs=%5d  nodes=%7d  max live frames=%d  %.1f docs/ms\n",
			docs, st.Nodes, st.MaxStackDepth, float64(docs)/float64(el.Milliseconds()+1))
	}
	fmt.Println("  paper: memory O(document height), not O(nodes) — live frames stay constant")
}

func benchDoc(i int) string {
	return fmt.Sprintf(`<article id="%d"><title>t</title><section no="1"><para>tennis open winner</para><para>net serve</para></section><section no="2"><para>rally</para></section></article>`, i)
}

// E09: path clustering vs edge table.
func e09() {
	header("E09", "path expression: Monet transform vs generic edge mapping")
	for _, docs := range []int{500, 2000} {
		ms := monetxml.NewStore()
		es := monetxml.NewEdgeStore()
		for d := 0; d < docs; d++ {
			n := monetxml.MustParseNode(benchDoc(d))
			if _, err := ms.LoadNode("u", n); err != nil {
				panic(err)
			}
			es.LoadNode(n)
		}
		const iters = 50
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := ms.NodesAt("article/section/para"); err != nil {
				panic(err)
			}
		}
		tm := time.Since(start)
		start = time.Now()
		for i := 0; i < iters; i++ {
			es.NodesAt("article/section/para")
		}
		te := time.Since(start)
		fmt.Printf("  docs=%5d  monet=%8s  edge=%8s  speedup=%.1fx\n",
			docs, tm/iters, te/iters, float64(te)/float64(tm))
	}
	fmt.Println("  paper: path-named relations answer path expressions with single scans")
}

// E10: fragmentation sweep.
func e10() {
	header("E10", "idf-descending fragmentation: cost/quality trade-off")
	docs := corpus(5000, 10)
	ix := ir.NewIndex()
	for i, d := range docs {
		ix.Add(bat.OID(i+1), "u", d)
	}
	ix.Fragmentize(8)
	const query = "seles champion volley match"
	exact := ix.TopN(query, 10)
	fmt.Println("  cutoff  quality  time/query  top10-overlap")
	for _, frags := range []int{1, 2, 4, 8} {
		const iters = 50
		start := time.Now()
		var res []ir.Result
		var q ir.QualityEstimate
		for i := 0; i < iters; i++ {
			res, q = ix.Evaluate(ir.Request{Query: query, Plan: ir.EvalPlan{N: 10, Budget: frags}})
		}
		el := time.Since(start) / iters
		fmt.Printf("  %d-of-8  %.3f    %-10s  %d/10\n", frags, q.Value(), el, overlap(res, exact))
	}
	fmt.Println("  paper: ignoring expensive low-idf fragments trades bounded quality for speed")
}

func overlap(a, b []ir.Result) int {
	set := map[bat.OID]bool{}
	for _, r := range a {
		set[r.Doc] = true
	}
	n := 0
	for _, r := range b {
		if set[r.Doc] {
			n++
		}
	}
	return n
}

// E11: distribution sweep.
func e11() {
	header("E11", "shared-nothing distribution: per-document partitioning")
	docs := corpus(8000, 4)
	single := ir.NewIndex()
	for i, d := range docs {
		single.Add(bat.OID(i+1), "u", d)
	}
	want := single.TopN("champion winner serve", 10)
	fmt.Println("  nodes  loads           correct  time/query")
	for _, k := range []int{1, 2, 4, 8} {
		c := dist.NewCluster(k, nil)
		for i, d := range docs {
			c.Add(bat.OID(i+1), "u", d)
		}
		const iters = 30
		var got []ir.Result
		start := time.Now()
		for i := 0; i < iters; i++ {
			got = c.TopN("champion winner serve", 10)
		}
		el := time.Since(start) / iters
		correct := len(got) == len(want)
		for i := range got {
			if got[i].Doc != want[i].Doc {
				correct = false
			}
		}
		fmt.Printf("  %-5d  %-14v  %-7s  %s\n", k, c.NodeLoads(), okIf(correct), el)
	}
	fmt.Println("  paper: (almost) perfect shared-nothing parallelism, exact merged ranking")
}

// E12: maintenance.
func e12() {
	header("E12", "FDS incremental maintenance vs full rebuild")
	engine, _, _, err := dlsearch.BuildAusOpen(1)
	if err != nil {
		panic(err)
	}
	full := map[string]int{}
	for k, v := range engine.Scheduler.Engine.Stats.DetectorCalls {
		full[k] = v
	}
	fmt.Printf("  initial population: header=%d segment=%d tennis=%d\n",
		full["header"], full["segment"], full["tennis"])
	impl, _ := engine.Registry.Lookup("header")
	rep, err := engine.Upgrade(&detector.Impl{
		Name: "header", Version: detector.Version{Major: 1, Minor: 1}, Fn: impl.Fn,
	})
	if err != nil {
		panic(err)
	}
	after := engine.Scheduler.Engine.Stats.DetectorCalls
	fmt.Printf("  header minor upgrade: reparses=%d, header+%d segment+%d tennis+%d\n",
		rep.Run.Reparses, after["header"]-full["header"],
		after["segment"]-full["segment"], after["tennis"]-full["tennis"])
	fmt.Println("  paper: localise changes; never regenerate complete parse trees")
}

// E13: token stack sharing (shape only; precise numbers in go test -bench).
func e13() {
	header("E13", "token stack versions: shared suffixes vs copies")
	fmt.Println("  see `go test -bench TokenStack ./internal/fde/`:")
	fmt.Println("  sharing a version is O(1); copying is O(stack) with allocations per save")
}

// E14: shot classification.
func e14() {
	header("E14", "shot classification (Figure 5) on all three court classes")
	fmt.Println("  court   shots  boundary-exact  classification-accuracy")
	for _, court := range []video.CourtKind{video.HardBlue, video.GrassGreen, video.ClayRed} {
		specs := video.RandomBroadcast(99, 30, court)
		v := video.Generate(specs, video.Options{Seed: 99})
		a := cobra.NewSegmenter().Segment(v)
		exact := len(a.Shots) == len(v.Truth)
		correct := 0
		for i := range a.Shots {
			if exact && a.Shots[i].Kind == v.Truth[i].Kind {
				correct++
			}
		}
		fmt.Printf("  %-6v  %-5d  %-14s  %d/%d\n", courtName(court), len(a.Shots), okIf(exact), correct, len(v.Truth))
	}
	fmt.Println("  paper: the algorithm generalises across court classes without parameter changes")
}

func courtName(c video.CourtKind) string {
	switch c {
	case video.GrassGreen:
		return "grass"
	case video.ClayRed:
		return "clay"
	default:
		return "hard"
	}
}

// E15: stroke recognition.
func e15() {
	header("E15", "HMM stroke recognition ([PJZ01] extension)")
	train := cobra.StrokeDataset(25, 14, 100)
	rec, err := cobra.TrainStrokes(train, 3, 8, 12, 7)
	if err != nil {
		panic(err)
	}
	test := cobra.StrokeDataset(15, 14, 200)
	classes := rec.Classes()
	fmt.Println("  confusion (rows = truth):")
	fmt.Printf("  %-10s", "")
	for _, c := range classes {
		fmt.Printf("%-10s", c)
	}
	fmt.Println()
	correct, total := 0, 0
	for _, truth := range classes {
		counts := map[string]int{}
		for _, seq := range test[truth] {
			got, _, err := rec.Classify(seq)
			if err != nil {
				panic(err)
			}
			counts[got]++
			if got == truth {
				correct++
			}
			total++
		}
		fmt.Printf("  %-10s", truth)
		for _, c := range classes {
			fmt.Printf("%-10d", counts[c])
		}
		fmt.Println()
	}
	fmt.Printf("  accuracy: %d/%d = %.2f\n", correct, total, float64(correct)/float64(total))
}

// E16: top-N optimization. The naive plan materialises the query
// terms' postings, scores every matching document in a map and sorts
// the naive full ranking before cutting it to n.
func e16() {
	header("E16", "top-N: posting-list pushdown vs naive full ranking")
	docs := corpus(5000, 6)
	ix := ir.NewIndex()
	for i, d := range docs {
		ix.Add(bat.OID(i+1), "u", d)
	}
	const iters = 30
	start := time.Now()
	for i := 0; i < iters; i++ {
		ix.TopN("seles trophy", 10)
	}
	opt := time.Since(start) / iters
	start = time.Now()
	for i := 0; i < iters; i++ {
		ix.TopNNaive("seles trophy", 10)
	}
	naive := time.Since(start) / iters
	fmt.Printf("  optimized=%s  naive=%s  speedup=%.1fx\n", opt, naive, float64(naive)/float64(opt))
}

// E17: a-priori restriction.
func e17() {
	header("E17", "a-priori conceptual restriction of the ranking candidate set")
	docs := corpus(20000, 8)
	ix := ir.NewIndex()
	for i, d := range docs {
		ix.Add(bat.OID(i+1), "u", d)
	}
	candidates := map[bat.OID]bool{}
	for i := 1; i <= len(docs); i += 100 {
		candidates[bat.OID(i)] = true
	}
	ix.Freeze()
	const iters = 20
	start := time.Now()
	for i := 0; i < iters; i++ {
		ix.Evaluate(ir.Request{Query: "champion winner serve", Plan: ir.EvalPlan{N: 10}, Candidates: candidates})
	}
	restricted := time.Since(start) / iters
	start = time.Now()
	for i := 0; i < iters; i++ {
		ix.TopN("champion winner serve", len(docs))
	}
	unrestricted := time.Since(start) / iters
	fmt.Printf("  restricted(1%% candidates)=%s  full-ranking=%s  speedup=%.1fx\n",
		restricted, unrestricted, float64(unrestricted)/float64(restricted))
	_ = core.Figure13Query
	sort.Strings(nil)
}

func corpus(n int, seed int64) []string {
	common := []string{"match", "play", "game", "set", "court", "ball"}
	rare := []string{"seles", "hingis", "capriati", "melbourne", "trophy",
		"champion", "winner", "ace", "volley", "smash", "rally", "serve"}
	rng := newRand(seed)
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

func okIf(ok bool) string {
	if ok {
		return "OK"
	}
	return "MISMATCH"
}

func newRand(seed int64) *randSource {
	return &randSource{state: uint64(seed)*2862933555777941757 + 3037000493}
}

// randSource is a tiny deterministic PRNG (xorshift*), avoiding an
// extra math/rand import tangle in this harness.
type randSource struct{ state uint64 }

func (r *randSource) Intn(n int) int {
	r.state ^= r.state >> 12
	r.state ^= r.state << 25
	r.state ^= r.state >> 27
	return int((r.state * 2685821657736338717 >> 33) % uint64(n))
}
