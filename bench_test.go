// Root benchmark harness: one benchmark (family) per experiment of
// DESIGN.md's index. The paper reports no absolute numbers, so the
// benches regenerate the *shape* of each claim: who wins, by what
// factor, and how the series move with the sweep parameter. Module-
// local micro-experiments (E13 token stacks, E15 HMM) live in their
// packages; cmd/experiments prints the full paper-vs-measured tables.
package dlsearch

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dlsearch/internal/bat"
	"dlsearch/internal/cobra"
	"dlsearch/internal/core"
	"dlsearch/internal/detector"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/monetxml"
	"dlsearch/internal/obs"
	"dlsearch/internal/server"
	"dlsearch/internal/slo"
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

// --- E09: path-clustered relations vs generic edge mapping ---

func BenchmarkE09PathQuery(b *testing.B) {
	for _, docs := range []int{200, 1000} {
		ms := monetxml.NewStore()
		es := monetxml.NewEdgeStore()
		for d := 0; d < docs; d++ {
			n := monetxml.MustParseNode(xmlDoc(d, 5))
			if _, err := ms.LoadNode("u", n); err != nil {
				b.Fatal(err)
			}
			es.LoadNode(n)
		}
		b.Run(fmt.Sprintf("monet/docs=%d", docs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				got, err := ms.NodesAt("article/section/para")
				if err != nil || len(got) != docs*10 {
					b.Fatalf("got %d, err %v", len(got), err)
				}
			}
		})
		b.Run(fmt.Sprintf("edge/docs=%d", docs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				got := es.NodesAt("article/section/para")
				if len(got) != docs*10 {
					b.Fatalf("got %d", len(got))
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
	ix.Fragmentize(8)
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

// --- E11: shared-nothing distribution ---

func BenchmarkE11DistributedTopN(b *testing.B) {
	docs := textCorpus(8000, 4)
	for _, k := range []int{1, 2, 4, 8} {
		c := dist.NewCluster(k, nil)
		for i, d := range docs {
			c.Add(bat.OID(i+1), "u", d)
		}
		b.Run(fmt.Sprintf("parallel/nodes=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := c.TopN("champion winner serve", 10); len(got) != 10 {
					b.Fatalf("got %d", len(got))
				}
			}
		})
	}
}

// --- E11 remote: the networked cluster over HTTP node servers ---

// BenchmarkE11RemoteTopN measures the network overhead of the serving
// layer: the same shared-nothing top-N as E11, but every node lives
// behind an httptest HTTP server and is reached through
// dist.RemoteNode (JSON round-trips, loopback transport). Compare
// against E11DistributedTopN/parallel to read the per-query cost of
// the network boundary.
func BenchmarkE11RemoteTopN(b *testing.B) {
	docs := textCorpus(2000, 4)
	ctx := context.Background()
	for _, k := range []int{1, 2, 4, 8} {
		nodes := make([]dist.Node, k)
		for i := range nodes {
			srv := httptest.NewServer(server.NewNodeHandler(ir.NewIndex(),
				&server.NodeConfig{Cache: core.NewQueryCache(64)}))
			b.Cleanup(srv.Close)
			nodes[i] = dist.NewRemoteNode(srv.URL, srv.Client())
		}
		c := dist.NewClusterOf(nodes, nil)
		for i, d := range docs {
			if err := c.AddContext(ctx, bat.OID(i+1), "u", d); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("nodes=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sr, err := c.Search(ctx, "champion winner serve", 10)
				if err != nil {
					b.Fatal(err)
				}
				if len(sr.Results) != 10 || !sr.Complete() {
					b.Fatalf("results=%d dropped=%v", len(sr.Results), sr.Dropped)
				}
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

// --- E16: top-N pushdown vs naive full ranking ---
//
// The naive plan materialises the query terms' postings, scores every
// matching document in a map and sorts the full ranking; the optimized
// plan scans the posting columns into a score slice and selects the
// top n with a bounded heap.

func BenchmarkE16TopN(b *testing.B) {
	docs := textCorpus(5000, 6)
	ix := ir.NewIndex()
	for i, d := range docs {
		ix.Add(bat.OID(i+1), "u", d)
	}
	const query = "seles trophy"
	b.Run("optimized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.TopN(query, 10)
		}
	})
	b.Run("naive-full-ranking", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.TopNNaive(query, 10)
		}
	})
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

// --- E18: fragment-budgeted distributed search ---

// BenchmarkE18FragmentBudgetRemote sweeps the fragment budget over a
// cluster of HTTP node servers: the a-priori cut-off of E10 pushed
// below the per-node RES sets of E11. budget=8-of-8 is the exact
// search (byte-identical to /search without a plan); smaller budgets
// trade reported quality for latency — the quality metric is the
// cluster-wide estimate the coordinator returns.
func BenchmarkE18FragmentBudgetRemote(b *testing.B) {
	docs := textCorpus(2000, 4)
	ctx := context.Background()
	const k = 4
	nodes := make([]dist.Node, k)
	for i := range nodes {
		srv := httptest.NewServer(server.NewNodeHandler(ir.NewIndex(), nil))
		b.Cleanup(srv.Close)
		nodes[i] = dist.NewRemoteNode(srv.URL, srv.Client())
	}
	c := dist.NewClusterOf(nodes, nil)
	for i, d := range docs {
		if err := c.AddContext(ctx, bat.OID(i+1), "u", d); err != nil {
			b.Fatal(err)
		}
	}
	const query = "seles champion volley match"
	for _, budget := range []int{1, 2, 4, 8} {
		plan := ir.EvalPlan{N: 10, Frags: 8, Budget: budget}
		sr, err := c.SearchPlan(ctx, query, plan)
		if err != nil {
			b.Fatal(err)
		}
		quality := sr.Quality.Value()
		b.Run(fmt.Sprintf("budget=%d-of-8", budget), func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(quality, "quality")
			for i := 0; i < b.N; i++ {
				sr, err := c.SearchPlan(ctx, query, plan)
				if err != nil {
					b.Fatal(err)
				}
				if len(sr.Results) == 0 || !sr.Complete() {
					b.Fatalf("results=%d dropped=%v", len(sr.Results), sr.Dropped)
				}
			}
		})
	}
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

// --- E20: observability overhead ---

// The instrumentation must be invisible on the hot path: with metrics
// attached, LocalNode.SearchPlan adds exactly one clock read and
// one atomic histogram observation around the identical scoring code —
// no locks, no allocations. The "bare" and "instrumented" sub-benches
// run the same node-level top-N; the delta IS the cost of observation
// and must stay within a few percent with 0 allocs/op difference.
func BenchmarkE20ObservabilityOverhead(b *testing.B) {
	docs := textCorpus(5000, 21)
	ix := ir.NewIndex()
	for i, d := range docs {
		ix.Add(bat.OID(i+1), "u", d)
	}
	node := dist.NewLocalNode(ix)
	global, err := node.Stats(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	const query = "seles champion volley match"
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, _, err := node.SearchPlan(context.Background(), query, ir.EvalPlan{N: 10}, global)
			if err != nil || len(res) == 0 {
				b.Fatalf("topn: %v (%d results)", err, len(res))
			}
		}
	}
	b.Run("bare", run)
	reg := obs.NewRegistry()
	node.SetMetrics(&dist.NodeMetrics{
		Scoring:    reg.Histogram("dl_node_scoring_seconds", "scoring wall time", "", obs.LatencyBounds()),
		IngestDocs: reg.Counter("dl_node_ingest_docs_total", "ingested docs", ""),
	})
	b.Run("instrumented", run)
}

// --- E21: binary wire protocol + persistent-connection transport ---

// BenchmarkE21BinaryWire re-runs E11RemoteTopN's distributed top-N
// over each transport of the framed binary codec: "binary" sends each
// frame as an HTTP body, "wire" uses the persistent-connection
// transport — one upgraded conn per node, one frame out and one back
// per RPC, no per-query HTTP. The acceptance bar of the binary-wire PR
// reads the nodes=1 rows: codec=wire must carry ≥5× fewer bytes/op and
// allocs/op than pr2_network's JSON baseline (15329 B/op, 223
// allocs/op).
func BenchmarkE21BinaryWire(b *testing.B) {
	docs := textCorpus(2000, 4)
	ctx := context.Background()
	codecs := []struct {
		name  string
		codec dist.Codec
	}{
		{"binary", dist.CodecBinary},
		{"wire", dist.CodecWire},
	}
	for _, cc := range codecs {
		for _, k := range []int{1, 2, 4, 8} {
			nodes := make([]dist.Node, k)
			for i := range nodes {
				srv := httptest.NewServer(server.NewNodeHandler(ir.NewIndex(),
					&server.NodeConfig{Cache: core.NewQueryCache(64)}))
				b.Cleanup(srv.Close)
				rn := dist.NewRemoteNode(srv.URL, srv.Client())
				rn.SetCodec(cc.codec)
				nodes[i] = rn
			}
			c := dist.NewClusterOf(nodes, nil)
			for i, d := range docs {
				if err := c.AddContext(ctx, bat.OID(i+1), "u", d); err != nil {
					b.Fatal(err)
				}
			}
			b.Run(fmt.Sprintf("codec=%s/nodes=%d", cc.name, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sr, err := c.Search(ctx, "champion winner serve", 10)
					if err != nil {
						b.Fatal(err)
					}
					if len(sr.Results) != 10 || !sr.Complete() {
						b.Fatalf("results=%d dropped=%v", len(sr.Results), sr.Dropped)
					}
				}
			})
		}
	}
}

// --- E22: adaptive serving (SLO budget controller) ---

// BenchmarkE22AdaptiveServe prices the PR 9 control loop. "decide" is
// the coordinator's per-query hot path — one controller decision plus
// one curve observation over a fully warmed quality/latency curve —
// and must report 0 allocs/op (the E20 discipline: observation may not
// allocate). The budget sweep re-runs E18's budgeted remote top-N with
// the cost model attached: every node reports (budget, latency,
// quality) into the curve on every query, so the delta against E18's
// raw numbers is the full price of learning the curve in production.
func BenchmarkE22AdaptiveServe(b *testing.B) {
	ctl := slo.New(slo.Config{Target: 10 * time.Millisecond, MaxBudget: 8, MinQuality: 0.3})
	curve := ctl.Curve("bench")
	for budget := 1; budget <= 8; budget++ {
		for i := 0; i < 50; i++ {
			curve.ObserveCost(budget, float64(budget)*0.002, float64(budget)/8)
		}
	}
	b.Run("decide", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := ctl.Decide("bench", ctl.Target(), 1.5)
			curve.ObserveCost(d.Budget, 0.004, 0.5)
		}
	})

	docs := textCorpus(2000, 4)
	ctx := context.Background()
	const k = 4
	nodes := make([]dist.Node, k)
	for i := range nodes {
		srv := httptest.NewServer(server.NewNodeHandler(ir.NewIndex(), nil))
		b.Cleanup(srv.Close)
		nodes[i] = dist.NewRemoteNode(srv.URL, srv.Client())
	}
	c := dist.NewClusterOf(nodes, nil)
	served := slo.New(slo.Config{Target: 50 * time.Millisecond, MaxBudget: 8})
	c.SetCostCurve(served.Curve("bench"))
	for i, d := range docs {
		if err := c.AddContext(ctx, bat.OID(i+1), "u", d); err != nil {
			b.Fatal(err)
		}
	}
	const query = "seles champion volley match"
	for _, budget := range []int{1, 2, 4, 8} {
		plan := ir.EvalPlan{N: 10, Frags: 8, Budget: budget}
		sr, err := c.SearchPlan(ctx, query, plan)
		if err != nil {
			b.Fatal(err)
		}
		quality := sr.Quality.Value()
		b.Run(fmt.Sprintf("observed/budget=%d-of-8", budget), func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(quality, "quality")
			for i := 0; i < b.N; i++ {
				sr, err := c.SearchPlan(ctx, query, plan)
				if err != nil {
					b.Fatal(err)
				}
				if len(sr.Results) == 0 || !sr.Complete() {
					b.Fatalf("results=%d dropped=%v", len(sr.Results), sr.Dropped)
				}
			}
		})
	}
	if pts := served.Curve("bench").Snapshot(); len(pts) == 0 {
		b.Fatal("benchmark ran with no curve observations")
	}
}

// --- E23: streaming NDJSON ingest ---

// BenchmarkE23StreamIngest prices the coordinator's write path: a
// 1000-document corpus enters a fresh 2-partition cluster as one
// NDJSON /add/stream whose total size far exceeds the coordinator's
// 4KiB body cap (per-line decode, per-index batches of 256), holding
// O(line + batch) memory however large the corpus.
func BenchmarkE23StreamIngest(b *testing.B) {
	const docs = 1000
	var body strings.Builder
	for i, text := range textCorpus(docs, 11) {
		fmt.Fprintf(&body, `{"index":"a","doc":%d,"url":"u%d","text":%q}`, i+1, i+1, text)
		body.WriteByte('\n')
	}
	if body.Len() <= 4096 {
		b.Fatal("stream body does not exceed the cap")
	}
	const committed = `"committed":1000,"degraded":0,"failed":0,"errors":0`
	b.Run(fmt.Sprintf("stream/docs=%d", docs), func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(body.Len()))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			co := server.NewCoordinator(
				map[string]*dist.Cluster{"a": dist.NewCluster(2, nil)},
				&server.CoordinatorConfig{MaxBody: 4096})
			h := co.Handler()
			req := httptest.NewRequest("POST", "/add/stream", strings.NewReader(body.String()))
			w := httptest.NewRecorder()
			b.StartTimer()
			h.ServeHTTP(w, req)
			b.StopTimer()
			out := w.Body.String()
			if w.Code != 200 || !strings.Contains(out, committed) {
				b.Fatalf("/add/stream = %d, did not commit the corpus: %.200s", w.Code, out[max(0, len(out)-200):])
			}
			b.StartTimer()
		}
	})
}
