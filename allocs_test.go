package dlsearch

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"dlsearch/internal/bat"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/obs"
	"dlsearch/internal/server"
)

// allocBudgets is the allocation ledger, keyed layer/row: the most heap
// allocations one operation of the row may take. Each bound is
// ceil(1.05 × the largest count over 20 runs of the row on the tree
// that set it); the counts are stable to one allocation, and 5 % is
// the slack at which one extra allocation per node RPC (search,
// 8 nodes) or per streamed document (stream) already fails. A row with
// sameAs must also allocate exactly what the named row allocates.
var allocBudgets = []struct {
	row    string
	bound  float64
	sameAs string
}{
	{row: "ir/evaluate/cutoff=1-of-8", bound: 3},
	{row: "ir/evaluate/cutoff=2-of-8", bound: 3},
	{row: "ir/evaluate/cutoff=4-of-8", bound: 3},
	{row: "ir/evaluate/cutoff=8-of-8", bound: 3},
	{row: "ir/evaluate/exact/pruned", bound: 3},
	{row: "ir/compressed/plain", bound: 3},
	{row: "ir/compressed/budget=1/4", bound: 3},
	{row: "ir/compressed/budget=1/16", bound: 3},
	{row: "dist/node/bare", bound: 3},
	{row: "dist/node/metrics-attached", bound: 3, sameAs: "dist/node/bare"},
	{row: "server/search/codec=binary/nodes=1", bound: 122},
	{row: "server/search/codec=binary/nodes=2", bound: 236},
	{row: "server/search/codec=binary/nodes=4", bound: 460},
	{row: "server/search/codec=binary/nodes=8", bound: 910},
	{row: "server/search/codec=wire/nodes=1", bound: 23},
	{row: "server/search/codec=wire/nodes=2", bound: 35},
	{row: "server/search/codec=wire/nodes=4", bound: 60},
	{row: "server/search/codec=wire/nodes=8", bound: 111},
	{row: "server/search/codec=wire/traced/nodes=1", bound: 33},
	{row: "server/search/codec=wire/traced/nodes=2", bound: 51},
	{row: "server/search/codec=wire/traced/nodes=4", bound: 84},
	{row: "server/search/codec=wire/traced/nodes=8", bound: 154},
	{row: "server/search/budget=1-of-8", bound: 450},
	{row: "server/search/budget=2-of-8", bound: 459},
	{row: "server/search/budget=4-of-8", bound: 464},
	{row: "server/search/budget=8-of-8", bound: 468},
	{row: "server/search/budget=1-of-8/nothing-admitted", bound: 5},
	{row: "server/stream/docs=1000", bound: 4630},
}

// allocRuns is how many operations each row's count averages over.
const allocRuns = 20

// TestAllocBudgets holds every row of allocBudgets: it builds the
// row's fixture, checks one operation's answer, then counts the
// operation's allocations with testing.AllocsPerRun (which pins
// GOMAXPROCS to 1). End-to-end cost is dlbench's job; this table is
// the deterministic allocation contract under it.
func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so allocation counts inflate")
	}
	layers := []struct {
		name string
		ops  func(t *testing.T) map[string]func() error
	}{
		{"ir", irAllocOps},
		{"dist", distAllocOps},
		{"server", serverAllocOps},
	}
	counts := map[string]float64{}
	for _, layer := range layers {
		t.Run(layer.name, func(t *testing.T) {
			ops := layer.ops(t)
			for _, b := range allocBudgets {
				name, row, _ := strings.Cut(b.row, "/")
				if name != layer.name {
					continue
				}
				op := ops[row]
				delete(ops, row)
				t.Run(row, func(t *testing.T) {
					if op == nil {
						t.Fatal("no fixture builds this row")
					}
					var err error // the answer check; AllocsPerRun's warm-up call runs it too
					got := testing.AllocsPerRun(allocRuns, func() {
						if e := op(); e != nil {
							err = e
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					counts[b.row] = got
					t.Logf("%v allocs/op (bound %v)", got, b.bound)
					if got > b.bound {
						t.Errorf("%v allocs/op, over the budget of %v", got, b.bound)
					}
					if want, ok := counts[b.sameAs]; ok && got != want {
						t.Errorf("%v allocs/op, want exactly the %v of %s", got, want, b.sameAs)
					}
				})
			}
			for row := range ops {
				t.Errorf("%s/%s has no budget", layer.name, row)
			}
		})
	}
}

// irAllocOps builds the scoring rows: the a-priori fragment cut-off
// (E10), an exact plan that MaxScore prunes, and the compressed cold
// postings (E19).
func irAllocOps(t *testing.T) map[string]func() error {
	ops := map[string]func() error{}
	ix := ir.NewIndex()
	for i, d := range textCorpus(5000, 10) {
		ix.Add(bat.OID(i+1), "u", d)
	}
	ix.Freeze()
	for _, frags := range []int{1, 2, 4, 8} {
		req := ir.Request{Query: "seles champion volley match", Plan: ir.EvalPlan{N: 10, Budget: frags}}
		ops[fmt.Sprintf("evaluate/cutoff=%d-of-8", frags)] = func() error {
			if res, _ := ix.Evaluate(req); len(res) != 10 {
				return fmt.Errorf("%d results, want 10", len(res))
			}
			return nil
		}
	}
	// An exact plan on which MaxScore fires: the answer check demands
	// skipped postings, so the row counts the pruned path.
	pruned := ir.Request{Query: "seles champion volley match", Plan: ir.EvalPlan{N: 10}}
	ops["evaluate/exact/pruned"] = func() error {
		_, skipped := ix.PostingCounts()
		if res, _ := ix.Evaluate(pruned); len(res) != 10 {
			return fmt.Errorf("%d results, want 10", len(res))
		}
		if _, after := ix.PostingCounts(); after == skipped {
			return fmt.Errorf("no posting skipped: the row does not measure pruning")
		}
		return nil
	}

	docs := textCorpus(5000, 6)
	for _, cfg := range []struct {
		name      string
		budgetDiv int
	}{{"plain", 0}, {"budget=1/4", 4}, {"budget=1/16", 16}} {
		ix := ir.NewIndex()
		for i, d := range docs {
			ix.Add(bat.OID(i+1), "u", d)
		}
		ix.Freeze()
		if cfg.budgetDiv > 0 {
			plain, _, _ := ix.MemoryFootprint()
			ix.SetMemoryBudget(plain / cfg.budgetDiv)
		}
		ops["compressed/"+cfg.name] = func() error {
			if res := ix.TopN("seles champion volley match", 10); len(res) != 10 {
				return fmt.Errorf("%d results, want 10", len(res))
			}
			return nil
		}
	}
	return ops
}

// distAllocOps builds one node's scoring path bare and with metrics
// attached: observation adds a clock read and an atomic
// histogram update, never an allocation.
func distAllocOps(t *testing.T) map[string]func() error {
	ix := ir.NewIndex()
	for i, d := range textCorpus(5000, 21) {
		ix.Add(bat.OID(i+1), "u", d)
	}
	bare := dist.NewLocalNode(ix)
	global, err := bare.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	instrumented := dist.NewLocalNode(ix)
	reg := obs.NewRegistry()
	instrumented.SetMetrics(&dist.NodeMetrics{
		Scoring:    reg.Histogram("dl_node_scoring_seconds", "scoring wall time", "", obs.LatencyBounds()),
		IngestDocs: reg.Counter("dl_node_ingest_docs_total", "ingested docs", ""),
		LockWait:   dist.LockWait{Search: reg.Histogram("dl_node_lock_wait_seconds", "lock wait", "", obs.LatencyBounds())},
	})
	search := func(node *dist.LocalNode) func() error {
		return func() error {
			res, _, err := node.SearchPlan(context.Background(), "seles champion volley match", ir.EvalPlan{N: 10}, global)
			if err != nil || len(res) == 0 {
				return fmt.Errorf("search: %v (%d results)", err, len(res))
			}
			return nil
		}
	}
	return map[string]func() error{
		"node/bare":             search(bare),
		"node/metrics-attached": search(instrumented),
	}
}

// serverAllocOps builds the serving rows: an exact distributed top-N
// over httptest node servers per codec and node count, the
// fragment-budget sweep over 4 nodes,
// and a 1 000-document NDJSON stream through a coordinator whose body
// cap the stream far exceeds.
func serverAllocOps(t *testing.T) map[string]func() error {
	ops := map[string]func() error{}
	ctx := context.Background()
	docs := textCorpus(2000, 4)
	cluster := func(k int, codec dist.Codec) *dist.Cluster {
		nodes := make([]dist.Node, k)
		for i := range nodes {
			srv := httptest.NewServer(server.NewNodeHandler(ir.NewIndex(), nil))
			t.Cleanup(srv.Close)
			rn := dist.NewRemoteNode(srv.URL, srv.Client())
			rn.SetCodec(codec)
			nodes[i] = rn
		}
		c := dist.NewClusterOf(nodes, nil)
		for i, d := range docs {
			if err := c.AddContext(ctx, bat.OID(i+1), "u", d); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	// traced is non-empty for rows whose every search carries a fresh
	// request-ID trace in its context, as each coordinator /search does;
	// results is the ranking's length.
	search := func(c *dist.Cluster, query string, plan ir.EvalPlan, traced string, results int) func() error {
		return func() error {
			ctx := ctx
			if traced != "" {
				ctx = obs.NewContext(ctx, obs.NewTrace(traced))
			}
			sr, err := c.SearchPlan(ctx, query, plan)
			if err != nil {
				return err
			}
			if len(sr.Results) != results || !sr.Complete() {
				return fmt.Errorf("results=%d dropped=%v", len(sr.Results), sr.Dropped)
			}
			return nil
		}
	}
	for _, cc := range []struct {
		name   string
		codec  dist.Codec
		traced string
	}{{"binary", dist.CodecBinary, ""}, {"wire", dist.CodecWire, ""}, {"wire/traced", dist.CodecWire, "3dcc9328f078fc1b"}} {
		for _, k := range []int{1, 2, 4, 8} {
			ops[fmt.Sprintf("search/codec=%s/nodes=%d", cc.name, k)] =
				search(cluster(k, cc.codec), "champion winner serve", ir.EvalPlan{N: 10}, cc.traced, 10)
		}
	}
	// The query holds a term of the rarest of the corpus's eight
	// fragments ("trophy"), so every budget has postings to score.
	budgeted := cluster(4, dist.CodecBinary)
	for _, budget := range []int{1, 2, 4, 8} {
		ops[fmt.Sprintf("search/budget=%d-of-8", budget)] =
			search(budgeted, "seles champion trophy match", ir.EvalPlan{N: 10, Frags: 8, Budget: budget}, "", 10)
	}
	// Common stems only: none lies in the rarest fragment, so budget 1
	// admits nothing and the coordinator answers without a node call.
	ops["search/budget=1-of-8/nothing-admitted"] =
		search(budgeted, "match ball court", ir.EvalPlan{N: 10, Frags: 8, Budget: 1}, "", 0)

	const streamDocs = 1000
	var body strings.Builder
	for i, text := range textCorpus(streamDocs, 11) {
		fmt.Fprintf(&body, `{"index":"a","doc":%d,"url":"u%d","text":%q}`, i+1, i+1, text)
		body.WriteByte('\n')
	}
	const maxBody = 4096
	if body.Len() <= maxBody {
		t.Fatal("stream body does not exceed the cap")
	}
	committed := fmt.Sprintf(`"committed":%d,"degraded":0,"failed":0,"errors":0`, streamDocs)
	ops[fmt.Sprintf("stream/docs=%d", streamDocs)] = func() error {
		co := server.NewCoordinator(
			map[string]*dist.Cluster{"a": dist.NewCluster(2, nil)},
			&server.CoordinatorConfig{MaxBody: maxBody})
		w := httptest.NewRecorder()
		co.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/add/stream", strings.NewReader(body.String())))
		if out := w.Body.String(); w.Code != 200 || !strings.Contains(out, committed) {
			return fmt.Errorf("/add/stream = %d, did not commit the corpus: %.200s", w.Code, out[max(0, len(out)-200):])
		}
		return nil
	}
	return ops
}
