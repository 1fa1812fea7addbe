package dist_test

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dlsearch/internal/bat"
	"dlsearch/internal/core"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/server"
)

// startCodecCluster spins up k node servers, each with a query cache,
// and a cluster of RemoteNodes speaking the given codec to them.
func startCodecCluster(t testing.TB, k int, codec dist.Codec) *dist.Cluster {
	t.Helper()
	nodes := make([]dist.Node, k)
	for i := 0; i < k; i++ {
		cfg := &server.NodeConfig{Cache: core.NewQueryCache(64)}
		srv := httptest.NewServer(server.NewNodeHandler(ir.NewIndex(), cfg))
		t.Cleanup(srv.Close)
		rn := dist.NewRemoteNode(srv.URL, srv.Client())
		rn.SetCodec(codec)
		nodes[i] = rn
	}
	return dist.NewClusterOf(nodes, nil)
}

// TestCodecsByteIdentical is the cross-transport property in one
// {exact, budgeted, quality floor} × {binary, wire} table: for
// k ∈ {1, 2, 4, 8}, frames as HTTP bodies and frames on the
// persistent-connection transport return rankings byte-identical —
// documents AND float-bit-exact scores — to a cluster of in-process
// LocalNodes, with identical quality.
//
// It is also the proof that shipping only the query's share of the
// global statistics changes nothing: every cluster answer is compared
// with the partitions scored directly under the WHOLE merged vocabulary
// (wholeVocabulary), result for result, score bit for score bit and
// quality for quality — over queries chosen for the projection's edges.
func TestCodecsByteIdentical(t *testing.T) {
	// One document carries a term no other has, so for k > 1 exactly one
	// partition knows its stem.
	docs := append(remoteCorpus(300, 11), "zanzibar champion serve")
	queries := []string{
		"champion winner serve",
		"seles",
		"melbourne trophy volley match",
		"quetzalcoatl",                      // a stem no partition knows
		"zanzibar champion",                 // a stem all partitions but one lack
		"champion serve champion champions", // duplicate terms, one only after stemming
		"the of and",                        // nothing but stop words
		"quetzalcoatl the zanzibar",         // all of the above at once
	}
	codecs := []struct {
		name  string
		codec dist.Codec
	}{
		{"binary", dist.CodecBinary},
		{"wire", dist.CodecWire},
	}
	plans := []struct {
		name string
		plan ir.EvalPlan
	}{
		{"exact", ir.EvalPlan{}},
		{"budgeted", ir.EvalPlan{Budget: 1}},
		{"floor", ir.EvalPlan{Budget: 1, MinQuality: 0.9}},
	}
	ctx := context.Background()
	for _, k := range []int{1, 2, 4, 8} {
		local := dist.NewCluster(k, nil)
		clusters := make([]*dist.Cluster, len(codecs))
		for ci, c := range codecs {
			clusters[ci] = startCodecCluster(t, k, c.codec)
		}
		for i, d := range docs {
			local.Add(bat.OID(i+1), "u", d)
			for ci, c := range codecs {
				if err := clusters[ci].AddContext(ctx, bat.OID(i+1), "u", d); err != nil {
					t.Fatalf("codec=%s k=%d add: %v", c.name, k, err)
				}
			}
		}
		for _, q := range queries {
			for _, n := range []int{1, 2, 4, 8} {
				for _, p := range plans {
					plan := p.plan
					plan.N = n
					want := wholeVocabulary(t, local, q, plan)
					got, err := local.SearchPlan(ctx, q, plan)
					if err != nil {
						t.Fatalf("k=%d q=%q n=%d %s local: %v", k, q, n, p.name, err)
					}
					sameSearch(t, fmt.Sprintf("local k=%d q=%q n=%d %s", k, q, n, p.name), got, want)
					for ci, c := range codecs {
						ctxs := fmt.Sprintf("codec=%s k=%d q=%q n=%d %s", c.name, k, q, n, p.name)
						got, err := clusters[ci].SearchPlan(ctx, q, plan)
						if err != nil {
							t.Fatalf("%s: %v", ctxs, err)
						}
						sameSearch(t, ctxs, got, want)
					}
				}
			}
		}
	}
}

// wholeVocabulary is the reference every cluster answer is held to: each
// partition of the in-process cluster scored directly under the whole
// merged vocabulary — what the central site shipped before it projected
// the statistics onto the query — and the RES sets merged centrally.
func wholeVocabulary(t *testing.T, c *dist.Cluster, q string, plan ir.EvalPlan) *dist.SearchResult {
	t.Helper()
	ctx := context.Background()
	whole, err := c.GlobalStatsContext(ctx)
	if err != nil {
		t.Fatalf("global stats: %v", err)
	}
	rankings := make([][]ir.Result, c.Size())
	ests := make([]ir.QualityEstimate, c.Size())
	for g := range rankings {
		if rankings[g], ests[g], err = c.NodeAt(g).SearchPlan(ctx, q, plan, whole); err != nil {
			t.Fatalf("partition %d: %v", g, err)
		}
	}
	return &dist.SearchResult{Results: ir.Merge(plan.N, rankings...), Quality: ir.MergeQuality(ests...)}
}

// sameSearch fails unless got is complete and equals want result for
// result, score bit for score bit and quality for quality.
func sameSearch(t *testing.T, label string, got, want *dist.SearchResult) {
	t.Helper()
	if !got.Complete() {
		t.Fatalf("%s: incomplete: dropped %v diverged %v stale %v", label, got.Dropped, got.Diverged, got.StaleStats)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%s: %d results, want %d", label, len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if got.Results[i] != want.Results[i] {
			t.Fatalf("%s: rank %d = %+v, want %+v", label, i, got.Results[i], want.Results[i])
		}
	}
	if got.Quality != want.Quality {
		t.Fatalf("%s: quality %v, want %v", label, got.Quality, want.Quality)
	}
}

// TestWireConnTransport exercises the persistent-connection hot path
// directly: WireInfo reports the upgraded transport, traffic is
// counted, and shutting the node down — http.Server.Shutdown, then
// NodeServer.Close, as cmd/dlserve does — reaps the hijacked connections
// (which left the http.Server's own accounting).
func TestWireConnTransport(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ns := server.NewNodeServer(ir.NewIndex(), nil)
	srv := &http.Server{Handler: ns.Handler()}
	done := make(chan struct{})
	go func() { srv.Serve(ln); close(done) }()

	rn := dist.NewRemoteNode("http://"+ln.Addr().String(), &http.Client{Timeout: 5 * time.Second})
	rn.SetCodec(dist.CodecWire)
	ctx := context.Background()
	if err := rn.Add(ctx, 1, "u", "melbourne champion ace"); err != nil {
		t.Fatalf("add: %v", err)
	}
	stats, err := rn.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	rs, err := rn.TopNWithStats(ctx, "champion", 5, stats)
	if err != nil {
		t.Fatalf("topn: %v", err)
	}
	if len(rs) != 1 || rs[0].Doc != 1 {
		t.Fatalf("topn over wire conn: %+v", rs)
	}
	codec, in, out := rn.WireInfo()
	if codec != "wire" {
		t.Fatalf("codec = %q, want wire", codec)
	}
	if in == 0 || out == 0 {
		t.Fatalf("wire traffic not counted: in=%d out=%d", in, out)
	}

	// Shutting down must close the upgraded conns, not leave their
	// serve loops running: afterwards the same RemoteNode cannot reach
	// the node at all (redial refused), like any dead peer. Shutdown
	// alone only starts the reap (its hooks run on their own
	// goroutines); Close returns once the serve loops are gone.
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-done
	ns.Close()
	if _, err := rn.TopNWithStats(ctx, "champion", 5, stats); err == nil {
		t.Fatal("RPC succeeded against a shut-down node")
	}
}

// TestWireConnSaturationSheds: framed RPCs draw from the same
// in-flight budget as HTTP requests — a saturated node answers a
// framed 503 rather than queueing unboundedly, and the client
// surfaces it as an error.
func TestWireConnSaturationSheds(t *testing.T) {
	// MaxConcurrent 1 and a burst of 16 concurrent framed RPCs: the
	// slot serialises them, and any RPC arriving while the slot is
	// held is answered with a framed 503 that surfaces as a clean
	// client-side error — never a deadlock, never a torn stream.
	ix := ir.NewIndex()
	ix.Add(1, "u", "champion")
	srv := httptest.NewServer(server.NewNodeHandler(ix, &server.NodeConfig{MaxConcurrent: 1}))
	t.Cleanup(srv.Close)

	rn := dist.NewRemoteNode(srv.URL, srv.Client())
	rn.SetCodec(dist.CodecWire)
	stats, err := rn.Stats(context.Background())
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func() {
			_, err := rn.TopNWithStats(context.Background(), "champion", 3, stats)
			errs <- err
		}()
	}
	var ok, shed int
	for i := 0; i < 16; i++ {
		if err := <-errs; err == nil {
			ok++
		} else {
			shed++
		}
	}
	if ok == 0 {
		t.Fatal("every concurrent wire RPC failed")
	}
	t.Logf("16 concurrent RPCs over MaxConcurrent=1: %d served, %d shed", ok, shed)
}
