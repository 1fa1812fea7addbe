package dist_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dlsearch/internal/bat"
	"dlsearch/internal/core"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/obs"
	"dlsearch/internal/persist"
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
// {exact, budget b of 8, quality floor} × {binary, wire, wire traced}
// table: for k ∈ {1, 2, 4, 8} nodes, an in-process cluster, frames as
// HTTP bodies, frames on the persistent-connection transport, and
// traced frames on it (every query run with a request-ID trace in its
// context, as the coordinator runs each /search) all return what ONE
// ir.Index over the whole corpus returns under the same plan: the
// ranking byte-identical — documents AND float-bit-exact scores — and
// the same quality estimate. The cut-off is the coordinator's, under
// global df, so no partitioning moves it.
//
// It is also the proof that shipping only the query's share of the
// global statistics changes nothing: every exact answer is compared
// with the partitions scored directly under the WHOLE merged vocabulary
// (wholeVocabulary) too — over queries chosen for the projection's
// edges.
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
		name   string
		codec  dist.Codec
		traced bool
	}{
		{"binary", dist.CodecBinary, false},
		{"wire", dist.CodecWire, false},
		{"wire-traced", dist.CodecWire, true},
	}
	plans := []struct {
		name string
		plan ir.EvalPlan
	}{
		{"exact", ir.EvalPlan{}},
		{"budget=1-of-8", ir.EvalPlan{Frags: 8, Budget: 1}},
		{"budget=2-of-8", ir.EvalPlan{Frags: 8, Budget: 2}},
		{"budget=4-of-8", ir.EvalPlan{Frags: 8, Budget: 4}},
		{"budget=8-of-8", ir.EvalPlan{Frags: 8, Budget: 8}},
		{"budgeted", ir.EvalPlan{Budget: 1}},
		{"floor", ir.EvalPlan{Budget: 1, MinQuality: 0.9}},
	}
	ctx := context.Background()
	single := ir.NewIndex()
	for i, d := range docs {
		single.Add(bat.OID(i+1), "u", d)
	}
	single.Freeze()
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
					res, est := single.Evaluate(ir.Request{Query: q, Plan: plan})
					want := &dist.SearchResult{Results: res, Quality: est}
					if plan.Exact() {
						sameSearch(t, fmt.Sprintf("whole vocabulary k=%d q=%q n=%d", k, q, n), wholeVocabulary(t, local, q, plan), want)
					}
					got, err := local.SearchPlan(ctx, q, plan)
					if err != nil {
						t.Fatalf("k=%d q=%q n=%d %s local: %v", k, q, n, p.name, err)
					}
					sameSearch(t, fmt.Sprintf("local k=%d q=%q n=%d %s", k, q, n, p.name), got, want)
					for ci, c := range codecs {
						ctxs := fmt.Sprintf("codec=%s k=%d q=%q n=%d %s", c.name, k, q, n, p.name)
						qctx := ctx
						if c.traced {
							qctx = obs.NewContext(ctx, obs.NewTrace(fmt.Sprintf("k%dn%d%s", k, n, p.name)))
						}
						got, err := clusters[ci].SearchPlan(qctx, q, plan)
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

// oldBuildListener serves connections whose node answers the wire
// upgrade as a build from before traced frames did: the 101 carries no
// persist.WireTracedHeader. It also keeps every byte the node read, so
// a test can tell which frame kinds arrived.
type oldBuildListener struct {
	net.Listener
	mu   sync.Mutex
	read bytes.Buffer
}

func (l *oldBuildListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &oldBuildConn{Conn: c, l: l}, nil
}

// received reports whether the node read bytes containing sub.
func (l *oldBuildListener) received(sub []byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return bytes.Contains(l.read.Bytes(), sub)
}

type oldBuildConn struct {
	net.Conn
	l *oldBuildListener
}

func (c *oldBuildConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.mu.Lock()
	c.l.read.Write(p[:n])
	c.l.mu.Unlock()
	return n, err
}

// Write drops the advertisement from the upgrade answer, which the
// node writes in one piece.
func (c *oldBuildConn) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("HTTP/1.1 101 ")) {
		adv := []byte(persist.WireTracedHeader + ": 1\r\n")
		if !bytes.Contains(p, adv) {
			return 0, fmt.Errorf("upgrade answer without the advertisement: %q", p)
		}
		if _, err := c.Conn.Write(bytes.Replace(p, adv, nil, 1)); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// TestTracedSearchToOldNode covers version skew the other way round: a
// new coordinator over nodes whose upgrade answer lacks the traced-frame
// advertisement. Traced searches reach them as HTTP bodies carrying the
// request ID in X-DL-Request, no traced frame is ever sent, untraced
// searches and batches keep the persistent connection, and rankings are
// byte-identical to in-process nodes.
func TestTracedSearchToOldNode(t *testing.T) {
	docs := remoteCorpus(200, 5)
	const k = 2
	local := dist.NewCluster(k, nil)
	nodes := make([]dist.Node, k)
	var listeners []*oldBuildListener
	var mu sync.Mutex
	var headerIDs []string // X-DL-Request of every HTTP /node/search
	for i := range nodes {
		ns := server.NewNodeServer(ir.NewIndex(), nil)
		h := ns.Handler()
		srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == dist.PathNodeSearch {
				mu.Lock()
				headerIDs = append(headerIDs, r.Header.Get(obs.HeaderRequestID))
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
		}))
		ln := &oldBuildListener{Listener: srv.Listener}
		srv.Listener = ln
		srv.Start()
		listeners = append(listeners, ln)
		rn := dist.NewRemoteNode(srv.URL, srv.Client())
		rn.SetCodec(dist.CodecWire)
		t.Cleanup(func() { rn.SetCodec(dist.CodecBinary); srv.Close(); ns.Close() })
		nodes[i] = rn
	}
	remote := dist.NewClusterOf(nodes, nil)
	ctx := context.Background()
	single := ir.NewIndex()
	for i, d := range docs {
		local.Add(bat.OID(i+1), "u", d)
		single.Add(bat.OID(i+1), "u", d)
		if err := remote.AddContext(ctx, bat.OID(i+1), "u", d); err != nil {
			t.Fatalf("add: %v", err)
		}
	}
	single.Freeze()
	var ids []string
	reach := map[string]int{} // nodes each traced search asks: those holding an admitted stem
	for i, q := range []string{"champion winner serve", "seles", "melbourne trophy volley match", "quetzalcoatl"} {
		for _, plan := range []ir.EvalPlan{{N: 5}, {N: 5, Budget: 1}} {
			want, err := local.SearchPlan(ctx, q, plan)
			if err != nil {
				t.Fatal(err)
			}
			id := fmt.Sprintf("old-build-%d-%d", i, plan.Budget)
			ids = append(ids, id)
			reach[id] = countTrue(admittedGroups(t, remote, single, q, plan))
			got, err := remote.SearchPlan(obs.NewContext(ctx, obs.NewTrace(id)), q, plan)
			if err != nil {
				t.Fatalf("traced %q: %v", q, err)
			}
			sameSearch(t, "traced "+q, got, want)
			if got, err = remote.SearchPlan(ctx, q, plan); err != nil {
				t.Fatalf("untraced %q: %v", q, err)
			}
			sameSearch(t, "untraced "+q, got, want)
		}
	}

	// Every traced search reached every node it asked over HTTP with its
	// ID, and only those: the untraced ones rode the connection. A search
	// asks the nodes holding a stem its cut-off admits, so "quetzalcoatl"
	// reaches none.
	mu.Lock()
	defer mu.Unlock()
	traced := 0
	for _, id := range ids {
		traced += reach[id]
	}
	if len(headerIDs) != traced || traced == 0 {
		t.Fatalf("%d HTTP searches (IDs %q), want the %d node calls of the traced searches", len(headerIDs), headerIDs, traced)
	}
	arrived := map[string]int{}
	for _, id := range headerIDs {
		arrived[id]++
	}
	for _, id := range ids {
		if arrived[id] != reach[id] {
			t.Fatalf("request ID %s reached the nodes %d times (IDs %q), want %d", id, arrived[id], headerIDs, reach[id])
		}
	}
	for i, ln := range listeners {
		if ln.received([]byte("DLWIRE\x01\x05")) {
			t.Fatalf("node %d read a traced frame although it never advertised one", i)
		}
		if !ln.received([]byte("Upgrade: " + persist.WireProtocol)) {
			t.Fatalf("node %d: the client never upgraded a connection", i)
		}
	}
	for i, n := range nodes {
		if codec, _, _ := n.(*dist.RemoteNode).WireInfo(); codec != "wire" {
			t.Fatalf("node %d: WireInfo codec = %q, want wire", i, codec)
		}
	}
}

// wholeVocabulary is each partition of the in-process cluster scored
// directly under the exact plan and the whole merged vocabulary — what
// the central site shipped before it projected the statistics onto the
// query — and the RES sets merged centrally.
func wholeVocabulary(t *testing.T, c *dist.Cluster, q string, plan ir.EvalPlan) *dist.SearchResult {
	t.Helper()
	ctx := context.Background()
	whole, err := c.GlobalStatsContext(ctx)
	if err != nil {
		t.Fatalf("global stats: %v", err)
	}
	rankings := make([][]ir.Result, c.Size())
	for g := range rankings {
		if rankings[g], _, err = c.NodeAt(g).SearchPlan(ctx, q, plan, whole); err != nil {
			t.Fatalf("partition %d: %v", g, err)
		}
	}
	return &dist.SearchResult{Results: ir.Merge(plan.N, rankings...)}
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
