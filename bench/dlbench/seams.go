package main

// seams.go is the only file of dlbench that names an identifier of
// dlsearch/internal. The in-process topology of the traced run, the
// node wrapper and every direct call a probe makes live here, so that
// a later benchmark change can re-point them in one place after the
// ROADMAP's ir and dist collapses. bench/README.md lists the names.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"dlsearch/internal/bat"
	"dlsearch/internal/core"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/obs"
	"dlsearch/internal/persist"
	"dlsearch/internal/query"
	"dlsearch/internal/server"
	"dlsearch/internal/site"
	"dlsearch/internal/webspace"
)

// ---- reference ranking (the distributed == single-index contract) ----

// refIndex is one in-process index over a whole corpus.
type refIndex struct{ ix *ir.Index }

// newRefIndex indexes bodies under the oids 1, 2, … — the oids a T-ir
// coordinator assigns to an /add/stream of the same lines.
func newRefIndex(bodies []string) *refIndex {
	ix := ir.NewIndex()
	for i, b := range bodies {
		ix.Add(bat.OID(i+1), "", b)
	}
	ix.Freeze()
	return &refIndex{ix}
}

func (r *refIndex) topN(q string, n int) []searchResult {
	res := r.ix.TopN(q, n)
	out := make([]searchResult, len(res))
	for i, x := range res {
		out[i] = searchResult{Doc: uint64(x.Doc), Score: x.Score}
	}
	return out
}

// ---- the node wrapper ----

// remoteCapabilities is every optional capability dist.RemoteNode has
// today, declared structurally. The wrapper must forward all of them:
// a cluster that does not find AddBatch on a member silently falls
// back to per-document Add.
type remoteCapabilities interface {
	dist.Node
	AddBatch(ctx context.Context, docs []dist.Doc) error
	IdempotentIngest()
	LoadChecksum(ctx context.Context) (dist.NodeLoad, error)
	SnapshotState(ctx context.Context) (*ir.IndexState, error)
	RestoreState(ctx context.Context, st *ir.IndexState) error
	OpsSince(ctx context.Context, from uint64) ([]persist.Op, error)
	ApplyOps(ctx context.Context, from uint64, ops []persist.Op) error
	WireInfo() (codec string, bytesIn, bytesOut uint64)
}

var (
	_ remoteCapabilities = (*dist.RemoteNode)(nil)
	_ remoteCapabilities = (*tracedNode)(nil)
)

// tracedNode records a dist.rpc.<op> span around every call into a
// RemoteNode, as a child of the server.coordinator span in ctx.
type tracedNode struct {
	inner *dist.RemoteNode
	rec   *recorder
}

func (n *tracedNode) span(ctx context.Context, op string) func() {
	ref := spanFrom(ctx)
	id := n.rec.start("dist.rpc."+op, "", ref.req, ref.id)
	return func() { n.rec.end(id) }
}

func (n *tracedNode) Add(ctx context.Context, doc bat.OID, url, text string) error {
	defer n.span(ctx, "add")()
	return n.inner.Add(ctx, doc, url, text)
}

func (n *tracedNode) Stats(ctx context.Context) (ir.Stats, error) {
	defer n.span(ctx, "stats")()
	return n.inner.Stats(ctx)
}

func (n *tracedNode) TopNWithStats(ctx context.Context, q string, k int, global ir.Stats) ([]ir.Result, error) {
	defer n.span(ctx, "search")()
	return n.inner.TopNWithStats(ctx, q, k, global)
}

func (n *tracedNode) SearchPlan(ctx context.Context, q string, plan ir.EvalPlan, global ir.Stats) ([]ir.Result, ir.QualityEstimate, error) {
	defer n.span(ctx, "search")()
	return n.inner.SearchPlan(ctx, q, plan, global)
}

func (n *tracedNode) Load(ctx context.Context) (dist.NodeLoad, error) {
	defer n.span(ctx, "load")()
	return n.inner.Load(ctx)
}

func (n *tracedNode) AddBatch(ctx context.Context, docs []dist.Doc) error {
	defer n.span(ctx, "addbatch")()
	return n.inner.AddBatch(ctx, docs)
}

func (n *tracedNode) IdempotentIngest() {}

func (n *tracedNode) LoadChecksum(ctx context.Context) (dist.NodeLoad, error) {
	defer n.span(ctx, "load")()
	return n.inner.LoadChecksum(ctx)
}

func (n *tracedNode) SnapshotState(ctx context.Context) (*ir.IndexState, error) {
	return n.inner.SnapshotState(ctx)
}

func (n *tracedNode) RestoreState(ctx context.Context, st *ir.IndexState) error {
	return n.inner.RestoreState(ctx, st)
}

func (n *tracedNode) OpsSince(ctx context.Context, from uint64) ([]persist.Op, error) {
	return n.inner.OpsSince(ctx, from)
}

func (n *tracedNode) ApplyOps(ctx context.Context, from uint64, ops []persist.Op) error {
	return n.inner.ApplyOps(ctx, from, ops)
}

func (n *tracedNode) WireInfo() (string, uint64, uint64) { return n.inner.WireInfo() }

// ---- the in-process topology of the traced run ----

// The values cmd/dlserve's flags default to.
const (
	dlserveNodeTimeout   = 2 * time.Second
	dlserveSearchTimeout = 5 * time.Second
)

type inprocNode struct {
	oplog *persist.OpLog
	srv   *http.Server
}

// inproc is T-ir or T-engine assembled from exported constructors in
// this process: node servers on real loopback listeners behind
// RemoteNodes speaking the wire codec, with the benchmark's wrappers
// at the coordinator's handler and around every RemoteNode.
type inproc struct {
	dataDir string
	nodes   []*inprocNode
	remotes []*dist.RemoteNode
	cluster *dist.Cluster
	srv     *http.Server
	addr    string
	// bytesOut/bytesIn are the bench-owned RemoteMetrics counters all
	// RemoteNodes share.
	bytesOut, bytesIn *obs.Counter
}

func serveOn(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) // returns ErrServerClosed once close shuts srv down
	return srv, ln.Addr().String(), nil
}

func newInproc(p paths, topo topology, rec *recorder) (t *inproc, err error) {
	dataDir, err := os.MkdirTemp(p.out, "data-traced-")
	if err != nil {
		return nil, err
	}
	t = &inproc{dataDir: dataDir}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	reg := obs.NewRegistry()
	t.bytesOut = reg.Counter("bench_rpc_bytes_out_total", "", "")
	t.bytesIn = reg.Counter("bench_rpc_bytes_in_total", "", "")
	rm := &dist.RemoteMetrics{BytesOut: t.bytesOut, BytesIn: t.bytesIn}
	var members []dist.Node
	for i := 0; i < nodeCount; i++ {
		// One registry per node, as one dlserve process has.
		nreg := obs.NewRegistry()
		dir := filepath.Join(dataDir, "n"+strconv.Itoa(i+1))
		oplog, err := persist.OpenOpLog(dir)
		if err != nil {
			return nil, err
		}
		n := &inprocNode{oplog: oplog}
		t.nodes = append(t.nodes, n)
		ns := server.NewNodeServer(ir.NewIndex(), &server.NodeConfig{
			MaxConcurrent: server.DefaultMaxConcurrent,
			DataDir:       dir,
			OpLog:         oplog,
			Metrics:       nreg,
			Cache:         core.NewQueryCache(core.DefaultQueryCacheSize),
		})
		var addr string
		if n.srv, addr, err = serveOn(ns.Handler()); err != nil {
			return nil, err
		}
		rn := dist.NewRemoteNode("http://"+addr, nil)
		rn.SetCodec(dist.CodecWire)
		rn.SetMetrics(rm)
		t.remotes = append(t.remotes, rn)
		members = append(members, &tracedNode{inner: rn, rec: rec})
	}
	if t.cluster, err = dist.NewReplicatedCluster(members, 1, &dist.Options{NodeTimeout: dlserveNodeTimeout}); err != nil {
		return nil, err
	}
	cfg := &server.CoordinatorConfig{
		MaxConcurrent: server.DefaultMaxConcurrent,
		SearchTimeout: dlserveSearchTimeout,
		Metrics:       reg,
	}
	if topo == topoEngine {
		if cfg.Engine, err = core.NewAusOpen(site.Generate(1)); err != nil {
			return nil, err
		}
	}
	co := server.NewCoordinator(map[string]*dist.Cluster{topo.searchIndex(): t.cluster}, cfg)
	inner := co.Handler()
	t.srv, t.addr, err = serveOn(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := r.Header.Get(obs.HeaderRequestID)
		id := rec.start("server.coordinator", opOfPath(r.URL.Path), req, parentOf(req))
		inner.ServeHTTP(w, r.WithContext(withSpan(r.Context(), id, req)))
		rec.end(id)
	}))
	return t, err
}

func opOfPath(path string) string {
	switch path {
	case "/search":
		return "search"
	case "/query":
		return "query"
	case "/add/stream":
		return "stream"
	}
	return path
}

func (t *inproc) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if t.srv != nil {
		t.srv.Shutdown(ctx)
	}
	for _, rn := range t.remotes {
		rn.SetCodec(dist.CodecBinary) // closes the pooled wire connections
	}
	for _, n := range t.nodes {
		if n.srv != nil {
			n.srv.Shutdown(ctx)
			n.srv.Close()
		}
		n.oplog.Close()
	}
	os.RemoveAll(t.dataDir)
}

// ---- direct calls of the probes ----

// probePlan is the evaluation plan of the workload's searches.
func probePlan(frag int) ir.EvalPlan { return ir.EvalPlan{N: topN, Budget: frag} }

// searchDirect calls Cluster.SearchPlan, skipping the HTTP front.
func (t *inproc) searchDirect(ctx context.Context, q string, frag int) error {
	sr, err := t.cluster.SearchPlan(ctx, q, probePlan(frag))
	if err == nil && !sr.Complete() {
		err = errors.New("direct search incomplete")
	}
	return err
}

// refreshStats forces one global-statistics aggregation.
func (t *inproc) refreshStats(ctx context.Context) error {
	t.cluster.InvalidateStats()
	_, err := t.cluster.GlobalStatsContext(ctx)
	return err
}

func (t *inproc) rpcBytes() (out, in uint64) { return t.bytesOut.Value(), t.bytesIn.Value() }

// wireProbe encodes and decodes one search request carrying the
// cluster's real global statistics.
type wireProbe struct {
	stats ir.Stats
	plan  ir.EvalPlan
	buf   *persist.WireBuffer
	cache persist.WireStatsCache
}

func (t *inproc) newWireProbe(ctx context.Context, frag int) (*wireProbe, error) {
	st, err := t.cluster.GlobalStatsContext(ctx)
	if err != nil {
		return nil, err
	}
	return &wireProbe{stats: st, plan: probePlan(frag), buf: persist.GetWireBuffer()}, nil
}

func (w *wireProbe) encode(q string) int {
	w.buf.Reset()
	w.buf.EncodeSearchRequest(q, w.plan, w.stats)
	return w.buf.Len()
}

func (w *wireProbe) decode(cached bool) error {
	var c *persist.WireStatsCache
	if cached {
		c = &w.cache
	}
	_, _, _, err := persist.DecodeSearchRequest(w.buf.Bytes(), c)
	return err
}

func (w *wireProbe) release() { persist.PutWireBuffer(w.buf) }

func toOps(bodies []string, firstOID int) []persist.Op {
	ops := make([]persist.Op, len(bodies))
	for i, b := range bodies {
		ops[i] = persist.Op{Doc: bat.OID(firstOID + i), Text: b}
	}
	return ops
}

// oplogProbe appends bodies to a fresh op log in batches, then replays
// the file into a fresh index.
type oplogProbe struct {
	dir    string
	log    *persist.OpLog
	fsyncH *obs.Histogram
	next   int
}

func newOplogProbe(dir string) (*oplogProbe, error) {
	l, err := persist.OpenOpLog(dir)
	if err != nil {
		return nil, err
	}
	p := &oplogProbe{dir: dir, log: l, fsyncH: obs.NewHistogram(obs.LatencyBounds()), next: 1}
	l.Instrument(nil, p.fsyncH)
	return p, nil
}

func (p *oplogProbe) append(bodies []string) error {
	ops := toOps(bodies, p.next)
	p.next += len(ops)
	return p.log.Append(ops...)
}

func (p *oplogProbe) fsyncMeanMs() value {
	s := p.fsyncH.Snapshot()
	return value{s.Mean() * 1e3, int(s.Count)}
}

// closeAndSize closes the log and returns its size on disk.
func (p *oplogProbe) closeAndSize() (int64, error) {
	if err := p.log.Close(); err != nil {
		return 0, err
	}
	fi, err := os.Stat(persist.OpLogPath(p.dir))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// replay is boot recovery without the process: open the log and fold
// every record into a fresh index.
func (p *oplogProbe) replay() (*ir.Index, error) {
	l, err := persist.OpenOpLog(p.dir)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	ix := ir.NewIndex()
	err = l.Replay(l.Base(), func(op persist.Op) error {
		ix.Add(op.Doc, op.URL, op.Text)
		return nil
	})
	return ix, err
}

func saveSnapshot(path string, ix *ir.Index) error { return persist.SaveIndex(path, ix) }

func loadSnapshot(path string) (*ir.Index, error) { return persist.LoadIndex(path) }

// partition is one node's share of the corpus served without network
// or log: the ir layer alone.
type partition struct {
	node  *dist.LocalNode
	ix    *ir.Index
	stats ir.Stats
}

func newPartition(ix *ir.Index) (*partition, error) {
	n := dist.NewLocalNode(ix)
	st, err := n.Stats(context.Background())
	return &partition{node: n, ix: ix, stats: st}, err
}

// score evaluates one query and returns the quality estimate's value.
func (p *partition) score(ctx context.Context, q string, frag int) (float64, error) {
	_, est, err := p.node.SearchPlan(ctx, q, probePlan(frag), p.stats)
	return est.Value(), err
}

// exactPostings is the number of posting tuples an exact evaluation of
// q scores on this partition: the local df of its distinct terms.
func (p *partition) exactPostings(q string) int {
	stems, _ := p.ix.ResolveQuery(q)
	n := 0
	for _, s := range stems {
		n += p.stats.DF[s]
	}
	return n
}

func (p *partition) fragmentPostings() int64 {
	var n int64
	for _, c := range p.ix.FragmentPostings() {
		n += c
	}
	return n
}

func (p *partition) addBatch(ctx context.Context, bodies []string, firstOID int) error {
	docs := make([]dist.Doc, len(bodies))
	for i, b := range bodies {
		docs[i] = dist.Doc{OID: bat.OID(firstOID + i), Text: b}
	}
	return p.node.AddBatch(ctx, docs)
}

func (p *partition) freezeStats(ctx context.Context) error {
	_, err := p.node.Stats(ctx)
	return err
}

func newEmptyPartition() *partition {
	ix := ir.NewIndex()
	return &partition{node: dist.NewLocalNode(ix), ix: ix}
}

func parseQuery(src string) error {
	_, err := query.Parse(src)
	return err
}

// probeEngine is a single-process core.Engine holding the articles and
// players: the conceptual layer with its content local.
type probeEngine struct {
	e        *core.Engine
	backends map[string]*core.EngineBackend
}

func newProbeEngine() (*probeEngine, error) {
	e, err := core.NewAusOpen(site.Generate(1))
	return &probeEngine{e: e, backends: map[string]*core.EngineBackend{}}, err
}

func (p *probeEngine) addArticle(a article) error {
	return p.e.AddDocument(&webspace.Document{
		URL:     "lib/" + a.ID,
		Objects: []*webspace.Object{{Class: "Article", ID: a.ID, Attrs: map[string]string{"title": a.Title}}},
	})
}

func (p *probeEngine) addPlayer(pl player) error {
	doc := &webspace.Document{
		URL: "lib/" + pl.ID,
		Objects: []*webspace.Object{{Class: "Player", ID: pl.ID, Attrs: map[string]string{
			"name": pl.Name, "gender": pl.Gender, "hand": pl.Hand,
		}}},
	}
	for _, a := range pl.Covered {
		doc.Links = append(doc.Links, webspace.Link{Association: "Is_covered_in", From: "Player:" + pl.ID, To: "Article:" + a})
	}
	return p.e.AddDocument(doc)
}

// index stores owned content the way a T-engine node does, under the
// owner's object oid.
func (p *probeEngine) index(key, owner, text string) error {
	oid, ok := p.e.DB.OIDOf(owner)
	if !ok {
		return fmt.Errorf("probe engine: unknown owner %s", owner)
	}
	b := p.backends[key]
	if b == nil {
		b = core.NewEngineBackend(p.e, key)
		p.backends[key] = b
	}
	b.ApplyDocs([]dist.Doc{{OID: oid, URL: owner, Text: text}})
	return nil
}

func (p *probeEngine) warm() {
	p.e.DB.InvalidateCaches()
	p.e.DB.Warm()
}

// run evaluates a query and returns its row count.
func (p *probeEngine) run(src string) (int, error) {
	res, err := p.e.Query(src)
	if err != nil {
		return 0, err
	}
	return len(res.Rows), nil
}
