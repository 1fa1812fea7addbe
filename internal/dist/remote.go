package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dlsearch/internal/bat"
	"dlsearch/internal/ir"
	"dlsearch/internal/obs"
	"dlsearch/internal/persist"
)

// The node wire protocol: HTTP endpoints mirroring the Node interface,
// served by internal/server.NewNodeHandler and spoken by RemoteNode.
// Each operation has one encoding: search and batch ingest travel as
// persist binary frames (scores as raw float64 bits, so a remote
// ranking is byte-identical to the local one), statistics, load and
// snapshot metadata as JSON, fragment and log transfers in the persist
// snapshot and delta formats.
const (
	PathNodeAddBatch = "/node/add/batch"
	PathNodeStats    = "/node/stats"
	PathNodeSearch   = "/node/search"
	PathNodeLoad     = "/node/load"
	PathNodeSnapshot = "/node/snapshot"
	PathNodeRestore  = "/node/restore"
	PathNodeOpLog    = "/node/oplog"
	PathNodeWire     = "/node/wire"
	PathHealthz      = "/healthz"
)

// Codec selects how a RemoteNode carries the binary frames of the hot
// path (/node/search, /node/add/batch) to its node; the frames are the
// same either way. The statistics pull (/node/stats?since=) is a JSON
// GET under every codec: it runs once per ingest, not per query, and
// carries only what changed.
type Codec int

const (
	// CodecBinary (the default) sends each frame as the body of an
	// ordinary HTTP request, so node liveness, timeouts and load
	// balancers behave as for any HTTP call.
	CodecBinary Codec = iota
	// CodecWire adds the persistent-connection transport on top of
	// CodecBinary: an upgraded long-lived conn per node, one frame
	// out and one back per RPC, no per-query HTTP machinery. Falls
	// back to CodecBinary against peers that refuse the upgrade.
	// Opt-in because a pooled upgraded conn bypasses the HTTP client's
	// lifecycle: a node is presumed dead only when its conns break,
	// which is right for real processes but not for in-process test
	// servers.
	CodecWire
)

// StatsJSON is the wire form of ir.Stats in GET /node/stats.
type StatsJSON struct {
	DF      map[string]int `json:"df"`
	TotalDF int            `json:"total_df"`
	Docs    int            `json:"docs"`
}

// StatsPullResponse answers GET /node/stats[?since=<version>]: the
// statistics block, the version it was read at, and whether df holds
// only the stems that changed since the version asked about (the two
// totals are always current). Without a usable since the block is
// full, and its embedded fields still decode as a bare StatsJSON.
type StatsPullResponse struct {
	StatsJSON
	Version string `json:"version"`
	Delta   bool   `json:"delta,omitempty"`
}

// StatsToJSON converts collection statistics to their wire form.
func StatsToJSON(st ir.Stats) StatsJSON {
	return StatsJSON{DF: st.DF, TotalDF: st.TotalDF, Docs: st.Docs}
}

// StatsFromJSON converts wire statistics back.
func StatsFromJSON(w StatsJSON) ir.Stats {
	df := w.DF
	if df == nil {
		df = map[string]int{}
	}
	return ir.Stats{DF: df, TotalDF: w.TotalDF, Docs: w.Docs}
}

// ResultJSON is one ranked result in a coordinator's JSON answers.
type ResultJSON struct {
	Doc   uint64  `json:"doc"`
	Score float64 `json:"score"`
}

// QualityJSON is the JSON form of ir.QualityEstimate, plus the scalar
// value so curl users need no arithmetic.
type QualityJSON struct {
	Value      float64 `json:"value"`
	CoveredIDF float64 `json:"covered_idf"`
	TotalIDF   float64 `json:"total_idf"`
	FragsUsed  int     `json:"frags_used"`
	FragsTotal int     `json:"frags_total"`
}

// QualityToJSON converts a quality estimate to its JSON form.
func QualityToJSON(q ir.QualityEstimate) QualityJSON {
	return QualityJSON{
		Value:      q.Value(),
		CoveredIDF: q.CoveredIDF,
		TotalIDF:   q.TotalIDF,
		FragsUsed:  q.FragsUsed,
		FragsTotal: q.FragsTotal,
	}
}

// ResultsToJSON converts a ranking to its JSON form.
func ResultsToJSON(rs []ir.Result) []ResultJSON {
	out := make([]ResultJSON, len(rs))
	for i, r := range rs {
		out[i] = ResultJSON{Doc: uint64(r.Doc), Score: r.Score}
	}
	return out
}

// LoadResponse is the body answering GET /node/load. SnapshotUnix is
// when the node last persisted a snapshot (unix seconds, 0 = never);
// Checksum is the fragment's content checksum, the anti-entropy
// comparison key.
type LoadResponse struct {
	Docs         int    `json:"docs"`
	MaxDoc       uint64 `json:"max_doc"`
	SnapshotUnix int64  `json:"snapshot_unix,omitempty"`
	Checksum     string `json:"checksum,omitempty"`
	LogPos       uint64 `json:"log_pos,omitempty"`
}

// SnapshotResponse answers POST /node/snapshot: where the snapshot
// landed and what it covers. Checksum is the content checksum of the
// persisted state — the value a replica restored from this snapshot
// will report in /node/load.
type SnapshotResponse struct {
	Path     string `json:"path"`
	Bytes    int64  `json:"bytes"`
	Docs     int    `json:"docs"`
	Terms    int    `json:"terms"`
	TookMS   int64  `json:"took_ms"`
	Unix     int64  `json:"unix"`
	Checksum string `json:"checksum,omitempty"`
}

// RestoreResponse answers POST /node/restore: what the node now
// serves. SnapshotUnix is set when the node also persisted the
// restored state to its data dir (so a crash right after a resync
// cannot resurrect the pre-resync fragment); SnapshotError reports a
// failed post-restore persist — the restore itself succeeded in
// memory, but the durability promise did not hold and a crash would
// resurrect the pre-resync snapshot.
type RestoreResponse struct {
	Docs          int    `json:"docs"`
	Terms         int    `json:"terms"`
	Checksum      string `json:"checksum,omitempty"`
	SnapshotUnix  int64  `json:"snapshot_unix,omitempty"`
	SnapshotError string `json:"snapshot_error,omitempty"`
}

// RemoteNode implements Node over the HTTP node protocol, so a
// Cluster can address an index living in another process or on
// another machine exactly like an in-process one. All calls honour
// the caller's context: a deadline set by the cluster's straggler
// machinery cancels the in-flight request.
type RemoteNode struct {
	base   string
	client *http.Client

	// met, when set, records this node's client-side RPC telemetry.
	met *RemoteMetrics

	// pool holds this node's persistent upgraded connections; nil
	// unless CodecWire is selected and the base URL is upgradable
	// (plain http with a host).
	pool *wirePool

	// urls caches the parsed hot-path URLs so the binary round-trip
	// builds requests without re-parsing; nil when base is not a URL
	// with a host, and then every hot-path RPC fails.
	urls map[string]*url.URL

	// bytesOut/bytesIn count request/response body and frame bytes
	// over every endpoint and transport — the per-replica numbers
	// /stats surfaces.
	bytesOut, bytesIn atomic.Uint64

	// stats is the node's statistics as of the last pull and statsVer
	// the version token the node gave them; the next pull asks only for
	// what changed since. The map is never written once stored — a pull
	// that brings changes patches a clone — so earlier callers keep
	// reading theirs.
	statsMu  sync.Mutex
	stats    ir.Stats
	statsVer string
}

// RemoteMetrics is client-side RPC instrumentation for one or more
// RemoteNodes (they may share one set — the histograms are mergeable
// and the counters atomic). All fields optional.
type RemoteMetrics struct {
	// Latency observes every RPC round-trip (failures included), in
	// seconds, whatever its encoding or transport. Whole-fragment
	// transfers are not observed here — their durations scale with the
	// fragment, not the RPC path.
	Latency *obs.Histogram
	// BytesOut counts request bytes sent: HTTP bodies and frames.
	BytesOut *obs.Counter
	// BytesIn counts response bytes received: HTTP bodies and frames.
	BytesIn *obs.Counter
	// StatsPullsFull / StatsPullsDelta count statistics pulls by what
	// the node answered: its whole vocabulary, or only the stems that
	// changed since the last pull. StatsPullBytes totals their response
	// bodies.
	StatsPullsFull  *obs.Counter
	StatsPullsDelta *obs.Counter
	StatsPullBytes  *obs.Counter
}

// SetMetrics attaches client-side RPC instrumentation; nil detaches.
func (rn *RemoteNode) SetMetrics(m *RemoteMetrics) { rn.met = m }

// countingReader counts bytes as they are read.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// defaultTransport is tuned for a coordinator fanning every query out
// to the same small node set: generous idle-connection limits keep one
// warm connection per in-flight request per node (net/http's default
// of 2 idle conns per host redials constantly under fan-out
// concurrency), and keep-alives hold them open between queries.
var defaultTransport = &http.Transport{
	Proxy: http.ProxyFromEnvironment,
	DialContext: (&net.Dialer{
		Timeout:   10 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	MaxIdleConns:        512,
	MaxIdleConnsPerHost: 128,
	IdleConnTimeout:     90 * time.Second,
}

// defaultClient is shared by RemoteNodes built without an explicit
// client; connection pooling across nodes of the same host is what a
// coordinator wants by default.
var defaultClient = &http.Client{Timeout: 30 * time.Second, Transport: defaultTransport}

// defaultTransferClient serves the state-transfer calls
// (SnapshotState/RestoreState) for nodes built on defaultClient: no
// overall timeout, because a fragment transfer's duration scales with
// the fragment and must be bounded by the caller's ctx, not by the
// per-operation budget sized for one RPC round-trip. It shares
// defaultClient's transport pool.
var defaultTransferClient = &http.Client{Transport: defaultTransport}

// transferClient picks the client for whole-fragment transfers: a
// caller-supplied client is honoured as-is; the shared default is
// swapped for its timeout-free sibling.
func (rn *RemoteNode) transferClient() *http.Client {
	if rn.client == defaultClient {
		return defaultTransferClient
	}
	return rn.client
}

// NewRemoteNode returns a node speaking the node protocol at baseURL
// (e.g. "http://host:8081"). A nil client selects a shared pooled
// default; pass a custom client to control transport details. The hot
// path sends binary frames as HTTP bodies (SetCodec opens the
// persistent connection instead); every other endpoint speaks JSON or
// the persist binary transfer formats.
func NewRemoteNode(baseURL string, client *http.Client) *RemoteNode {
	if client == nil {
		client = defaultClient
	}
	rn := &RemoteNode{base: strings.TrimRight(baseURL, "/"), client: client}
	if u, err := url.Parse(rn.base); err == nil && u.Host != "" {
		rn.urls = make(map[string]*url.URL, 2)
		for _, p := range []string{PathNodeSearch, PathNodeAddBatch} {
			pu := *u
			pu.Path = p
			rn.urls[p] = &pu
		}
	}
	return rn
}

// SetCodec selects the hot-path transport: CodecWire opens the
// persistent connection, CodecBinary closes it. Call before the node
// serves traffic — the setting is not synchronised with in-flight RPCs.
func (rn *RemoteNode) SetCodec(c Codec) {
	if c == CodecWire && rn.pool == nil {
		rn.pool = newWirePool(rn.base)
	}
	if c != CodecWire && rn.pool != nil {
		rn.pool.closeIdle()
		rn.pool = nil
	}
}

// WireInfo reports the transport this node is effectively spoken with —
// "wire" (persistent-connection transport open) or "binary" (frames as
// HTTP bodies, configured or after the peer refused the upgrade) — and
// the cumulative body and frame bytes exchanged with it.
func (rn *RemoteNode) WireInfo() (codec string, bytesIn, bytesOut uint64) {
	codec = "binary"
	if rn.pool != nil && !rn.pool.isUnsupported() {
		codec = "wire"
	}
	return codec, rn.bytesIn.Load(), rn.bytesOut.Load()
}

// timeout is the per-RPC budget for the persistent-connection
// transport when the caller's context carries no deadline.
func (rn *RemoteNode) timeout() time.Duration {
	if rn.client.Timeout > 0 {
		return rn.client.Timeout
	}
	return 30 * time.Second
}

// BaseURL returns the node's base URL.
func (rn *RemoteNode) BaseURL() string { return rn.base }

// wireHeader is the shared hot-path request header: never mutated, so
// concurrent requests can carry the same map and the per-call header
// allocation disappears. Requests that add headers (a trace ID) clone
// a fresh map instead.
var wireHeader = http.Header{
	"Content-Type": {persist.WireContentType},
	"Accept":       {persist.WireContentType},
}

// frameFunc frames one hot-path request into wb. id is the request ID
// the frame itself must carry, or "" for the plain kind; it is non-empty
// only on a persistent connection whose peer reads traced frames.
type frameFunc func(wb *persist.WireBuffer, id string)

// doBinary runs one hot-path RPC over the best available transport:
// the persistent connection when the peer speaks it, else the frame as
// an HTTP body. id is the request ID the RPC must deliver ("" for
// none): on a connection whose peer does not read traced frames it
// travels as the X-DL-Request header of an HTTP body instead. handle
// receives the response frame.
func (rn *RemoteNode) doBinary(ctx context.Context, path, id string, encode frameFunc, handle func(frame []byte) error) error {
	if rn.met == nil && obs.FromContext(ctx) == nil {
		return rn.binaryRoundTrip(ctx, path, id, encode, handle)
	}
	start := time.Now()
	err := rn.binaryRoundTrip(ctx, path, id, encode, handle)
	if rn.met != nil {
		rn.met.Latency.ObserveSince(start)
	}
	obs.FromContext(ctx).AddSpan("rpc:"+path, start)
	return err
}

func (rn *RemoteNode) binaryRoundTrip(ctx context.Context, path, id string, encode frameFunc, handle func(frame []byte) error) error {
	wb := persist.GetWireBuffer()
	defer persist.PutWireBuffer(wb)
	if rn.pool != nil {
		err := rn.connRPC(ctx, path, id, wb, encode, handle)
		if !errors.Is(err, errWireUnsupported) && !errors.Is(err, errWireUntraced) {
			return err
		}
		// The peer refused the upgrade, or cannot read the request ID in
		// a frame; send an HTTP body.
	}
	encode(wb, "")
	return rn.httpBinary(ctx, path, id, wb, handle)
}

// httpBinary POSTs one framed request over HTTP, with id (if any) in
// the X-DL-Request header, and hands the framed response to handle,
// whose decode verifies it; any non-200 answer is an error.
func (rn *RemoteNode) httpBinary(ctx context.Context, path, id string, wb *persist.WireBuffer, handle func(frame []byte) error) error {
	if err := wb.Err(); err != nil {
		return fmt.Errorf("dist: encode %s: %w", path, err)
	}
	u := rn.urls[path]
	if u == nil {
		return fmt.Errorf("dist: node %q: not an http URL with a host", rn.base)
	}
	body := wb.Bytes()
	hreq := &http.Request{
		Method:        http.MethodPost,
		URL:           u,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        wireHeader,
		Body:          io.NopCloser(bytes.NewReader(body)),
		GetBody:       func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil },
		ContentLength: int64(len(body)),
		Host:          u.Host,
	}
	if id != "" {
		h := make(http.Header, 3)
		h["Content-Type"] = wireHeader["Content-Type"]
		h["Accept"] = wireHeader["Accept"]
		h.Set(obs.HeaderRequestID, id)
		hreq.Header = h
	}
	hreq = hreq.WithContext(ctx)
	resp, err := rn.client.Do(hreq)
	if err != nil {
		return fmt.Errorf("dist: node %s%s: %w", rn.base, path, err)
	}
	defer resp.Body.Close()
	rn.bytesOut.Add(uint64(len(body)))
	if rn.met != nil {
		rn.met.BytesOut.Add(uint64(len(body)))
	}
	buf := respBufPool.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		respBufPool.Put(buf)
	}()
	buf.Reset()
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, maxWireResponse)); err != nil {
		return fmt.Errorf("dist: node %s%s: read response: %w", rn.base, path, err)
	}
	rn.bytesIn.Add(uint64(buf.Len()))
	if rn.met != nil {
		rn.met.BytesIn.Add(uint64(buf.Len()))
	}
	if resp.StatusCode != http.StatusOK {
		snippet := buf.Bytes()
		if len(snippet) > 256 {
			snippet = snippet[:256]
		}
		return fmt.Errorf("dist: node %s%s: status %d: %s",
			rn.base, path, resp.StatusCode, strings.TrimSpace(string(snippet)))
	}
	if err := handle(buf.Bytes()); err != nil {
		return fmt.Errorf("dist: node %s%s: %w", rn.base, path, err)
	}
	return nil
}

// respBufPool pools HTTP binary response bodies.
var respBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// do runs one round-trip: POST body as JSON if in is non-nil, GET
// otherwise; decode the 200 response into out if out is non-nil. The
// round-trip (body decode included, failures included) feeds the
// attached RPC latency histogram, and a trace riding the context gets
// an "rpc:<path>" span plus the request-ID header the node echoes
// into its own telemetry.
func (rn *RemoteNode) do(ctx context.Context, path string, in, out any) error {
	_, err := rn.doSized(ctx, path, in, out)
	return err
}

// doSized is do, also reporting the response-body bytes read.
func (rn *RemoteNode) doSized(ctx context.Context, path string, in, out any) (int64, error) {
	if rn.met == nil && obs.FromContext(ctx) == nil {
		return rn.roundTrip(ctx, path, in, out)
	}
	start := time.Now()
	n, err := rn.roundTrip(ctx, path, in, out)
	if rn.met != nil {
		rn.met.Latency.ObserveSince(start)
	}
	obs.FromContext(ctx).AddSpan("rpc:"+path, start)
	return n, err
}

func (rn *RemoteNode) roundTrip(ctx context.Context, path string, in, out any) (int64, error) {
	var body io.Reader
	method := http.MethodGet
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return 0, fmt.Errorf("dist: encode %s: %w", path, err)
		}
		rn.bytesOut.Add(uint64(len(buf)))
		if rn.met != nil {
			rn.met.BytesOut.Add(uint64(len(buf)))
		}
		body = bytes.NewReader(buf)
		method = http.MethodPost
	}
	req, err := http.NewRequestWithContext(ctx, method, rn.base+path, body)
	if err != nil {
		return 0, fmt.Errorf("dist: request %s: %w", path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tr := obs.FromContext(ctx); tr != nil && tr.ID != "" {
		req.Header.Set(obs.HeaderRequestID, tr.ID)
	}
	resp, err := rn.client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("dist: node %s%s: %w", rn.base, path, err)
	}
	defer resp.Body.Close()
	cr := &countingReader{r: resp.Body}
	defer func() {
		rn.bytesIn.Add(uint64(cr.n))
		if rn.met != nil {
			rn.met.BytesIn.Add(uint64(cr.n))
		}
	}()
	var rbody io.Reader = cr
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(rbody, 256))
		return cr.n, fmt.Errorf("dist: node %s%s: status %d: %s",
			rn.base, path, resp.StatusCode, strings.TrimSpace(string(snippet)))
	}
	if out == nil {
		io.Copy(io.Discard, rbody)
		return cr.n, nil
	}
	if err := json.NewDecoder(rbody).Decode(out); err != nil {
		return cr.n, fmt.Errorf("dist: decode %s%s: %w", rn.base, path, err)
	}
	return cr.n, nil
}

// AddBatch implements Node: the node's partition of a batch in one
// round-trip. The node server wraps a LocalNode, so a retried batch is
// a no-op for already-applied documents.
func (rn *RemoteNode) AddBatch(ctx context.Context, docs []Doc) error {
	ops := make([]persist.Op, len(docs))
	for i, d := range docs {
		ops[i] = persist.Op{Doc: d.OID, URL: d.URL, Text: d.Text}
	}
	// The node keeps no trace of ingest, so a batch carries no request ID.
	return rn.doBinary(ctx, PathNodeAddBatch, "", func(wb *persist.WireBuffer, _ string) {
		wb.EncodeAddBatchRequest(ops)
	}, persist.DecodeAck)
}

// Stats implements Node as a versioned pull: the node is asked only for
// what changed since the version of the copy this RemoteNode keeps, and
// answers with the changed stems, the two totals and the new version —
// or with its whole vocabulary when there is no copy yet (boot, a second
// coordinator), when the version is not one its current incarnation
// issued (it restarted, or a resync restored its fragment), or when it
// predates the versioned protocol and ignores since. The changes are
// laid over a clone of the copy, so statistics handed out earlier stay
// valid for whoever is still scoring with them. The pull is a JSON GET
// under every codec: it happens once per ingest, not per query, and its
// body is as small as the change.
func (rn *RemoteNode) Stats(ctx context.Context) (ir.Stats, error) {
	rn.statsMu.Lock()
	have, since := rn.stats, rn.statsVer
	rn.statsMu.Unlock()
	var resp StatsPullResponse
	n, err := rn.doSized(ctx, PathNodeStats+"?since="+url.QueryEscape(since), nil, &resp)
	if err != nil {
		return ir.Stats{}, err
	}
	st := StatsFromJSON(resp.StatsJSON)
	if resp.Delta {
		st.DF = patchDF(have.DF, st.DF)
	}
	if m := rn.met; m != nil {
		if resp.Delta {
			m.StatsPullsDelta.Inc()
		} else {
			m.StatsPullsFull.Inc()
		}
		m.StatsPullBytes.Add(uint64(n))
	}
	rn.statsMu.Lock()
	rn.stats, rn.statsVer = st, resp.Version
	rn.statsMu.Unlock()
	return st, nil
}

// patchDF lays the changed entries over base without writing to it: no
// change shares base, any change patches a clone.
func patchDF(base, changed map[string]int) map[string]int {
	if len(changed) == 0 {
		return base
	}
	out := make(map[string]int, len(base)+len(changed))
	maps.Copy(out, base)
	maps.Copy(out, changed)
	return out
}

// SearchPlan implements Node: exact and budgeted plans alike ship over
// /node/search. The trace's request ID rides the request so the node's
// spans and slow-query line join the coordinator's.
func (rn *RemoteNode) SearchPlan(ctx context.Context, query string, plan ir.EvalPlan, global ir.Stats) ([]ir.Result, ir.QualityEstimate, error) {
	var id string
	if tr := obs.FromContext(ctx); tr != nil {
		id = tr.ID
	}
	var out []ir.Result
	var outQ ir.QualityEstimate
	err := rn.doBinary(ctx, PathNodeSearch, id, func(wb *persist.WireBuffer, id string) {
		if id != "" {
			wb.EncodeTracedSearchRequest(id, query, plan, global)
		} else {
			wb.EncodeSearchRequest(query, plan, global)
		}
	}, func(frame []byte) error {
		rs, q, err := persist.DecodeSearchResponse(frame)
		out, outQ = rs, q
		return err
	})
	return out, outQ, err
}

// Load implements Node.
func (rn *RemoteNode) Load(ctx context.Context) (NodeLoad, error) {
	return rn.load(ctx, PathNodeLoad)
}

// LoadChecksum implements Node: GET /node/load?fresh=1 makes
// the node compute a fresh content digest before answering.
func (rn *RemoteNode) LoadChecksum(ctx context.Context) (NodeLoad, error) {
	return rn.load(ctx, PathNodeLoad+"?fresh=1")
}

func (rn *RemoteNode) load(ctx context.Context, path string) (NodeLoad, error) {
	var resp LoadResponse
	if err := rn.do(ctx, path, nil, &resp); err != nil {
		return NodeLoad{}, err
	}
	return NodeLoad{
		Docs:         resp.Docs,
		MaxDoc:       bat.OID(resp.MaxDoc),
		SnapshotUnix: resp.SnapshotUnix,
		Checksum:     resp.Checksum,
		LogPos:       resp.LogPos,
	}, nil
}

// Snapshot asks the remote node to persist a snapshot of its fragment
// to its data dir now (POST /node/snapshot). Nodes running without a
// data dir answer an error status, which comes back as an error here.
func (rn *RemoteNode) Snapshot(ctx context.Context) (SnapshotResponse, error) {
	var resp SnapshotResponse
	err := rn.do(ctx, PathNodeSnapshot, struct{}{}, &resp)
	return resp, err
}

// Add, TopNWithStats and IdempotentIngest are off the Node interface:
// the frozen bench/dlbench/seams.go still names them, and they go when
// the ROADMAP item-4 benchmark PR drops them from the seam.

// Add is AddBatch of one document.
func (rn *RemoteNode) Add(ctx context.Context, doc bat.OID, url, text string) error {
	return rn.AddBatch(ctx, []Doc{{OID: doc, URL: url, Text: text}})
}

// TopNWithStats is SearchPlan under the exact plan.
func (rn *RemoteNode) TopNWithStats(ctx context.Context, query string, n int, global ir.Stats) ([]ir.Result, error) {
	res, _, err := rn.SearchPlan(ctx, query, ir.EvalPlan{N: n}, global)
	return res, err
}

// IdempotentIngest is the retired marker for AddBatch's per-oid
// de-duplication, now part of the Node contract.
func (rn *RemoteNode) IdempotentIngest() {}

// SnapshotState implements Node: GET /node/snapshot streams the
// node's live fragment state in the internal/persist binary format —
// no data dir needed on the serving side; the persist checksum fails
// a truncated or corrupted transfer closed.
func (rn *RemoteNode) SnapshotState(ctx context.Context) (*ir.IndexState, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rn.base+PathNodeSnapshot, nil)
	if err != nil {
		return nil, fmt.Errorf("dist: request %s: %w", PathNodeSnapshot, err)
	}
	resp, err := rn.transferClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("dist: node %s%s: %w", rn.base, PathNodeSnapshot, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("dist: node %s%s: status %d: %s",
			rn.base, PathNodeSnapshot, resp.StatusCode, strings.TrimSpace(string(snippet)))
	}
	st, err := persist.Load(bufio.NewReader(resp.Body))
	if err != nil {
		return nil, fmt.Errorf("dist: node %s%s: %w", rn.base, PathNodeSnapshot, err)
	}
	return st, nil
}

// RestoreState implements Node: the state ships to
// POST /node/restore in the persist binary format and the remote node
// installs it under its write lock. A restore that succeeded in memory
// but failed to persist durably (SnapshotError in the response) is
// reported as an error: the caller must not record a durable resync
// that a crash would undo — the replica serves the restored state
// either way, and the next anti-entropy pass re-admits it by checksum
// match once it really is healthy.
func (rn *RemoteNode) RestoreState(ctx context.Context, st *ir.IndexState) error {
	var buf bytes.Buffer
	if err := persist.Save(&buf, st); err != nil {
		return fmt.Errorf("dist: encode %s: %w", PathNodeRestore, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rn.base+PathNodeRestore, &buf)
	if err != nil {
		return fmt.Errorf("dist: request %s: %w", PathNodeRestore, err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := rn.transferClient().Do(req)
	if err != nil {
		return fmt.Errorf("dist: node %s%s: %w", rn.base, PathNodeRestore, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("dist: node %s%s: status %d: %s",
			rn.base, PathNodeRestore, resp.StatusCode, strings.TrimSpace(string(snippet)))
	}
	var rr RestoreResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return fmt.Errorf("dist: decode %s%s: %w", rn.base, PathNodeRestore, err)
	}
	if rr.SnapshotError != "" {
		return fmt.Errorf("dist: node %s%s: restored in memory but not persisted: %s",
			rn.base, PathNodeRestore, rr.SnapshotError)
	}
	return nil
}

// OpsSince implements Node: GET /node/oplog?from=P streams the
// node's log suffix in the persist delta wire format (per-record
// checksums travel with the data, so a corrupted transfer fails
// closed here). A 416 answer means the node compacted that suffix
// away (or keeps no log) — mapped to ErrDeltaUnavailable so the
// caller falls back to a full snapshot.
func (rn *RemoteNode) OpsSince(ctx context.Context, from uint64) ([]persist.Op, error) {
	url := fmt.Sprintf("%s%s?from=%d", rn.base, PathNodeOpLog, from)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("dist: request %s: %w", PathNodeOpLog, err)
	}
	resp, err := rn.transferClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("dist: node %s%s: %w", rn.base, PathNodeOpLog, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusRequestedRangeNotSatisfiable {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("%w: node %s", ErrDeltaUnavailable, rn.base)
	}
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("dist: node %s%s: status %d: %s",
			rn.base, PathNodeOpLog, resp.StatusCode, strings.TrimSpace(string(snippet)))
	}
	got, ops, err := persist.DecodeOps(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("dist: node %s%s: %w", rn.base, PathNodeOpLog, err)
	}
	if got != from {
		return nil, fmt.Errorf("dist: node %s%s: asked for position %d, got %d", rn.base, PathNodeOpLog, from, got)
	}
	return ops, nil
}

// ApplyOps implements Node: the suffix ships to
// POST /node/oplog in the persist delta wire format and the remote
// node appends-and-applies it at exactly position from. A 409 answer
// is the position-mismatch rejection — the histories cannot be
// aligned by this delta and the caller falls back to a full snapshot.
func (rn *RemoteNode) ApplyOps(ctx context.Context, from uint64, ops []persist.Op) error {
	var buf bytes.Buffer
	if err := persist.EncodeOps(&buf, from, ops); err != nil {
		return fmt.Errorf("dist: encode %s: %w", PathNodeOpLog, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rn.base+PathNodeOpLog, &buf)
	if err != nil {
		return fmt.Errorf("dist: request %s: %w", PathNodeOpLog, err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := rn.transferClient().Do(req)
	if err != nil {
		return fmt.Errorf("dist: node %s%s: %w", rn.base, PathNodeOpLog, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%w: node %s: %s", ErrPosMismatch, rn.base, strings.TrimSpace(string(snippet)))
	}
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("dist: node %s%s: status %d: %s",
			rn.base, PathNodeOpLog, resp.StatusCode, strings.TrimSpace(string(snippet)))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// Healthy reports whether the remote node answers its health probe.
func (rn *RemoteNode) Healthy(ctx context.Context) bool {
	return rn.do(ctx, PathHealthz, nil, nil) == nil
}
