package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dlsearch/internal/core"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/obs"
	"dlsearch/internal/persist"
)

// NodeConfig tunes a node server. The zero value selects the package
// defaults, no query cache and no durability.
type NodeConfig struct {
	MaxBody       int64 // request-body cap, bytes
	MaxConcurrent int   // in-flight request bound
	// Cache caches (query → term oids) resolutions for this node's
	// searches; with Metrics set it is exported by
	// InstrumentQueryCache.
	Cache *core.QueryCache
	// MemoryBudget, when positive, bounds the resident bytes of the
	// index's plain posting columns; cold low-idf lists are held
	// compressed (ir.SetMemoryBudget).
	MemoryBudget int
	// DataDir, when set, enables durability: POST /node/snapshot
	// persists the fragment to DataDir/index.snap (atomic write), and
	// the owning process snapshots on graceful shutdown via
	// NodeServer.Snapshot. Restore-on-boot happens before the server
	// exists (persist.LoadIndex in cmd/dlserve), so a handler is never
	// constructed over a partially restored index.
	DataDir string
	// MaxRestoreBody caps POST /node/restore bodies (0 selects
	// DefaultMaxRestoreBody). Restores ship whole fragment snapshots,
	// so they are capped independently of MaxBody.
	MaxRestoreBody int64
	// OpLog, when set, attaches a write-ahead op log: ingest appends
	// durably before applying, GET/POST /node/oplog serve the delta
	// resync protocol, and a successful snapshot compacts the log up
	// to the snapshot's recorded position. The caller opens (and
	// replays) the log BEFORE constructing the server — boot recovery
	// is snapshot + replay, and the handler must never serve a
	// half-replayed index.
	OpLog *persist.OpLog
	// Metrics, when set, receives the node's serving telemetry —
	// per-endpoint request counters and latency histograms, local
	// scoring time, ingested documents, op-log append/fsync durations,
	// Go runtime gauges — served in Prometheus text format on
	// GET /metrics (outside the concurrency semaphore). nil disables
	// both the instrumentation and the endpoint; the query hot path
	// then stays byte-identical to an uninstrumented server.
	Metrics *obs.Registry
	// SlowQuery, when set, emits one JSON line per search slower than
	// its threshold, over either transport, carrying the coordinator's
	// request ID (the X-DL-Request header of an HTTP body, or inside a
	// traced frame on /node/wire) so node-side lines join the
	// coordinator's. nil disables.
	SlowQuery *obs.SlowQueryLog
	// Backend, when set, is the search backend this node serves instead
	// of a bare index — e.g. core.NewEngineBackend, so the partition
	// hosts a full conceptual engine behind the same wire protocol. The
	// ix argument of NewNodeServer is ignored in favour of the
	// backend's content index.
	Backend dist.SearchBackend
}

// NodeServer serves one shared-nothing index fragment over the node
// wire protocol and owns its durability hooks. All index access goes
// through a dist.LocalNode, which arbitrates the one-writer rule
// (adds, freezes and state exports exclusive, queries shared) and runs
// the cached-resolution scoring path — the handler itself only decodes,
// validates and encodes.
type NodeServer struct {
	node       *dist.LocalNode
	maxBody    int64
	maxRestore int64
	maxConc    int
	dataDir    string
	oplog      *persist.OpLog
	snapMu     sync.Mutex // serialises snapshot writes

	// sem bounds in-flight work across both transports: HTTP requests
	// and framed RPCs on upgraded connections draw from the same pool.
	sem *semaphore
	// wireConns counts live upgraded connections (capped at maxConc).
	wireConns atomic.Int64
	// wireMu guards the live upgraded-connection set and the servers
	// whose graceful shutdown has been hooked to reap it: a hijacked
	// conn leaves the http.Server's bookkeeping, so Shutdown would
	// otherwise leave wire conns (and their serve goroutines) alive.
	wireMu   sync.Mutex
	wireLive map[net.Conn]struct{}
	wireSrvs map[*http.Server]bool
	// wireClosed (guarded by wireMu) is set by Close, which then waits
	// on wireLoops for every tracked connection's serve loop to exit.
	wireClosed bool
	wireLoops  sync.WaitGroup
	// wireMet mirrors the per-endpoint HTTP instrumentation for framed
	// RPCs; nil when uninstrumented.
	wireMet map[persist.WireKind]wireEndpointMetrics

	reg     *obs.Registry     // nil = uninstrumented
	slow    *obs.SlowQueryLog // nil = no slow-query log
	scoring *obs.Histogram    // local scoring time, shared with the LocalNode
}

// NewNodeServer builds the node server for ix. A nil cfg selects
// defaults. If the index was restored from a snapshot, pass the
// restore time through MarkRestored so /node/load reports a snapshot
// age instead of "never".
func NewNodeServer(ix *ir.Index, cfg *NodeConfig) *NodeServer {
	backend := dist.SearchBackend(nil)
	if cfg != nil && cfg.Backend != nil {
		backend = cfg.Backend
		ix = backend.ContentIndex()
	} else {
		backend = dist.NewIndexBackend(ix)
	}
	s := &NodeServer{
		node:       dist.NewLocalNodeBackend(backend),
		maxBody:    DefaultMaxBody,
		maxRestore: DefaultMaxRestoreBody,
		maxConc:    DefaultMaxConcurrent,
	}
	if cfg != nil {
		if cfg.MaxBody > 0 {
			s.maxBody = cfg.MaxBody
		}
		if cfg.MaxRestoreBody > 0 {
			s.maxRestore = cfg.MaxRestoreBody
		}
		if cfg.MaxConcurrent > 0 {
			s.maxConc = cfg.MaxConcurrent
		}
		if cfg.Cache != nil {
			s.node.SetResolver(cfg.Cache.Resolve)
		}
		if cfg.MemoryBudget > 0 {
			ix.SetMemoryBudget(cfg.MemoryBudget)
		}
		s.dataDir = cfg.DataDir
		if cfg.OpLog != nil {
			s.oplog = cfg.OpLog
			s.node.SetOpLog(cfg.OpLog)
		}
		s.slow = cfg.SlowQuery
		if reg := cfg.Metrics; reg != nil {
			s.reg = reg
			reg.RegisterRuntimeGauges()
			reg.GaugeFunc("dl_node_backend_info",
				"Constant 1, labelled with the kind of search backend this node serves.",
				obs.Labels("kind", backend.Kind()), func() float64 { return 1 })
			s.scoring = reg.Histogram("dl_node_scoring_seconds",
				"Local query evaluation (scoring) time.", "", obs.LatencyBounds())
			s.node.SetMetrics(&dist.NodeMetrics{
				Scoring: s.scoring,
				IngestDocs: reg.Counter("dl_node_ingest_docs_total",
					"Documents freshly indexed on this node (retried duplicates excluded).", ""),
				LockWait: NodeLockWait(reg),
			})
			if cfg.Cache != nil {
				InstrumentQueryCache(reg, cfg.Cache)
			}
			// What MaxScore made of the admitted postings, exact and
			// budgeted plans alike, across every index the node served.
			const postingsHelp = "Admitted postings evaluations weighed (scored) or passed over (skipped: unable to reach the top n, or outside the candidate set)."
			reg.CounterFunc("dl_node_postings_total", postingsHelp, obs.Labels("kind", "scored"),
				func() uint64 { scored, _ := s.node.PostingCounts(); return uint64(scored) })
			reg.CounterFunc("dl_node_postings_total", postingsHelp, obs.Labels("kind", "skipped"),
				func() uint64 { _, skipped := s.node.PostingCounts(); return uint64(skipped) })
			if s.oplog != nil {
				s.oplog.Instrument(
					reg.Histogram("dl_oplog_append_seconds",
						"Durable op-log append time, end to end.", "", obs.LatencyBounds()),
					reg.Histogram("dl_oplog_fsync_seconds",
						"The fsync inside each op-log append.", "", obs.LatencyBounds()),
				)
			}
		}
	}
	s.sem = newSemaphore(s.maxConc)
	s.initWireMetrics(s.reg)
	return s
}

// NodeLockWait registers dl_node_lock_wait_seconds{op} on reg: how
// long a node's searches, writes and statistics pulls wait for the
// node's lock.
func NodeLockWait(reg *obs.Registry) dist.LockWait {
	const help = "Time a node operation waited for the node's lock: evaluations (search), AddBatch and ApplyOps (add), statistics pulls, which freeze (stats)."
	wait := func(op string) *obs.Histogram {
		return reg.Histogram("dl_node_lock_wait_seconds", help, obs.Labels("op", op), obs.LatencyBounds())
	}
	return dist.LockWait{Search: wait("search"), Add: wait("add"), Stats: wait("stats")}
}

// InstrumentQueryCache registers a query cache on reg: its traffic as
// dl_node_query_cache_total{result="hit"|"miss"} and its occupancy as
// dl_node_query_cache_entries, each series also carrying the label
// pairs kv (the index of a coordinator's in-process cluster).
func InstrumentQueryCache(reg *obs.Registry, qc *core.QueryCache, kv ...string) {
	const help = "Query-term resolutions served from (hit) or computed past (miss) the node's query cache."
	reg.CounterFunc("dl_node_query_cache_total", help, obs.Labels(append(kv, "result", "hit")...),
		func() uint64 { h, _ := qc.Counters(); return h })
	reg.CounterFunc("dl_node_query_cache_total", help, obs.Labels(append(kv, "result", "miss")...),
		func() uint64 { _, m := qc.Counters(); return m })
	reg.GaugeFunc("dl_node_query_cache_entries", "Query-term resolutions the node's query cache holds.",
		obs.Labels(kv...), func() float64 { return float64(qc.Len()) })
}

// Handler returns the HTTP handler serving the node wire protocol:
// POST /node/add/batch and /node/search (binary frames), /node/snapshot
// (persist to disk), /node/restore (replace the fragment),
// GET /node/stats[?since=<version>] (only what changed since),
// /node/load, /node/snapshot (stream the live fragment state),
// GET/POST /node/oplog, /healthz, and the GET /node/wire upgrade.
func (s *NodeServer) Handler() http.Handler {
	mux := http.NewServeMux()
	for path, h := range map[string]http.HandlerFunc{
		dist.PathNodeAddBatch: s.addBatch,
		dist.PathNodeStats:    s.stats,
		dist.PathNodeSearch:   s.search,
		dist.PathNodeLoad:     s.load,
		dist.PathNodeSnapshot: s.snapshot,
		dist.PathNodeRestore:  s.restore,
		dist.PathNodeOpLog:    s.oplogHandler,
	} {
		mux.HandleFunc(path, s.instrument(path, h))
	}
	// The health probe bypasses the semaphore: a saturated node is
	// busy, not dead, and must not be ejected by its load balancer.
	// /metrics does too — a saturated node is when its telemetry
	// matters most.
	outer := http.NewServeMux()
	outer.HandleFunc(dist.PathHealthz, s.healthz)
	if s.reg != nil {
		outer.Handle("/metrics", s.reg.Handler())
	}
	// The upgrade endpoint holds its connection open for the life of the
	// transport, so it lives outside the request semaphore; each framed
	// RPC on the connection acquires a slot instead.
	outer.HandleFunc(dist.PathNodeWire, s.wireUpgrade)
	outer.Handle("/", s.sem.wrap(mux))
	return outer
}

// instrument wraps a handler with a per-endpoint request counter and
// latency histogram. Without a registry the handler is returned
// unchanged, so the uninstrumented serving path is byte-identical to
// the pre-instrumentation one.
func (s *NodeServer) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	if s.reg == nil {
		return h
	}
	count := s.reg.Counter("dl_node_requests_total",
		"Node requests served, by endpoint.", obs.Labels("path", path))
	lat := s.reg.Histogram("dl_node_request_seconds",
		"Node request handling time, by endpoint.",
		obs.Labels("path", path), obs.LatencyBounds())
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		count.Inc()
		h(w, r)
		lat.ObserveSince(start)
	}
}

// serveSearch scores one decoded search request and frames the answer
// into wb — the search path both transports share. id is the
// coordinator's request ID ("" when none arrived). A trace is built
// only when an ID arrived or a slow-query log wants spans, so the
// untraced hot path allocates nothing; it records the scoring span and
// feeds the slow-query log, and is returned so the HTTP transport can
// echo its ID.
func (s *NodeServer) serveSearch(ctx context.Context, id, query string, plan ir.EvalPlan, stats ir.Stats, wb *persist.WireBuffer) *obs.Trace {
	if id == "" && s.slow == nil {
		res, est, _ := s.node.SearchPlan(ctx, query, plan, stats)
		wb.EncodeSearchResponse(res, est)
		return nil
	}
	tr := obs.NewTrace(id)
	scoreStart := time.Now()
	res, est, _ := s.node.SearchPlan(ctx, query, plan, stats)
	tr.AddSpan("scoring", scoreStart)
	wb.EncodeSearchResponse(res, est)
	s.slow.Record(tr, obs.SlowQueryRecord{
		Role: "node", Query: query, Quality: est.Value(), Results: len(res),
	})
	return tr
}

// NewNodeHandler returns the HTTP handler serving ix as a remote
// cluster node — the historical constructor, for callers that need no
// durability hooks. A nil cfg selects defaults.
func NewNodeHandler(ix *ir.Index, cfg *NodeConfig) http.Handler {
	return NewNodeServer(ix, cfg).Handler()
}

// MarkRestored records that the served index was restored from a
// snapshot persisted at unix, so snapshot age starts from the restored
// snapshot instead of "never".
func (s *NodeServer) MarkRestored(unix int64) { s.node.MarkSnapshot(unix) }

// Snapshot persists the node's fragment to its data dir: the state is
// exported under the node's write lock (a consistent cut — concurrent
// adds wait, queries drain first) and written atomically. Returns
// metadata about the written snapshot. Fails when the server was
// built without a data dir.
func (s *NodeServer) Snapshot() (dist.SnapshotResponse, error) {
	if s.dataDir == "" {
		return dist.SnapshotResponse{}, errNoDataDir
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	start := time.Now()
	st := s.node.ExportState()
	path := persist.SnapshotPath(s.dataDir)
	if err := persist.SaveFile(path, st); err != nil {
		return dist.SnapshotResponse{}, err
	}
	now := time.Now()
	s.node.MarkSnapshot(now.Unix())
	if s.oplog != nil {
		// The snapshot covers every operation up to its recorded
		// position — the log prefix below it is now redundant and
		// compacts away, which is what keeps the log (and boot-time
		// replay) bounded by the snapshot INTERVAL instead of the
		// node's whole history. A failed compaction costs only disk
		// and replay time, never correctness: replay is idempotent.
		_ = s.oplog.Compact(st.LogPos)
	}
	resp := dist.SnapshotResponse{
		Path:     path,
		Docs:     len(st.Docs),
		Terms:    len(st.Terms),
		TookMS:   now.Sub(start).Milliseconds(),
		Unix:     now.Unix(),
		Checksum: st.Checksum(),
	}
	if fi, err := os.Stat(path); err == nil {
		resp.Bytes = fi.Size()
	}
	return resp, nil
}

// errNoDataDir reports a snapshot request against a node running
// without durability.
var errNoDataDir = errors.New("node runs without -data-dir: nowhere to snapshot")

func (s *NodeServer) addBatch(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	body, release, ok := readWireBody(w, r, s.maxBody)
	if !ok {
		return
	}
	// Fails closed: a truncated or bit-flipped batch decodes to an error,
	// never to a prefix of itself — nothing is applied.
	docs, errmsg := decodeBatch(body)
	release()
	if errmsg != "" {
		fail(w, http.StatusBadRequest, errmsg)
		return
	}
	if err := s.node.AddBatch(r.Context(), docs); err != nil {
		fail(w, http.StatusBadGateway, "batch add failed: "+err.Error())
		return
	}
	wb := persist.GetWireBuffer()
	wb.EncodeAck()
	writeWire(w, wb)
	persist.PutWireBuffer(wb)
}

// stats answers the statistics pull: only what changed since the
// caller's copy, or the full block when since is absent or names no
// version this node issued (empty, malformed, from another incarnation
// or the future) — never an error, the caller just pays the full
// transfer.
func (s *NodeServer) stats(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	st, now, delta := s.node.StatsSince(dist.ParseStatsVersion(r.URL.Query().Get("since")))
	writeJSON(w, http.StatusOK, dist.StatsPullResponse{
		StatsJSON: dist.StatsToJSON(st), Version: now.String(), Delta: delta,
	})
}

func (s *NodeServer) search(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	body, release, ok := readWireBody(w, r, s.maxBody)
	if !ok {
		return
	}
	query, plan, stats, err := persist.DecodeSearchRequest(body, nil)
	release()
	if err != nil {
		fail(w, http.StatusBadRequest, "unusable wire body: "+err.Error())
		return
	}
	// Empty queries, non-positive n and degenerate plans are
	// well-defined (an empty ranking, exact quality) and must behave
	// exactly like a LocalNode would — client-facing validation lives in
	// the coordinator, and the cluster's local/remote transparency
	// depends on the node protocol never rejecting what a LocalNode
	// accepts.
	wb := persist.GetWireBuffer()
	if tr := s.serveSearch(r.Context(), r.Header.Get(obs.HeaderRequestID), query, plan, stats, wb); tr != nil {
		w.Header().Set(obs.HeaderRequestID, tr.ID)
	}
	writeWire(w, wb)
	persist.PutWireBuffer(wb)
}

func (s *NodeServer) load(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	var l dist.NodeLoad
	if r.URL.Query().Get("fresh") != "" {
		// The anti-entropy probe: guarantee a fresh content digest even
		// if that means freezing and hashing the fragment.
		l, _ = s.node.LoadChecksum(r.Context())
	} else {
		l, _ = s.node.Load(r.Context())
	}
	writeJSON(w, http.StatusOK, dist.LoadResponse{
		Docs:         l.Docs,
		MaxDoc:       uint64(l.MaxDoc),
		SnapshotUnix: l.SnapshotUnix,
		Checksum:     l.Checksum,
		LogPos:       l.LogPos,
	})
}

// oplogHandler serves the delta-resync protocol. GET ?from=P streams
// the node's op-log suffix from position P in the persist delta wire
// format; a position the log no longer covers (compacted, or no log)
// answers 416 so the caller falls back to a full snapshot. POST
// appends-and-applies a delta at exactly the node's position; a
// mismatched position answers 409 — the histories cannot be aligned
// by this delta.
func (s *NodeServer) oplogHandler(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
		if err != nil {
			fail(w, http.StatusBadRequest, "missing or malformed from position")
			return
		}
		ops, err := s.node.OpsSince(r.Context(), from)
		if err != nil {
			if errors.Is(err, dist.ErrDeltaUnavailable) {
				fail(w, http.StatusRequestedRangeNotSatisfiable, err.Error())
				return
			}
			fail(w, http.StatusInternalServerError, "oplog read failed: "+err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := persist.EncodeOps(w, from, ops); err != nil {
			// Headers are gone; aborting mid-body is the only honest
			// signal left (see the snapshot GET handler).
			panic(http.ErrAbortHandler)
		}
	case http.MethodPost:
		from, ops, err := persist.DecodeOps(http.MaxBytesReader(w, r.Body, s.maxRestore))
		if err != nil {
			fail(w, http.StatusBadRequest, "unusable delta body: "+err.Error())
			return
		}
		if err := s.node.ApplyOps(r.Context(), from, ops); err != nil {
			if errors.Is(err, dist.ErrPosMismatch) {
				fail(w, http.StatusConflict, err.Error())
				return
			}
			fail(w, http.StatusInternalServerError, "delta apply failed: "+err.Error())
			return
		}
		writeJSON(w, http.StatusOK, struct{}{})
	default:
		w.Header().Set("Allow", "GET, POST")
		fail(w, http.StatusMethodNotAllowed, "method not allowed")
	}
}

func (s *NodeServer) snapshot(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		// Stream the LIVE fragment state in the persist binary format —
		// the resync transfer. No data dir is needed: the state is
		// exported under the node's write lock (a consistent cut), and
		// the format's own checksum fails a truncated transfer closed on
		// the receiving side.
		st := s.node.ExportState()
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := persist.Save(w, st); err != nil {
			// Headers are gone; aborting the connection mid-body is the
			// only honest signal left (a clean close would present the
			// truncated stream as a complete 200 — persist.Load would
			// still reject it, but a non-persist reader would not).
			panic(http.ErrAbortHandler)
		}
	case http.MethodPost:
		if s.dataDir == "" {
			fail(w, http.StatusPreconditionFailed, errNoDataDir.Error())
			return
		}
		resp, err := s.Snapshot()
		if err != nil {
			fail(w, http.StatusInternalServerError, "snapshot failed: "+err.Error())
			return
		}
		writeJSON(w, http.StatusOK, resp)
	default:
		w.Header().Set("Allow", "GET, POST")
		fail(w, http.StatusMethodNotAllowed, "method not allowed")
	}
}

// restore replaces the served fragment with the snapshot in the
// request body (persist binary format): the state installs under the
// node's write lock with the freeze epoch advanced past the
// pre-restore epoch, so no query cache can serve pre-restore rankings.
// A corrupt body fails closed — the node keeps serving its previous
// fragment. With a data dir configured the restored state is also
// persisted immediately, so a crash right after a resync cannot
// resurrect the pre-resync fragment on the next boot.
func (s *NodeServer) restore(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	st, err := persist.Load(http.MaxBytesReader(w, r.Body, s.maxRestore))
	if err != nil {
		// Corruption, truncation and an over-cap body all surface here;
		// the error text names the cause. Fails closed either way.
		fail(w, http.StatusBadRequest, "unusable snapshot body: "+err.Error())
		return
	}
	if err := s.node.RestoreState(r.Context(), st); err != nil {
		fail(w, http.StatusBadRequest, "restore rejected: "+err.Error())
		return
	}
	resp := dist.RestoreResponse{
		Docs:     len(st.Docs),
		Terms:    len(st.Terms),
		Checksum: st.Checksum(),
	}
	if s.dataDir != "" {
		if snap, err := s.Snapshot(); err == nil {
			resp.SnapshotUnix = snap.Unix
		} else {
			// The in-memory restore stands, but the durability promise
			// (crash cannot resurrect the pre-resync fragment) does not
			// — say so instead of silently omitting the snapshot time.
			resp.SnapshotError = err.Error()
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *NodeServer) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
