// Command dlserve serves the full-text search engine over HTTP, in
// the two roles of the paper's shared-nothing architecture:
//
//	dlserve node -addr :8081 -data-dir /var/lib/dlsearch/node1
//	    serve one index fragment (the dist.Node operations) so a
//	    coordinator can address it as a remote cluster node. With a
//	    data dir the node keeps a write-ahead op log (every ingest is
//	    fsynced to it before being applied) and boots by restoring the
//	    last snapshot plus replaying the log's suffix — acknowledged
//	    writes survive even kill -9. Snapshots (graceful shutdown,
//	    POST /node/snapshot, periodic -compact-interval) double as log
//	    compaction points, bounding replay time.
//
//	dlserve coordinator -addr :8080 -nodes http://h1:8081,http://h2:8082
//	    serve /search, /add/stream, /stats and /healthz over a cluster of
//	    remote nodes (or -local k in-process nodes), with per-node
//	    deadlines and straggler handling. With -replicas R the node
//	    list is sliced into replica groups of R: writes fan out to all
//	    replicas of a partition and reads fail over between them, so
//	    killing any single node does not degrade the ranking. With
//	    -anti-entropy-interval the coordinator periodically compares
//	    replica content checksums within each group and resyncs a
//	    divergent or wiped replica from the healthiest member — the
//	    cluster heals itself without operator action (also on demand
//	    via POST /anti-entropy).
//
//	dlserve coordinator -addr :8080 -engine ausopen \
//	    -indexes Article.body,Player.history -local 2
//	    additionally host a conceptual engine: POST /query evaluates the
//	    paper's query language (SELECT ... WHERE contains(...) AND
//	    About(...)), fanning every contains predicate over the cluster
//	    named by its "Class.attr" key, and POST /add/stream ingests an
//	    NDJSON stream of webspace documents and owned content one line
//	    at a time — the stream may be far larger than -max-body.
//
// A replicated two-partition deployment is four `dlserve node`
// processes plus one coordinator pointed at them:
//
//	dlserve coordinator -addr :8080 -replicas 2 \
//	    -nodes http://h1:8081,http://h2:8082,http://h3:8083,http://h4:8084
//	curl -s -X POST localhost:8080/add/stream \
//	    --data-binary '{"text":"melbourne champion trophy","url":"doc-1"}'
//	curl -s -X POST localhost:8080/search -d '{"query":"champion","n":10}'
//	curl -s localhost:8080/stats
//
// Both roles shut down gracefully on SIGINT/SIGTERM, draining
// in-flight requests (and, with -data-dir, snapshotting the fragment).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served only on -pprof-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dlsearch/internal/core"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/obs"
	"dlsearch/internal/persist"
	"dlsearch/internal/server"
	"dlsearch/internal/site"
	"dlsearch/internal/slo"
)

// logger is the process's one leveled logger; -log-level adjusts it
// before anything else runs.
var logger = obs.NewLogger(os.Stderr, "dlserve", obs.LevelInfo)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	addr := fs.String("addr", "", "listen address (host:port)")
	cache := fs.Int("cache", core.DefaultQueryCacheSize, "query-cache capacity (0 disables)")
	lambda := fs.Float64("lambda", 0, "ranking smoothing parameter (0 keeps the default)")
	nodes := fs.String("nodes", "", "comma-separated remote node base URLs (coordinator)")
	local := fs.Int("local", 0, "number of in-process nodes when -nodes is empty (coordinator)")
	replicas := fs.Int("replicas", 1, "replication factor: nodes are sliced into replica groups of this size (coordinator)")
	index := fs.String("index", "default", "name of the served index (coordinator)")
	indexes := fs.String("indexes", "", "comma-separated names of several served indexes, each its own cluster: remote -nodes are split evenly across them in order, or every index gets -local in-process nodes; empty serves the single -index (coordinator)")
	engineKind := fs.String("engine", "", "conceptual engine serving POST /query and webspace stream lines: 'ausopen' hosts the paper's Australian Open schema; empty disables (coordinator)")
	maxBody := fs.Int64("max-body", 0, "request body cap in bytes, 0 selects the default; the /add/stream body is exempt — only its per-line size is capped (coordinator)")
	streamFlush := fs.Int("stream-flush", 0, "per-index document batch size of /add/stream, 0 selects the default (coordinator)")
	nodeTimeout := fs.Duration("node-timeout", 2*time.Second, "per-node call deadline, 0 disables (coordinator)")
	searchTimeout := fs.Duration("search-timeout", 5*time.Second, "end-to-end /search deadline, 0 disables (coordinator)")
	maxConc := fs.Int("max-concurrent", server.DefaultMaxConcurrent, "bound on in-flight requests")
	frags := fs.Int("frags", 0, "per-node idf fragmentation granularity for budgeted /search, 0 selects the default (coordinator)")
	fragBudget := fs.Int("frag-budget", 0, "default /search fragment budget: leading fragments evaluated per node, 0 = exact (coordinator)")
	minQuality := fs.Float64("min-quality", 0, "default /search quality floor in (0,1], 0 disables (coordinator)")
	sloMS := fs.Float64("slo-ms", 0, "target /search latency SLO in milliseconds — enables the adaptive budget controller: fragment budgets are picked from the learned quality/latency curve and overload degrades quality instead of 503ing (503 only below -min-quality); 0 keeps /search manual (coordinator)")
	memBudget := fs.Int("mem-budget", 0, "posting-store memory budget in bytes, cold lists held compressed, 0 disables (node)")
	dataDir := fs.String("data-dir", "", "durability directory: restore on boot, snapshot on shutdown and on POST /node/snapshot (node)")
	oplogDir := fs.String("oplog-dir", "", "write-ahead op log directory — ingest is logged durably before applying and replayed over the snapshot on boot; defaults to -data-dir (node)")
	compactInterval := fs.Duration("compact-interval", 0, "periodic snapshot + op-log compaction interval, 0 disables; requires -data-dir (node)")
	resyncFrom := fs.String("resync", "", "peer node base URL to pull the fragment from at boot — seeds a fresh or wiped replica from a live group member (node)")
	verifyPeer := fs.String("verify", "", "peer node base URL to compare content checksums with after boot recovery — a mismatch pulls the peer's state instead of serving wrong rankings (node)")
	antiEntropy := fs.Duration("anti-entropy-interval", 0, "periodic replica checksum comparison + auto-resync interval, 0 disables (coordinator)")
	logLevel := fs.String("log-level", "info", "log threshold: debug, info, warn or error (background-loop noise logs at debug)")
	slowQueryMS := fs.Int("slow-query-ms", 0, "log one JSON line with the full span breakdown for every query slower than this; 0 disables, negative logs every query")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060), empty disables")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	logger.SetLevel(level)
	if *pprofAddr != "" {
		go func() {
			logger.Infof("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Errorf("pprof server: %v", err)
			}
		}()
	}
	// One metrics registry per process, served on GET /metrics by
	// whichever role runs; the slow-query log shares its stderr stream
	// with the leveled logger.
	reg := obs.NewRegistry()
	var slow *obs.SlowQueryLog
	switch {
	case *slowQueryMS > 0:
		slow = obs.NewSlowQueryLog(os.Stderr, time.Duration(*slowQueryMS)*time.Millisecond)
	case *slowQueryMS < 0:
		slow = obs.NewSlowQueryLog(os.Stderr, time.Nanosecond)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	switch cmd {
	case "node":
		if *addr == "" {
			*addr = ":8081"
		}
		runNode(ctx, *addr, *lambda, *cache, *maxConc, *memBudget, *dataDir, *oplogDir, *resyncFrom, *verifyPeer, *compactInterval, reg, slow)
	case "coordinator":
		if *addr == "" {
			*addr = ":8080"
		}
		// Adaptive serving: the controller owns the per-index
		// quality/latency curve; every node of the cluster feeds it
		// through its cost hook.
		var ctl *slo.Controller
		if *sloMS > 0 {
			fragK := *frags
			if fragK <= 0 {
				fragK = ir.DefaultFragments
			}
			ctl = slo.New(slo.Config{
				Target:     time.Duration(*sloMS * float64(time.Millisecond)),
				MaxBudget:  fragK,
				MinQuality: *minQuality,
			})
		}
		names := []string{*index}
		if *indexes != "" {
			names = names[:0]
			for _, n := range strings.Split(*indexes, ",") {
				if n = strings.TrimSpace(n); n != "" {
					names = append(names, n)
				}
			}
			if len(names) == 0 {
				fatal(fmt.Errorf("-indexes names no index"))
			}
		}
		nodeLists := make([]string, len(names))
		if *nodes != "" && len(names) > 1 {
			// Remote nodes are sliced evenly across the indexes, in
			// order: 4 nodes over 2 indexes = 2 nodes each.
			urls := splitURLs(*nodes)
			if len(urls)%len(names) != 0 {
				fatal(fmt.Errorf("-nodes lists %d nodes, not divisible over %d indexes", len(urls), len(names)))
			}
			per := len(urls) / len(names)
			for i := range names {
				nodeLists[i] = strings.Join(urls[i*per:(i+1)*per], ",")
			}
		} else {
			for i := range names {
				nodeLists[i] = *nodes
			}
		}
		clusters := make(map[string]*dist.Cluster, len(names))
		for i, name := range names {
			cluster, err := buildCluster(name, nodeLists[i], *local, *replicas, *lambda, *nodeTimeout, *cache, reg)
			if err != nil {
				fatal(err)
			}
			clusters[name] = cluster
		}
		var eng *core.Engine
		switch *engineKind {
		case "":
		case "ausopen":
			var err error
			if eng, err = core.NewAusOpen(site.Generate(1)); err != nil {
				fatal(fmt.Errorf("-engine ausopen: %w", err))
			}
		default:
			fatal(fmt.Errorf("-engine must be empty or ausopen, got %q", *engineKind))
		}
		co := server.NewCoordinator(clusters, &server.CoordinatorConfig{
			MaxBody:       *maxBody,
			MaxConcurrent: *maxConc,
			SearchTimeout: *searchTimeout,
			Frags:         *frags,
			FragBudget:    *fragBudget,
			MinQuality:    *minQuality,
			Metrics:       reg,
			SlowQuery:     slow,
			SLO:           ctl,
			Engine:        eng,
			StreamFlush:   *streamFlush,
		})
		if *antiEntropy > 0 {
			// Background self-healing: periodically compare replica
			// checksums within each group and resync divergent replicas
			// from their group — no operator action needed.
			for _, cluster := range clusters {
				go cluster.RunAntiEntropy(ctx, *antiEntropy)
			}
		}
		logger.Infof("coordinator listening on %s", *addr)
		if err := server.Run(ctx, *addr, co.Handler(), 0); err != nil {
			fatal(err)
		}
	default:
		usage()
		os.Exit(2)
	}
}

// runNode boots one fragment server. Recovery is snapshot + op-log
// replay: restore the data dir's snapshot if one exists (a corrupt
// snapshot is fatal — the node refuses to serve a partial index
// rather than silently dropping documents from every ranking), then
// replay the write-ahead op log's suffix past the snapshot's recorded
// position, so ingest acknowledged before a crash — even kill -9 —
// survives the restart. -resync instead pulls the fragment from a
// live peer (overriding any local state — the peer IS the group
// truth) and resets the log to the pulled position. The node serves
// until the context cancels, then snapshots the fragment (compacting
// the log) so the next boot replays almost nothing.
func runNode(ctx context.Context, addr string, lambda float64, cacheCap, maxConc, memBudget int, dataDir, oplogDir, resyncFrom, verifyPeer string, compactInterval time.Duration, reg *obs.Registry, slow *obs.SlowQueryLog) {
	if oplogDir == "" {
		oplogDir = dataDir
	}
	if compactInterval > 0 && dataDir == "" {
		fatal(fmt.Errorf("-compact-interval requires -data-dir (compaction persists a snapshot)"))
	}
	ix := ir.NewIndex()
	restoredUnix := int64(0)
	snapPos := uint64(0)
	for _, dir := range []string{dataDir, oplogDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fatal(err)
			}
		}
	}
	// -resync overrides the local snapshot entirely — the peer's state
	// IS the group truth — so the disk restore is skipped, which also
	// lets -resync heal a node whose local snapshot is corrupt (the
	// very case it exists for) instead of dying on the corrupt file.
	if dataDir != "" && resyncFrom == "" {
		path := persist.SnapshotPath(dataDir)
		st, err := persist.LoadFile(path)
		switch {
		case err == nil:
			restored, ierr := ir.ImportState(st)
			if ierr != nil {
				fatal(fmt.Errorf("refusing to serve: %w: %v", persist.ErrCorrupt, ierr))
			}
			ix = restored
			snapPos = st.LogPos
			if fi, serr := os.Stat(path); serr == nil {
				restoredUnix = fi.ModTime().Unix()
			}
			logger.Infof("restored %d docs, %d terms from %s (log position %d)",
				ix.DocCount(), ix.TermCount(), path, snapPos)
		case errors.Is(err, fs.ErrNotExist):
			// First boot: nothing to restore.
		default:
			fatal(fmt.Errorf("refusing to serve: %w", err))
		}
	}
	var oplog *persist.OpLog
	if oplogDir != "" && resyncFrom == "" {
		oplog = openAndReplayLog(oplogDir, snapPos, ix)
	}
	resynced := false
	if resyncFrom != "" {
		peer := dist.NewRemoteNode(resyncFrom, nil)
		st, err := peer.SnapshotState(ctx)
		if err != nil {
			fatal(fmt.Errorf("resync from %s: %w", resyncFrom, err))
		}
		restored, err := ir.ImportState(st)
		if err != nil {
			fatal(fmt.Errorf("resync from %s: %w", resyncFrom, err))
		}
		ix = restored
		resynced = true
		oplog = resetLogTo(oplogDir, st.LogPos)
		logger.Infof("resynced %d docs, %d terms from %s (log position %d)",
			ix.DocCount(), ix.TermCount(), resyncFrom, st.LogPos)
	}
	if verifyPeer != "" {
		// Checksum-verified rejoin: compare content checksums with a
		// group peer before serving. Equal checksums prove recovery
		// reproduced the group's exact state; a mismatch means this
		// replica would serve wrong rankings, so pull the peer's full
		// state instead of joining divergent.
		peer := dist.NewRemoteNode(verifyPeer, nil)
		pl, err := peer.LoadChecksum(ctx)
		if err != nil || pl.Checksum == "" {
			fatal(fmt.Errorf("verify against %s: no checksum (%v) — refusing to serve unverified", verifyPeer, err))
		}
		if own := ix.Checksum(); own == pl.Checksum {
			logger.Infof("checksum verified against %s (%s)", verifyPeer, own)
		} else {
			logger.Warnf("checksum mismatch with %s (local %s, peer %s) — pulling peer state",
				verifyPeer, own, pl.Checksum)
			st, err := peer.SnapshotState(ctx)
			if err != nil {
				fatal(fmt.Errorf("verify-heal from %s: %w", verifyPeer, err))
			}
			restored, err := ir.ImportState(st)
			if err != nil {
				fatal(fmt.Errorf("verify-heal from %s: %w", verifyPeer, err))
			}
			ix = restored
			resynced = true
			if oplog != nil {
				if err := oplog.Reset(st.LogPos); err != nil {
					fatal(fmt.Errorf("op log reset: %w", err))
				}
			} else {
				oplog = resetLogTo(oplogDir, st.LogPos)
			}
			logger.Infof("healed from %s: %d docs, %d terms (log position %d)",
				verifyPeer, ix.DocCount(), ix.TermCount(), st.LogPos)
		}
	}
	if lambda != 0 {
		ix.SetLambda(lambda)
	}
	cfg := &server.NodeConfig{
		MaxConcurrent: maxConc,
		MemoryBudget:  memBudget,
		DataDir:       dataDir,
		OpLog:         oplog,
		Metrics:       reg,
		SlowQuery:     slow,
	}
	if cacheCap > 0 {
		cfg.Cache = core.NewQueryCache(cacheCap)
	}
	ns := server.NewNodeServer(ix, cfg)
	if restoredUnix > 0 {
		ns.MarkRestored(restoredUnix)
	}
	if resynced && dataDir != "" {
		// Persist the pulled fragment before serving. The op log was
		// just reset to base = the pulled position, so until a snapshot
		// recording that position is on disk, a crash leaves the next
		// boot with no snapshot and a log starting past 0 — it would
		// refuse to serve and need another manual -resync. Failing to
		// write that snapshot is therefore fatal, not a warning: the
		// resynced state and the reset log base must agree on disk
		// before the node serves.
		snap, err := ns.Snapshot()
		if err != nil {
			fatal(fmt.Errorf("refusing to serve: post-resync snapshot: %w", err))
		}
		logger.Infof("snapshot %s (%d docs)", snap.Path, snap.Docs)
	}
	if compactInterval > 0 {
		// Periodic snapshot + log compaction: bound boot-time replay by
		// regularly folding the log's prefix into a snapshot. A failed
		// pass only costs replay time on the next boot, never
		// correctness, so it logs and keeps ticking.
		go func() {
			t := time.NewTicker(compactInterval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if snap, err := ns.Snapshot(); err != nil {
						logger.Warnf("periodic snapshot failed: %v", err)
					} else {
						logger.Debugf("compacted: snapshot %s (%d docs, %d bytes)",
							snap.Path, snap.Docs, snap.Bytes)
					}
				}
			}
		}()
	}
	logger.Infof("node listening on %s", addr)
	err := server.Run(ctx, addr, ns.Handler(), 0)
	// Run's graceful shutdown drained the HTTP requests; the upgraded
	// wire connections left the http.Server's care when they were
	// hijacked, so they are reaped here, before the final snapshot.
	ns.Close()
	if dataDir != "" && ctx.Err() != nil {
		// Graceful shutdown (not a listen failure): persist the
		// fragment so a restart serves it without reindexing.
		if snap, serr := ns.Snapshot(); serr != nil {
			logger.Warnf("shutdown snapshot failed: %v", serr)
		} else {
			logger.Infof("snapshot %s (%d docs, %d bytes)", snap.Path, snap.Docs, snap.Bytes)
		}
	}
	if err != nil {
		fatal(err)
	}
}

// openAndReplayLog opens the write-ahead op log and folds its suffix
// past the snapshot position into ix. A torn tail (kill -9 mid-append)
// was never acknowledged, so truncating it is safe and logged;
// interior corruption is fatal — the log is the source of truth and a
// hole in it means acknowledged writes are unrecoverable here (boot
// with -resync to pull the fragment from a live peer instead). Replay
// starts at the log's base, not the snapshot position: the overlap is
// deduplicated by oid, and over-replay is the cheap direction.
func openAndReplayLog(dir string, snapPos uint64, ix *ir.Index) *persist.OpLog {
	l, err := persist.OpenOpLog(dir)
	if err != nil {
		fatal(fmt.Errorf("refusing to serve: %w", err))
	}
	if tb := l.TruncatedBytes(); tb > 0 {
		logger.Warnf("op log: truncated %d-byte torn tail (unacknowledged partial append)", tb)
	}
	if l.Base() > snapPos {
		fatal(fmt.Errorf("refusing to serve: op log starts at position %d but the snapshot covers only %d — operations in between are lost", l.Base(), snapPos))
	}
	replayed := 0
	if err := l.Replay(l.Base(), func(op persist.Op) error {
		if !ix.HasDoc(op.Doc) {
			ix.Add(op.Doc, op.URL, op.Text)
			replayed++
		}
		return nil
	}); err != nil {
		fatal(fmt.Errorf("refusing to serve: op log replay: %w", err))
	}
	if l.Pos() > snapPos {
		logger.Infof("replayed op log %d..%d (%d new docs), now %d docs",
			snapPos, l.Pos(), replayed, ix.DocCount())
	}
	return l
}

// resetLogTo replaces the node's op log with an empty one at base —
// the position of the full state that was just pulled from a peer,
// which subsumes every local record. A local log too corrupt to open
// is simply recreated: the resync exists to discard local state.
func resetLogTo(dir string, base uint64) *persist.OpLog {
	if dir == "" {
		return nil
	}
	l, err := persist.OpenOpLog(dir)
	if err != nil {
		if rerr := os.Remove(persist.OpLogPath(dir)); rerr != nil {
			fatal(fmt.Errorf("op log unreadable (%v) and unremovable: %w", err, rerr))
		}
		if l, err = persist.OpenOpLog(dir); err != nil {
			fatal(fmt.Errorf("op log: %w", err))
		}
	}
	if err := l.Reset(base); err != nil {
		fatal(fmt.Errorf("op log reset: %w", err))
	}
	return l
}

// splitURLs splits a comma-separated URL list, dropping blanks.
func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

// buildCluster assembles the coordinator's cluster for the named
// index: remote nodes from the URL list (sliced into replica groups of
// r), or k in-process nodes as a single-binary deployment. The query
// cache exists only in the local mode, where it resolves the nodes'
// query terms and reg reports it under the index's name; remote nodes
// cache server-side (their own -cache flag) instead.
func buildCluster(name, nodeURLs string, local, r int, lambda float64, nodeTimeout time.Duration, cacheCap int, reg *obs.Registry) (*dist.Cluster, error) {
	opts := &dist.Options{Lambda: lambda, NodeTimeout: nodeTimeout, Logger: logger,
		Metrics: &dist.ClusterMetrics{
			RPCLatency:     reg.Histogram("dl_rpc_latency_seconds", "Routed per-node cluster call latency (failures included).", "", obs.LatencyBounds()),
			AntiEntropyDur: reg.Histogram("dl_anti_entropy_seconds", "Full anti-entropy pass duration.", "", obs.LatencyBounds()),
			ResyncDur:      reg.Histogram("dl_resync_seconds", "Replica resync duration.", "", obs.LatencyBounds()),
			Retries:        reg.Counter("dl_retries_total", "Self-healing RPC retries.", ""),
			BackoffSeconds: reg.Histogram("dl_backoff_seconds", "Backoff sleeps between retries.", "", obs.LatencyBounds()),
		}}
	if nodeURLs != "" {
		rm := &dist.RemoteMetrics{
			Latency:  reg.Histogram("dl_rpc_client_seconds", "Remote-node RPC round-trip latency.", "", obs.LatencyBounds()),
			BytesOut: reg.Counter("dl_rpc_bytes_out_total", "Request bytes sent to remote nodes.", ""),
			BytesIn:  reg.Counter("dl_rpc_bytes_in_total", "Response bytes read from remote nodes.", ""),
			StatsPullsFull: reg.Counter("dl_stats_pulls_total",
				"Statistics pulls from remote nodes, by what the node answered: its whole vocabulary (full) or only the stems changed since the last pull (delta).",
				obs.Labels("kind", "full")),
			StatsPullsDelta: reg.Counter("dl_stats_pulls_total", "", obs.Labels("kind", "delta")),
			StatsPullBytes:  reg.Counter("dl_stats_pull_bytes_total", "Response bytes of statistics pulls from remote nodes.", ""),
		}
		var members []dist.Node
		for _, u := range strings.Split(nodeURLs, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			rn := dist.NewRemoteNode(u, nil)
			// Real remote processes: open the persistent-connection
			// transport; a peer that refuses the upgrade gets the same
			// frames as HTTP bodies.
			rn.SetCodec(dist.CodecWire)
			rn.SetMetrics(rm)
			members = append(members, rn)
		}
		if len(members) == 0 {
			return nil, fmt.Errorf("no node URLs in -nodes")
		}
		return dist.NewReplicatedCluster(members, r, opts)
	}
	if local < 1 {
		local = 1
	}
	var qc *core.QueryCache
	if cacheCap > 0 {
		qc = core.NewQueryCache(cacheCap)
		server.InstrumentQueryCache(reg, qc, "index", name)
	}
	nm := &dist.NodeMetrics{
		Scoring:    reg.Histogram("dl_node_scoring_seconds", "Local query evaluation wall time.", "", obs.LatencyBounds()),
		IngestDocs: reg.Counter("dl_node_ingest_docs_total", "Documents indexed on in-process nodes.", ""),
	}
	members := make([]dist.Node, local)
	for i := range members {
		ix := ir.NewIndex()
		if lambda != 0 {
			ix.SetLambda(lambda)
		}
		ln := dist.NewLocalNode(ix)
		if qc != nil {
			ln.SetResolver(qc.Resolve)
		}
		ln.SetMetrics(nm)
		members[i] = ln
	}
	return dist.NewReplicatedCluster(members, r, opts)
}

func fatal(err error) {
	logger.Errorf("%v", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: dlserve {node|coordinator} [flags]

  dlserve node -addr :8081 -data-dir /var/lib/dlsearch/node1
  dlserve node -addr :8081 -data-dir d1 -compact-interval 5m   (bounded replay)
  dlserve node -addr :8081 -resync http://h2:8082     (seed from a live peer)
  dlserve node -addr :8081 -data-dir d1 -verify http://h2:8082 (checksum rejoin)
  dlserve coordinator -addr :8080 -nodes http://h1:8081,http://h2:8082
  dlserve coordinator -addr :8080 -replicas 2 -anti-entropy-interval 30s \
      -nodes http://h1:8081,...
  dlserve coordinator -addr :8080 -local 4
  dlserve coordinator -addr :8080 -engine ausopen \
      -indexes Article.body,Player.history -nodes http://h1:8081,...,http://h4:8084
      (conceptual engine: POST /query runs the paper's query language with
      contains() fanned over the named clusters; POST /add/stream ingests
      NDJSON webspace documents and owned content with bounded memory)`)
}
