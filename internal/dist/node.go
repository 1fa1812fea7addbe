package dist

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dlsearch/internal/bat"
	"dlsearch/internal/ir"
	"dlsearch/internal/obs"
	"dlsearch/internal/persist"
)

// Node is one shared-nothing member of a Cluster, and the whole
// contract between the central site and a fragment: one write
// operation, one read operation, the two probes that feed them, and one
// replication surface. The interface is the network boundary of the
// distributed design: the in-process LocalNode and the HTTP-backed
// RemoteNode both satisfy it, so a cluster mixes local and remote
// members transparently and the central site neither knows nor cares
// where a fragment physically lives — nor has to ask a member what it
// can do.
//
// Every method takes a context so the central site can impose
// per-node deadlines; a node that cannot answer in time is dropped
// from the merge (straggler handling) rather than stalling the query.
type Node interface {
	// AddBatch indexes one partition's share of a batch in a single
	// round-trip (a single document is a batch of one). Ingest is
	// idempotent per document oid BY CONTRACT: re-posting a document
	// that was already applied is a no-op, never a tf double-fold, so
	// document oids are write-once at the node boundary. That is what
	// makes at-least-once ingest safe: a replica that timed out AFTER
	// applying a batch (the acknowledgement was lost) is simply retried
	// with the same oids, and a replica that missed the batch applies
	// it. A nil return acknowledges the WHOLE batch as durable (logged
	// before applied, where the node keeps a log); an error
	// acknowledges nothing.
	AddBatch(ctx context.Context, docs []Doc) error
	// Stats freezes the node's derived state and returns its local
	// term statistics for central aggregation. The returned map is
	// read-only: a RemoteNode hands out its cached copy and patches a
	// clone when the node reports changes.
	Stats(ctx context.Context) (ir.Stats, error)
	// SearchPlan evaluates the query over the node's local fragment
	// using the supplied global statistics and returns at most plan.N
	// results — the RES(doc-oid, score) set of the paper — plus the
	// quality it achieved. A Cluster sends exact plans only: it has made
	// the a-priori cut-off of [BHC+01] itself, under global df, and a
	// stem it cut is missing from global, so it weighs nothing here. An
	// exact plan scores every posting of the weighed stems and reports
	// the zero estimate; a budgeted plan sent directly is cut against
	// the node's own df histogram.
	SearchPlan(ctx context.Context, query string, plan ir.EvalPlan, global ir.Stats) ([]ir.Result, ir.QualityEstimate, error)
	// Load returns the node's document load. It is a monitoring probe
	// and must stay O(1): the checksum is whatever digest is cached,
	// possibly empty.
	Load(ctx context.Context) (NodeLoad, error)
	// LoadChecksum is Load with a guaranteed FRESH content checksum,
	// paying the freeze + digest cost when the content changed since
	// the last one. Anti-entropy and post-resync verification probe
	// through it.
	LoadChecksum(ctx context.Context) (NodeLoad, error)

	// SnapshotState exports the node's complete fragment state as one
	// consistent cut — the read side of full replica resync.
	SnapshotState(ctx context.Context) (*ir.IndexState, error)
	// RestoreState atomically replaces the node's entire fragment with
	// the supplied state — the write side of full replica resync. The
	// state installs under the node's write lock with the freeze epoch
	// advanced strictly past the pre-restore epoch, so epoch-guarded
	// query caches can never serve pre-restore term resolutions; a state
	// that fails validation leaves the previous fragment serving.
	RestoreState(ctx context.Context, st *ir.IndexState) error
	// OpsSince returns the node's op-log suffix from position from —
	// every operation a replica at that position is missing; the read
	// side of delta resync. ErrDeltaUnavailable means the suffix was
	// compacted away (or the node keeps no log) and only a full
	// snapshot covers it.
	OpsSince(ctx context.Context, from uint64) ([]persist.Op, error)
	// ApplyOps appends-and-applies a log suffix — the write side of
	// delta resync. The node must reject (ErrPosMismatch) a delta whose
	// from does not equal its own position: positions are the only
	// alignment evidence the delta path has, so applying at an offset
	// would silently interleave histories. Applying is idempotent per
	// document oid, like all ingest.
	ApplyOps(ctx context.Context, from uint64, ops []persist.Op) error
}

// NodeLoad describes one node's document load: how many documents it
// holds, the highest oid among them (so central oid allocators can
// continue the sequence without reusing a live oid), when the node
// last persisted a snapshot (unix seconds, 0 = never) so operators can
// see how much work a crash would lose, and the content checksum of
// its fragment (ir.Index.Checksum) — the anti-entropy comparison key:
// replicas of a group holding identical documents report identical
// checksums no matter how the writes interleaved. Load itself never
// computes a digest (probes must stay O(1)), so Checksum may be empty
// when the content changed since the last digest; anti-entropy probes
// through LoadChecksum, which forces a fresh one.
type NodeLoad struct {
	Docs         int
	MaxDoc       bat.OID
	SnapshotUnix int64
	Checksum     string
	// LogPos is the node's op-log position — how many ingest
	// operations its history holds. Replicas of a group converge to
	// equal positions (writes fan to every member, idempotent ingest
	// de-duplicates), so the group maximum minus a replica's position
	// is that replica's lag, and the position is what the delta-resync
	// path ships a log suffix from.
	LogPos uint64
}

// Doc is one document of a batch add.
type Doc struct {
	OID  bat.OID
	URL  string
	Text string
}

// ErrDeltaUnavailable reports that a node cannot serve the requested
// op-log suffix — the position predates its log's base (compacted into
// a snapshot), or the node keeps no log at all. The caller falls back
// to a full-snapshot resync; nothing is wrong with the node.
var ErrDeltaUnavailable = errors.New("dist: op-log delta unavailable for requested position")

// ErrPosMismatch reports a delta whose starting position does not
// equal the applying node's position: the histories cannot be proven
// to align, so the node rejects the delta and the caller falls back
// to a full-snapshot resync.
var ErrPosMismatch = errors.New("dist: delta position does not match node position")

// LocalNode adapts an in-process search backend — a bare ir.Index or
// a conceptual engine's per-attribute index (see SearchBackend) — to
// the Node interface. Its methods never fail and ignore context
// cancellation mid-call (an in-memory query completes in
// microseconds); the cluster's straggler machinery still applies
// uniformly.
//
// A RWMutex arbitrates the index's one-writer rule so a serving layer
// may add documents and answer queries concurrently: AddBatch and
// Stats (which freezes) take the write lock, queries the read lock.
type LocalNode struct {
	mu sync.RWMutex
	// backend owns the served index; ix caches backend.ContentIndex()
	// so every hot read path stays one pointer dereference, exactly as
	// before the backend existed. The two are updated together under
	// the write lock (RestoreState).
	backend  SearchBackend
	ix       *ir.Index
	resolve  func(*ir.Index, string) ([]string, []bat.OID)
	lastSnap atomic.Int64 // unix seconds of the last persisted snapshot

	// oplog, when attached, is the node's write-ahead log: every
	// ingest operation is appended (and fsynced) BEFORE it is applied
	// to the index, so a crash between the two replays the operation
	// on boot instead of losing it. pos mirrors the log's position and
	// is maintained even without a log (guarded by mu), so replica lag
	// stays observable on log-less nodes.
	oplog *persist.OpLog
	pos   uint64

	// incarnation names the index instance behind the node's freeze
	// epochs (see StatsVersion); guarded by mu.
	incarnation uint64

	// met, when set, records node-side serving telemetry. nil means no
	// instrumentation at all: the hot query path pays one pointer
	// compare and nothing else.
	met *NodeMetrics

	// postingsBase holds the posting counts of the indexes RestoreState
	// replaced, so PostingCounts never runs backwards; guarded by mu.
	postingsBase [2]int64
}

// NodeMetrics is the node-side instrumentation a serving layer may
// attach to a LocalNode. All fields are optional (nil instruments are
// no-ops).
type NodeMetrics struct {
	// Scoring observes the wall time of every local query evaluation
	// (exact and budgeted), in seconds.
	Scoring *obs.Histogram
	// IngestDocs counts freshly indexed documents (duplicates a
	// retried write re-posts are not counted).
	IngestDocs *obs.Counter
	// LockWait observes how long each operation waited for the node's
	// lock, in seconds.
	LockWait LockWait
}

// LockWait holds one histogram per kind of operation that takes a
// LocalNode's lock; a nil histogram observes nothing.
type LockWait struct {
	Search *obs.Histogram // evaluations, under the read lock
	Add    *obs.Histogram // AddBatch and ApplyOps, under the write lock
	Stats  *obs.Histogram // StatsSince, which freezes under the write lock
}

// lockWait returns the lock-wait histograms of m, none when m is nil.
func (m *NodeMetrics) lockWait() LockWait {
	if m == nil {
		return LockWait{}
	}
	return m.LockWait
}

// lock takes the node's write lock, observing the wait on h.
func (n *LocalNode) lock(h *obs.Histogram) {
	if h == nil {
		n.mu.Lock()
		return
	}
	start := time.Now()
	n.mu.Lock()
	h.ObserveSince(start)
}

// rlock takes the node's read lock, observing the wait on h.
func (n *LocalNode) rlock(h *obs.Histogram) {
	if h == nil {
		n.mu.RLock()
		return
	}
	start := time.Now()
	n.mu.RLock()
	h.ObserveSince(start)
}

// SetMetrics attaches node-side instrumentation. Set it before the
// node starts serving; nil detaches.
func (n *LocalNode) SetMetrics(m *NodeMetrics) { n.met = m }

// NewLocalNode wraps an index as a cluster node (an IndexBackend —
// the classic bare-fragment path).
func NewLocalNode(ix *ir.Index) *LocalNode {
	return NewLocalNodeBackend(NewIndexBackend(ix))
}

// NewLocalNodeBackend wraps a search backend as a cluster node, so a
// partition can host whatever owns the index — a bare fragment or a
// full conceptual engine. It panics on a nil backend or content index
// (a node with nothing to serve is a construction bug, and a deferred
// nil dereference on the first query would be far harder to diagnose).
func NewLocalNodeBackend(b SearchBackend) *LocalNode {
	if b == nil || b.ContentIndex() == nil {
		panic("dist: LocalNode requires a backend with a content index")
	}
	return &LocalNode{backend: b, ix: b.ContentIndex(), incarnation: newIncarnation()}
}

// Index exposes the underlying index for experiments and tests, as of
// the call: RestoreState swaps in another. Do not mutate it while the
// node is serving queries — go through AddBatch.
func (n *LocalNode) Index() *ir.Index {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.ix
}

// PostingCounts returns the admitted postings the node's evaluations
// weighed (scored) and passed over (skipped), cumulative across
// RestoreState: the counts of every index the node has served.
func (n *LocalNode) PostingCounts() (scored, skipped int64) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	scored, skipped = n.ix.PostingCounts()
	return n.postingsBase[0] + scored, n.postingsBase[1] + skipped
}

// Backend exposes the node's search backend (never nil).
func (n *LocalNode) Backend() SearchBackend { return n.backend }

// SetResolver injects a query-term resolver — the engine's query-side
// LRU cache (core.QueryCache.Resolve fits the signature) — so this
// node's top-N path skips re-tokenizing and re-stemming hot queries.
// Set it before the node starts serving queries.
func (n *LocalNode) SetResolver(f func(*ir.Index, string) ([]string, []bat.OID)) { n.resolve = f }

// SetOpLog attaches a write-ahead op log: from now on every ingest
// appends to it durably before applying, and the node's position
// continues from the log's. Attach at boot, after replaying the log
// into the index and before the node starts serving — the attach
// itself takes the write lock, but ingest racing the replay would
// interleave positions.
func (n *LocalNode) SetOpLog(l *persist.OpLog) {
	n.mu.Lock()
	n.oplog = l
	if l != nil {
		n.pos = l.Pos()
	}
	n.mu.Unlock()
}

// OpLog returns the attached write-ahead log (nil when none).
func (n *LocalNode) OpLog() *persist.OpLog {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.oplog
}

// LogPos returns the node's op-log position.
func (n *LocalNode) LogPos() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.pos
}

// logThenApply is the write-ahead ingest core; the caller holds the
// write lock. The fresh (not-yet-indexed) subset of docs is appended
// to the op log — one durable fsynced write — and applied to the
// index only after the append succeeded, so every applied operation
// is recoverable by replay. A failed append applies NOTHING: the
// caller's error tells it the write did not happen, and the torn
// bytes a crashed append may leave are truncated by the next open.
// Duplicate oids are skipped entirely (not logged, not applied) —
// that is what keeps replica positions aligned: every member of a
// group sees the same fan-out and filters the same duplicates.
func (n *LocalNode) logThenApply(docs []Doc) error {
	fresh := docs[:0:0]
	for _, d := range docs {
		if !n.ix.HasDoc(d.OID) {
			fresh = append(fresh, d)
		}
	}
	if len(fresh) == 0 {
		return nil
	}
	if n.oplog != nil {
		ops := make([]persist.Op, len(fresh))
		for i, d := range fresh {
			ops[i] = persist.Op{Doc: d.OID, URL: d.URL, Text: d.Text}
		}
		if err := n.oplog.Append(ops...); err != nil {
			return err
		}
	}
	n.backend.ApplyDocs(fresh)
	n.pos += uint64(len(fresh))
	if n.met != nil {
		n.met.IngestDocs.Add(uint64(len(fresh)))
	}
	return nil
}

// AddBatch implements Node: the whole batch lands under one
// write-lock acquisition — and, with an op log attached, one durable
// log append (see logThenApply). Each document is idempotent per oid:
// one already in the index is skipped, so retrying a write whose
// acknowledgement was lost never double-folds term frequencies, and a
// replayed batch is applied exactly once. Folding more text into an
// existing document remains an ir.Index-level operation for engines
// that own their index outright.
func (n *LocalNode) AddBatch(_ context.Context, docs []Doc) error {
	n.lock(n.met.lockWait().Add)
	defer n.mu.Unlock()
	return n.logThenApply(docs)
}

// OpsSince implements Node: the attached log's suffix from
// position from. Without a log, or when the suffix was compacted into
// a snapshot, it reports ErrDeltaUnavailable and the caller falls
// back to a full-snapshot resync.
func (n *LocalNode) OpsSince(_ context.Context, from uint64) ([]persist.Op, error) {
	n.mu.RLock()
	l := n.oplog
	n.mu.RUnlock()
	if l == nil {
		return nil, ErrDeltaUnavailable
	}
	ops, err := l.OpsSince(from)
	if errors.Is(err, persist.ErrLogGap) {
		return nil, fmt.Errorf("%w: %v", ErrDeltaUnavailable, err)
	}
	return ops, err
}

// ApplyOps implements Node: append a log suffix durably and
// apply it. The delta must start exactly at this node's position —
// positions are the delta path's only alignment evidence, so an
// offset delta is rejected rather than interleaved. EVERY received
// op is appended to the log (duplicates included) so the position
// advances in lockstep with the source's; only not-yet-indexed
// documents are applied.
func (n *LocalNode) ApplyOps(_ context.Context, from uint64, ops []persist.Op) error {
	n.lock(n.met.lockWait().Add)
	defer n.mu.Unlock()
	if from != n.pos {
		return fmt.Errorf("%w: delta starts at %d, node is at %d", ErrPosMismatch, from, n.pos)
	}
	if len(ops) == 0 {
		return nil
	}
	if n.oplog != nil {
		if err := n.oplog.Append(ops...); err != nil {
			return err
		}
	}
	fresh := make([]Doc, 0, len(ops))
	for i := range ops {
		if !n.ix.HasDoc(ops[i].Doc) {
			fresh = append(fresh, Doc{OID: ops[i].Doc, URL: ops[i].URL, Text: ops[i].Text})
		}
	}
	n.backend.ApplyDocs(fresh)
	n.pos += uint64(len(ops))
	return nil
}

// Stats implements Node: it freezes the index (so concurrent read-only
// queries never mutate it) and extracts the local statistics — the full
// block StatsSince gives a caller that holds no earlier reading.
func (n *LocalNode) Stats(context.Context) (ir.Stats, error) {
	st, _, _ := n.StatsSince(StatsVersion{})
	return st, nil
}

// StatsVersion names one reading of a node's statistics: the freeze
// epoch it was taken at, qualified by the incarnation of the index that
// counted the epoch. Epochs restart when a node process restarts and
// jump when RestoreState swaps the index, so only a version of the
// current incarnation says anything about what changed since. The zero
// version names no reading.
type StatsVersion struct {
	Incarnation uint64
	Epoch       uint64
}

// String renders the version as the token GET /node/stats?since= takes
// and answers.
func (v StatsVersion) String() string {
	return strconv.FormatUint(v.Incarnation, 16) + "." + strconv.FormatUint(v.Epoch, 10)
}

// ParseStatsVersion reads a version token; anything malformed is the
// zero version, which every node answers with a full block.
func ParseStatsVersion(s string) StatsVersion {
	inc, epoch, ok := strings.Cut(s, ".")
	if !ok {
		return StatsVersion{}
	}
	i, err1 := strconv.ParseUint(inc, 16, 64)
	e, err2 := strconv.ParseUint(epoch, 10, 64)
	if err1 != nil || err2 != nil {
		return StatsVersion{}
	}
	return StatsVersion{Incarnation: i, Epoch: e}
}

// newIncarnation draws a non-zero random incarnation: distinct across
// process restarts and restores without any persisted counter.
func newIncarnation() uint64 {
	for {
		if v := rand.Uint64(); v != 0 {
			return v
		}
	}
}

// StatsSince is Stats for a caller that kept the statistics it read at
// version since: delta reports that st.DF holds only the stems whose df
// changed after since (st.TotalDF and st.Docs are always current), so a
// refresh costs what changed, not the vocabulary. A since this
// incarnation never issued — zero, from before a restart or
// RestoreState, below the index's base epoch, or from the future —
// gets the full block. now is the version of the returned reading.
func (n *LocalNode) StatsSince(since StatsVersion) (st ir.Stats, now StatsVersion, delta bool) {
	n.lock(n.met.lockWait().Stats)
	defer n.mu.Unlock()
	n.ix.Freeze()
	now = StatsVersion{Incarnation: n.incarnation, Epoch: n.ix.Epoch()}
	if since.Incarnation == n.incarnation {
		if st, ok := n.ix.StatsSince(since.Epoch); ok {
			return st, now, true
		}
	}
	return n.ix.StatsLocal(), now, false
}

// SearchPlan implements Node: the node's one scoring path.
func (n *LocalNode) SearchPlan(_ context.Context, query string, plan ir.EvalPlan, global ir.Stats) ([]ir.Result, ir.QualityEstimate, error) {
	if n.met == nil {
		res, est := n.evaluate(query, plan, global)
		return res, est, nil
	}
	start := time.Now()
	res, est := n.evaluate(query, plan, global)
	n.met.Scoring.ObserveSince(start)
	return res, est, nil
}

// evaluate is SearchPlan without the instrumentation wrapper. It runs
// under the read lock, every plan alike, even on a dirty index, so
// reads run beside ingest. A cluster ships its nodes exact plans: the
// coordinator has already cut the query's stems under global df and
// left the cut ones out of global. A budgeted plan sent to the node
// itself cuts against the index's own table (ir.Index.Evaluate), which
// is free for any granularity.
//
// On a clean index a resolver, when injected, supplies the (cached)
// pre-resolved terms; the result is identical either way.
func (n *LocalNode) evaluate(query string, plan ir.EvalPlan, global ir.Stats) ([]ir.Result, ir.QualityEstimate) {
	n.rlock(n.met.lockWait().Search)
	defer n.mu.RUnlock()
	// ir.Request's pointers escape with its query (the resolved stems
	// alias it), so &global would move the parameter to the heap on every
	// search; a pooled holder keeps the evaluation's only allocation the
	// ranking it returns.
	st := statsHolders.Get().(*ir.Stats)
	*st = global
	req := ir.Request{Query: query, Plan: plan, Stats: st}
	if n.resolve != nil && !n.ix.Dirty() {
		req.Stems, req.Terms = n.resolve(n.ix, query)
	}
	res, est := n.ix.Evaluate(req)
	*st = ir.Stats{} // the pool must not pin the DF map
	statsHolders.Put(st)
	return res, est
}

// statsHolders pools the ir.Stats values evaluate points its requests
// at.
var statsHolders = sync.Pool{New: func() any { return new(ir.Stats) }}

// Load implements Node. It is always O(1) under the shared read lock:
// the checksum comes from its per-epoch cache and is empty when the
// content changed since the last digest — monitoring probes (/stats
// scrapes, doc-count reads) must never stall serving behind a freeze
// or an O(index) hash. Anti-entropy, which needs a guaranteed-fresh
// digest, probes through LoadChecksum instead.
func (n *LocalNode) Load(context.Context) (NodeLoad, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	sum, _ := n.ix.ChecksumCached()
	return NodeLoad{
		Docs:         n.ix.DocCount(),
		MaxDoc:       n.ix.MaxDoc(),
		SnapshotUnix: n.lastSnap.Load(),
		Checksum:     sum,
		LogPos:       n.pos,
	}, nil
}

// LoadChecksum implements Node: like Load, but when the
// cached digest is stale it takes the write lock and recomputes
// (freeze + O(index) hash) so the reported checksum is always fresh.
func (n *LocalNode) LoadChecksum(ctx context.Context) (NodeLoad, error) {
	if l, err := n.Load(ctx); err != nil || l.Checksum != "" {
		return l, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return NodeLoad{
		Docs:         n.ix.DocCount(),
		MaxDoc:       n.ix.MaxDoc(),
		SnapshotUnix: n.lastSnap.Load(),
		Checksum:     n.ix.Checksum(),
		LogPos:       n.pos,
	}, nil
}

// ExportState freezes the index and captures its complete logical
// state under the write lock — the consistent cut the durability layer
// persists. Queries blocked behind the export resume against the very
// state the snapshot holds.
func (n *LocalNode) ExportState() *ir.IndexState {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.ix.ExportState()
	// Stamp the export with the node's op-log position: the state
	// covers exactly this log prefix, so a snapshot written from it
	// may compact the log up to here, and a replica restored from it
	// continues its history from here.
	st.LogPos = n.pos
	return st
}

// SnapshotState implements Node over ExportState.
func (n *LocalNode) SnapshotState(context.Context) (*ir.IndexState, error) {
	return n.ExportState(), nil
}

// RestoreState implements Node: the node's entire fragment is
// replaced by the supplied state under the write lock — queries
// blocked behind the restore resume against exactly the restored
// state, adds blocked behind it apply on top of it (so a write racing
// a resync lands in the restored index instead of being lost). The
// rebuilt index's freeze epoch is advanced strictly past the
// pre-restore epoch: even if the imported state carries the same epoch
// number as the content it replaces, every cached term resolution
// captured before the restore is invalidated. A state that fails
// ImportState's referential validation leaves the node serving its
// previous fragment untouched.
func (n *LocalNode) RestoreState(_ context.Context, st *ir.IndexState) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	ix, err := ir.ImportState(st)
	if err != nil {
		return err
	}
	// The state carries the SOURCE's tuning; this node keeps its own.
	// λ and the memory budget are deployment configuration (replicas of
	// a group are configured alike), not content — a resync from an
	// unbudgeted peer must not silently lift this node's -mem-budget.
	ix.SetLambda(n.ix.Lambda())
	ix.SetMemoryBudget(n.ix.MemoryBudget())
	ix.AdvanceEpoch(n.ix.Epoch())
	// A full restore subsumes the node's entire logged history: the
	// position jumps to the state's, and the log restarts empty at
	// that base — every record below it is covered by the restored
	// state, every record above it described the REPLACED index and
	// must not replay on top of this one.
	if n.oplog != nil {
		if err := n.oplog.Reset(st.LogPos); err != nil {
			return err
		}
	}
	n.pos = st.LogPos
	// The replaced index's posting counts fold into the node's base, so
	// the node's counts stay monotone across the swap.
	scored, skipped := n.ix.PostingCounts()
	n.postingsBase[0] += scored
	n.postingsBase[1] += skipped
	// Re-home the restored index under its owner (an engine-owned
	// backend re-binds it so conceptual queries rank against the
	// restored content), then refresh the node's hot-path cache.
	n.backend.SwapIndex(ix)
	n.ix = ix
	// A different index counts the epochs now: statistics versions
	// issued before the restore say nothing about it.
	n.incarnation = newIncarnation()
	return nil
}

// MarkSnapshot records that a snapshot of this node's state was
// durably persisted at t; Load reports it so coordinators can surface
// per-replica snapshot age.
func (n *LocalNode) MarkSnapshot(unix int64) { n.lastSnap.Store(unix) }

// LastSnapshotUnix returns when the node last persisted a snapshot
// (unix seconds, 0 = never).
func (n *LocalNode) LastSnapshotUnix() int64 { return n.lastSnap.Load() }
