// Package dist implements the paper's shared-nothing distribution of
// the full-text meta-index (Section "Scalability", experiment E11):
// the document collection is fragmented per document over k
// autonomous partitions, each holding the complete T/D/DT/TF/IDF
// relations for its document subset.
//
// The protocol mirrors the paper's central-DBMS architecture:
//
//  1. The central site keeps every partition's term statistics (df,
//     Σdf, |D|), sums them into global statistics and ships those with
//     the query, so every node scores its local documents exactly as
//     one global index would (ir.Stats / ir.Request.Stats). Scoring
//     reads the df of the query's terms and the two totals, nothing
//     else of the vocabulary, so every plan ships exactly that (see
//     SearchPlan).
//  2. Every partition evaluates the top-N query over its local
//     fragment only — no inter-node communication — and returns a
//     small RES(doc-oid, score) set of at most N rows.
//  3. The central site merges the RES sets with ir.Merge into the
//     master ranking. Because the global top-N is a subset of the
//     union of the local top-Ns and all scores are computed from the
//     same global statistics, the merged ranking is identical to the
//     ranking of a single index over the whole collection.
//
// Partitions are addressed through the Node interface, so a fragment
// may live in-process (LocalNode) or behind an HTTP boundary
// (RemoteNode) without the central site noticing. Per-node deadlines
// and straggler handling (Search) keep one slow or dead node from
// stalling the whole query: the merge proceeds over the responsive
// partitions and the dropped ones are reported.
//
// Replication is the availability axis on top: a Cluster built by
// NewReplicatedCluster places every partition on R nodes — a replica
// group. Writes fan out to all replicas of the document's partition so
// the group's members stay identical copies; reads route each
// partition to one healthy replica and fail over to the next on error
// or missed deadline, so killing any single node leaves the merged
// ranking byte-identical to the exact single-index ranking. Only when
// a whole group is unreachable does a search degrade along PR 2's
// paths (dropped fragment, stale statistics). Per-replica health —
// consecutive failures, last error — steers routing and is exported
// for the serving layer's /stats.
//
// SearchPlan combines the paper's two scaling axes: the query ships
// with an ir.EvalPlan, each shared-nothing partition fragments its own
// document subset on descending idf and evaluates only the budgeted
// prefix (the a-priori cut-off of [BHC+01], pushed below the per-node
// RES sets), and the merge additionally folds the partitions' quality
// estimates into a cluster-wide ir.QualityEstimate.
package dist

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dlsearch/internal/bat"
	"dlsearch/internal/ir"
	"dlsearch/internal/obs"
)

// Options configures a Cluster. The zero value (or a nil *Options)
// selects deterministic round-robin partitioning on the document oid,
// the default ranking parameter and no per-node deadline.
type Options struct {
	// Partition maps a document oid to a partition in [0, k). It must
	// be deterministic: the same oid must always land on the same
	// partition. Nil selects round-robin on the oid, which yields
	// balanced loads for the dense oid sequences the engine hands out.
	Partition func(doc bat.OID, k int) int

	// Lambda overrides the smoothing parameter of the retrieval model
	// on every node built by NewCluster; 0 keeps ir.DefaultLambda.
	// Nodes supplied to NewClusterOf configure their own indexes.
	Lambda float64

	// NodeTimeout bounds every per-node call (stats, top-N, load,
	// add). A node that does not answer within the deadline is treated
	// as a straggler: reads fail over to the partition's next replica,
	// and only a partition with no responsive replica left is dropped
	// from the merge. 0 means no per-node deadline.
	NodeTimeout time.Duration

	// Logger, when set, gives the cluster's background machinery
	// (anti-entropy passes, resyncs, retry backoff) a voice: routine
	// activity at Debug, divergence and healing at Warn/Info. Nil is
	// silent.
	Logger *obs.Logger

	// Metrics, when set, opts the cluster into duration/counter
	// instrumentation (see ClusterMetrics). Nil — the default, and
	// what every benchmark uses — records nothing and costs nothing on
	// the hot path beyond a nil check.
	Metrics *ClusterMetrics
}

// ClusterMetrics are the cluster's opt-in instruments. Every field is
// optional (a nil histogram or counter ignores observations), so a
// caller wires only what it exposes.
type ClusterMetrics struct {
	// RPCLatency observes the duration of every routed per-node call
	// (reads via groupCall, writes via fanToGroup), in seconds —
	// failures included, since a timeout's cost is exactly what an
	// operator hunting stragglers needs to see.
	RPCLatency *obs.Histogram
	// AntiEntropyDur observes the duration of each anti-entropy pass
	// (CheckReplicas), in seconds.
	AntiEntropyDur *obs.Histogram
	// ResyncDur observes the duration of each attempted replica resync
	// (delta or full, success or failure), in seconds.
	ResyncDur *obs.Histogram
	// Retries counts retry attempts on the self-healing paths (every
	// re-invocation after a failure).
	Retries *obs.Counter
	// BackoffSeconds observes each backoff sleep on the self-healing
	// paths, in seconds — cumulative time spent waiting out failures.
	BackoffSeconds *obs.Histogram
}

// roundRobin is the default partitioning: dense oids spread evenly.
func roundRobin(doc bat.OID, k int) int {
	if doc == bat.NilOID {
		return 0
	}
	return int((uint64(doc) - 1) % uint64(k))
}

// replicaStatus is one replica's routing state, guarded by the owning
// groupHealth's mutex. Fails counts CONSECUTIVE failures: any success
// resets it, so a recovered replica immediately regains routing
// preference. diverged is stickier: it marks a replica that failed a
// write its group committed — its copy is missing documents, and a
// later successful call must NOT re-admit it as an equal, because it
// would serve rankings silently missing committed documents. A
// diverged replica routes last (better a stale ranking than a dropped
// partition), searches it serves are flagged, and the mark outlives
// reconnects: it clears only when the replica provably matches its
// group again — after a resync (ResyncReplica), or when an
// anti-entropy pass observes its content checksum equal to the group's
// (an operator restored it, or an idempotent retry re-fed it the
// missed documents).
type replicaStatus struct {
	fails      uint64
	lastErr    string
	lastOK     time.Time
	lastFail   time.Time
	diverged   bool
	lastResync time.Time // when the replica last healed from a group member

	// rpcCalls / rpcTotal accumulate the latency of every routed call
	// to this replica (success or failure), feeding the per-replica
	// RPC latency the serving layer's /stats reports.
	rpcCalls uint64
	rpcTotal time.Duration
}

// groupHealth tracks the routing state of one replica group.
type groupHealth struct {
	mu   sync.Mutex
	reps []replicaStatus
}

// ReplicaHealth is the exported snapshot of one replica's routing
// state, reported by Cluster.ReplicaHealth and the coordinator /stats.
type ReplicaHealth struct {
	// Fails is the consecutive-failure count; 0 means reachable.
	Fails uint64
	// LastErr is the most recent failure ("" when none since the last
	// success).
	LastErr string
	// LastOKUnix / LastFailUnix are the unix seconds of the most
	// recent success / failure (0 = never).
	LastOKUnix   int64
	LastFailUnix int64
	// Diverged marks a replica that failed a write its group
	// committed, or whose content checksum disagreed with its group's
	// during an anti-entropy pass: its copy differs from the committed
	// state and needs resync (ResyncReplica, or an anti-entropy pass
	// with repair enabled) before it can serve as an equal again.
	Diverged bool
	// LastResyncUnix is when the replica last healed from a group
	// member (unix seconds, 0 = never).
	LastResyncUnix int64
	// RPCCalls / RPCTotalUS are the replica's cumulative routed-call
	// count and latency (microseconds), failures included — the
	// per-replica RPC latency surfaced in /stats.
	RPCCalls   uint64
	RPCTotalUS int64
}

// Healthy reports whether the replica's last call succeeded AND its
// copy is not known to be missing committed writes.
func (h ReplicaHealth) Healthy() bool { return h.Fails == 0 && !h.Diverged }

// Cluster is a shared-nothing cluster of replica groups with a central
// merge site; the common unreplicated cluster is the R=1 special case
// (every group one node). All methods are safe for concurrent use when
// every node is (LocalNode and RemoteNode both synchronize their
// index); a query racing an Add may score against statistics from just
// before or just after the new document, but never against torn state.
type Cluster struct {
	groups    [][]Node
	health    []*groupHealth
	partition func(bat.OID, int) int
	timeout   time.Duration
	log       *obs.Logger     // nil is silent
	met       *ClusterMetrics // nil records nothing

	// ingest is the per-group write/resync arbiter: writes (fanToGroup)
	// hold the read side for the duration of the fan-out, a resync holds
	// the write side across its export→import window. This is what makes
	// resync safe under concurrent ingest: no write can land on the
	// source after the export but on the target before the import (it
	// would be erased by the import and silently lost) — a racing write
	// either completes on every replica before the resync starts, or
	// applies on top of the restored state after it finishes.
	ingest []*sync.RWMutex

	mu         sync.Mutex   // guards the stats fields below
	gstats     []groupStats // per replica group, the one copy of the statistics
	retryAfter time.Time    // failed-refresh backoff deadline

	searchCount   atomic.Uint64 // searches served
	failoverCount atomic.Uint64 // replica failovers across all searches
	droppedCount  atomic.Uint64 // partitions dropped from merges
	divergeCount  atomic.Uint64 // divergences detected by anti-entropy

	resyncDeltaCount atomic.Uint64 // resyncs healed by op-log delta
	resyncFullCount  atomic.Uint64 // resyncs that shipped a full snapshot
	resyncBytes      atomic.Uint64 // bytes shipped by resyncs (delta or full)
}

// groupStats is what the central site knows of one replica group's
// local statistics. Every search, exact or budgeted, sums the df of its
// own stems over the groups (projectStats); only GlobalStatsContext
// merges the whole vocabulary.
type groupStats struct {
	st    ir.Stats // as last pulled from the group; read-only
	have  bool     // pulled at least once
	fresh bool     // reflects every Add routed to the group through this cluster
	gen   uint64   // bumped by every invalidation; guards refresh races
}

// invalidate marks the statistics stale; the caller holds Cluster.mu.
func (gs *groupStats) invalidate() {
	gs.fresh = false
	gs.gen++
}

// NewCluster builds a cluster of k in-process single-replica
// partitions (k < 1 is clamped to 1).
func NewCluster(k int, opts *Options) *Cluster {
	if k < 1 {
		k = 1
	}
	nodes := make([]Node, k)
	for i := range nodes {
		ix := ir.NewIndex()
		if opts != nil && opts.Lambda != 0 {
			ix.SetLambda(opts.Lambda)
		}
		nodes[i] = NewLocalNode(ix)
	}
	return NewClusterOf(nodes, opts)
}

// NewClusterOf builds an unreplicated cluster over caller-supplied
// nodes — local, remote, or a mix: every node is its own partition.
// It panics on an empty slice (a deferred divide-by-zero at the first
// Add would be far harder to diagnose).
func NewClusterOf(nodes []Node, opts *Options) *Cluster {
	groups := make([][]Node, len(nodes))
	for i, n := range nodes {
		groups[i] = []Node{n}
	}
	return NewReplicatedClusterOf(groups, opts)
}

// NewReplicaGroups slices nodes into partitions of r replicas each:
// group i holds nodes[i*r : (i+1)*r]. The node count must be a
// multiple of r — a short trailing group would silently have less
// fault tolerance than the rest of the cluster.
func NewReplicaGroups(nodes []Node, r int) ([][]Node, error) {
	if r < 1 {
		r = 1
	}
	if len(nodes) == 0 || len(nodes)%r != 0 {
		return nil, fmt.Errorf("dist: %d nodes do not divide into replica groups of %d", len(nodes), r)
	}
	groups := make([][]Node, len(nodes)/r)
	for i := range groups {
		groups[i] = nodes[i*r : (i+1)*r]
	}
	return groups, nil
}

// NewReplicatedCluster builds a cluster that places each partition on
// r nodes (see NewReplicaGroups for the placement).
func NewReplicatedCluster(nodes []Node, r int, opts *Options) (*Cluster, error) {
	groups, err := NewReplicaGroups(nodes, r)
	if err != nil {
		return nil, err
	}
	return NewReplicatedClusterOf(groups, opts), nil
}

// NewReplicatedClusterOf builds a cluster over caller-supplied replica
// groups: each inner slice is one partition's replicas (all holding,
// or about to hold, identical copies of that partition). Groups may
// differ in size. It panics on an empty cluster or an empty group.
func NewReplicatedClusterOf(groups [][]Node, opts *Options) *Cluster {
	if len(groups) == 0 {
		panic("dist: cluster requires at least one replica group")
	}
	c := &Cluster{groups: groups, partition: roundRobin}
	c.health = make([]*groupHealth, len(groups))
	c.ingest = make([]*sync.RWMutex, len(groups))
	c.gstats = make([]groupStats, len(groups))
	for g, reps := range groups {
		if len(reps) == 0 {
			panic("dist: replica group must hold at least one node")
		}
		c.health[g] = &groupHealth{reps: make([]replicaStatus, len(reps))}
		c.ingest[g] = &sync.RWMutex{}
	}
	if opts != nil {
		if opts.Partition != nil {
			c.partition = opts.Partition
		}
		c.timeout = opts.NodeTimeout
		c.log = opts.Logger
		c.met = opts.Metrics
	}
	return c
}

// SetLogger attaches (or replaces) the cluster's background-loop
// logger after construction. Call before background loops start.
func (c *Cluster) SetLogger(l *obs.Logger) { c.log = l }

// SetMetrics opts the cluster into instrumentation after
// construction. Call before the cluster starts serving.
func (c *Cluster) SetMetrics(m *ClusterMetrics) { c.met = m }

// rpcObserve folds one routed call's latency into the cluster-wide
// RPC histogram.
func (c *Cluster) rpcObserve(d time.Duration) {
	if c.met != nil {
		c.met.RPCLatency.Observe(d.Seconds())
	}
}

// Size returns the number of partitions (replica groups).
func (c *Cluster) Size() int { return len(c.groups) }

// Replicas returns the replica count of partition g.
func (c *Cluster) Replicas(g int) int { return len(c.groups[g]) }

// NodeAt returns partition i's primary (first) replica, for inspection
// by experiments.
func (c *Cluster) NodeAt(i int) Node { return c.groups[i][0] }

// ReplicaAt returns replica r of partition g.
func (c *Cluster) ReplicaAt(g, r int) Node { return c.groups[g][r] }

// LocalIndex returns the underlying index of partition i's primary
// replica if it is an in-process node, nil otherwise.
func (c *Cluster) LocalIndex(i int) *ir.Index {
	if ln, ok := c.groups[i][0].(*LocalNode); ok {
		return ln.Index()
	}
	return nil
}

// ReplicaHealth returns a snapshot of every replica's routing state,
// indexed [partition][replica].
func (c *Cluster) ReplicaHealth() [][]ReplicaHealth {
	out := make([][]ReplicaHealth, len(c.groups))
	for g, gh := range c.health {
		gh.mu.Lock()
		out[g] = make([]ReplicaHealth, len(gh.reps))
		for r, st := range gh.reps {
			h := ReplicaHealth{
				Fails: st.fails, LastErr: st.lastErr, Diverged: st.diverged,
				RPCCalls: st.rpcCalls, RPCTotalUS: st.rpcTotal.Microseconds(),
			}
			if !st.lastOK.IsZero() {
				h.LastOKUnix = st.lastOK.Unix()
			}
			if !st.lastFail.IsZero() {
				h.LastFailUnix = st.lastFail.Unix()
			}
			if !st.lastResync.IsZero() {
				h.LastResyncUnix = st.lastResync.Unix()
			}
			out[g][r] = h
		}
		gh.mu.Unlock()
	}
	return out
}

// Telemetry is the cluster's cumulative availability accounting.
type Telemetry struct {
	Searches uint64 // searches served (SearchPlan calls that fanned out)
	// Failovers counts replica failovers across EVERY read path —
	// searches, statistics aggregation and load probes alike — so with
	// a dead primary it can legitimately exceed Searches.
	Failovers uint64
	Dropped   uint64 // partitions dropped from merged rankings
	// Resyncs counts replicas healed from a group member, by op-log
	// delta or by full snapshot (ResyncsDelta + ResyncsFull);
	// DivergenceDetected counts divergences anti-entropy found BEFORE
	// they served (write-failure quarantines are not counted here —
	// they are detected at the write, not by checksum comparison).
	Resyncs            uint64
	DivergenceDetected uint64
	// ResyncsDelta / ResyncsFull split Resyncs by transfer strategy:
	// a delta resync shipped only the op-log suffix the replica was
	// missing, a full resync shipped the whole fragment snapshot.
	// ResyncBytes totals the bytes shipped either way — with a mostly
	// delta-healing cluster it stays far below fragments × snapshot
	// size, which is the whole point of the op log.
	ResyncsDelta uint64
	ResyncsFull  uint64
	ResyncBytes  uint64
}

// Telemetry returns the cumulative counters.
func (c *Cluster) Telemetry() Telemetry {
	t := Telemetry{
		Searches:           c.searchCount.Load(),
		Failovers:          c.failoverCount.Load(),
		Dropped:            c.droppedCount.Load(),
		DivergenceDetected: c.divergeCount.Load(),
		ResyncsDelta:       c.resyncDeltaCount.Load(),
		ResyncsFull:        c.resyncFullCount.Load(),
		ResyncBytes:        c.resyncBytes.Load(),
	}
	t.Resyncs = t.ResyncsDelta + t.ResyncsFull
	return t
}

// record folds one call outcome — and its latency — into a replica's
// routing state.
func (c *Cluster) record(g, r int, err error, d time.Duration) {
	gh := c.health[g]
	gh.mu.Lock()
	st := &gh.reps[r]
	st.rpcCalls++
	st.rpcTotal += d
	if err == nil {
		st.fails = 0
		st.lastErr = ""
		st.lastOK = time.Now()
	} else {
		st.fails++
		st.lastErr = err.Error()
		st.lastFail = time.Now()
	}
	gh.mu.Unlock()
	c.rpcObserve(d)
}

// markDiverged flags a replica whose copy is known to be missing
// committed writes.
func (c *Cluster) markDiverged(g, r int) {
	gh := c.health[g]
	gh.mu.Lock()
	gh.reps[r].diverged = true
	gh.mu.Unlock()
}

// isDiverged reports whether a replica carries the divergence mark.
func (c *Cluster) isDiverged(g, r int) bool {
	gh := c.health[g]
	gh.mu.Lock()
	defer gh.mu.Unlock()
	return gh.reps[r].diverged
}

// clearDiverged removes a replica's divergence mark — called only when
// the replica's content checksum provably matches its group again.
func (c *Cluster) clearDiverged(g, r int) {
	gh := c.health[g]
	gh.mu.Lock()
	gh.reps[r].diverged = false
	gh.mu.Unlock()
}

// markResynced records a completed resync: the replica holds a fresh
// copy of the group state, so the quarantine lifts, its failure streak
// resets (it just answered a restore) and the resync age starts.
func (c *Cluster) markResynced(g, r int) {
	gh := c.health[g]
	gh.mu.Lock()
	st := &gh.reps[r]
	st.diverged = false
	st.fails = 0
	st.lastErr = ""
	st.lastResync = time.Now()
	gh.mu.Unlock()
}

// replicaOrder returns the routing order for a group's replicas:
// non-diverged, least-failing replicas first, ties broken by index so
// the primary is preferred when all are healthy; diverged replicas
// come last regardless of reachability — a reconnecting replica that
// missed writes must not serve as an equal just because it answers.
// Single-replica groups short-circuit without allocating.
func (c *Cluster) replicaOrder(g int) []int {
	reps := c.groups[g]
	if len(reps) == 1 {
		return nil
	}
	gh := c.health[g]
	gh.mu.Lock()
	fails := make([]uint64, len(reps))
	diverged := make([]bool, len(reps))
	for r := range reps {
		fails[r] = gh.reps[r].fails
		diverged[r] = gh.reps[r].diverged
	}
	gh.mu.Unlock()
	order := make([]int, len(reps))
	for r := range order {
		order[r] = r
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if diverged[a] != diverged[b] {
			return !diverged[a]
		}
		return fails[a] < fails[b]
	})
	return order
}

// groupCall routes one read through partition g with failover: the
// replicas are tried in health-preference order, each under its own
// per-node deadline, until one answers. It returns the answer, how
// many failovers (failed attempts before the outcome) happened,
// whether the replica that answered is marked diverged (its copy may
// miss committed writes — callers surface this instead of claiming a
// complete answer), and the last error when every replica failed. A
// caller-cancelled context stops the failover loop — the caller's
// deadline must not be spent walking dead replicas — and is not held
// against the replica.
func groupCall[T any](c *Cluster, ctx context.Context, g, scale int, call func(context.Context, Node) (T, error)) (T, int, bool, error) {
	var zero T
	order := c.replicaOrder(g)
	n := len(c.groups[g])
	var lastErr error
	tried := 0
	for i := 0; i < n; i++ {
		r := i
		if order != nil {
			r = order[i]
		}
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		nctx, cancel := c.nodeCtxN(ctx, scale)
		start := time.Now()
		v, err := call(nctx, c.groups[g][r])
		took := time.Since(start)
		cancel()
		tried++
		if err == nil {
			c.record(g, r, nil, took)
			return v, tried - 1, c.isDiverged(g, r), nil
		}
		lastErr = err
		if ctx.Err() != nil {
			// The caller's own deadline expired mid-call: the failure
			// says nothing about this replica.
			break
		}
		c.record(g, r, err, took)
	}
	failovers := tried - 1
	if failovers < 0 {
		failovers = 0
	}
	return zero, failovers, false, lastErr
}

// fanToGroup routes one write to ALL replicas of partition g in
// parallel — replicas must stay identical copies — and reports how
// many committed plus the joined per-replica errors. A partial commit
// (0 < committed < replicas) means the failing replicas are now STALE:
// they miss documents the group's survivors hold, and must be restored
// from a snapshot (or re-fed the documents) before they can serve
// again. The serving layer surfaces this through per-replica health.
func (c *Cluster) fanToGroup(ctx context.Context, g, scale int, call func(context.Context, Node) error) (int, error) {
	// Shared side of the write/resync arbiter: writes proceed
	// concurrently with each other, but never overlap a resync of this
	// group (which would lose them on the resynced replica).
	c.ingest[g].RLock()
	defer c.ingest[g].RUnlock()
	reps := c.groups[g]
	errs := make([]error, len(reps))
	var wg sync.WaitGroup
	for r, node := range reps {
		wg.Add(1)
		go func(r int, node Node) {
			defer wg.Done()
			nctx, cancel := c.nodeCtxN(ctx, scale)
			defer cancel()
			start := time.Now()
			err := call(nctx, node)
			if err == nil || ctx.Err() == nil {
				// A failure caused by the caller's own cancellation
				// says nothing about the replica — don't record it.
				c.record(g, r, err, time.Since(start))
			}
			if err != nil {
				errs[r] = fmt.Errorf("partition %d replica %d: %w", g, r, err)
			}
		}(r, node)
	}
	wg.Wait()
	committed := 0
	for _, err := range errs {
		if err == nil {
			committed++
		}
	}
	if committed > 0 {
		// The group committed the write; a replica that failed it is
		// now missing documents its partners hold — quarantine it in
		// routing until it is restored, or reads served by it would
		// silently miss committed documents.
		for r, err := range errs {
			if err != nil {
				c.markDiverged(g, r)
			}
		}
	}
	return committed, errors.Join(errs...)
}

// InvalidateStats forces the next query to re-aggregate global
// statistics. Use it when documents were added to a node outside this
// cluster (e.g. directly against a remote node's server).
func (c *Cluster) InvalidateStats() {
	c.mu.Lock()
	for g := range c.gstats {
		c.gstats[g].invalidate()
	}
	c.mu.Unlock()
}

// invalidateGroups marks the statistics of the given partitions stale:
// an Add or a resync changes the statistics of the partitions it wrote
// to and of no other, so only those are pulled again.
func (c *Cluster) invalidateGroups(parts ...int) {
	c.mu.Lock()
	for _, g := range parts {
		c.gstats[g].invalidate()
	}
	c.mu.Unlock()
}

// nodeCtx derives the per-node deadline context.
func (c *Cluster) nodeCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	return c.nodeCtxN(ctx, 1)
}

// nodeCtxN derives a per-node deadline scaled by the amount of work
// shipped in the call: NodeTimeout is sized for one operation, so a
// batch of n documents gets n times the budget (the caller's own ctx
// still bounds everything).
func (c *Cluster) nodeCtxN(ctx context.Context, n int) (context.Context, context.CancelFunc) {
	if c.timeout > 0 {
		if n < 1 {
			n = 1
		}
		return context.WithTimeout(ctx, time.Duration(n)*c.timeout)
	}
	return context.WithCancel(ctx)
}

// AddContext is the one-document spelling of AddBatchContext.
func (c *Cluster) AddContext(ctx context.Context, doc bat.OID, url, text string) error {
	return c.AddBatchContext(ctx, []Doc{{OID: doc, URL: url, Text: text}})
}

// Add is AddContext with a background context, for in-process clusters
// whose nodes cannot fail.
func (c *Cluster) Add(doc bat.OID, url, text string) {
	_ = c.AddContext(context.Background(), doc, url, text)
}

// PartitionResult is one partition's outcome of a batch add: which of
// the batch's documents were routed to it, how many replicas
// ACKNOWLEDGED committing them, and the joined error when any replica
// failed.
//
// Retry semantics: every node de-duplicates ingest per document oid
// (the Node.AddBatch contract), so re-posting a partition's documents
// with the same oids is ALWAYS safe — a replica that timed out AFTER
// applying the batch skips it on the retry instead of double-folding
// term frequencies, and a replica that missed the batch applies it,
// converging the group. One rule remains: Committed == 0 means retry
// with the same oids; 0 < Committed < Replicas means the documents are
// searchable and a retry (or anti-entropy) heals the lagging replicas.
type PartitionResult struct {
	Partition int
	Docs      []bat.OID // the batch's documents routed here, request order
	Replicas  int       // replica count of the partition
	Committed int       // replicas that acknowledged the whole group batch
	Err       error     // nil when every replica acknowledged
}

// Failed reports whether no replica acknowledged the commit — retry
// with the same oids.
func (p *PartitionResult) Failed() bool {
	return p.Committed == 0 && p.Err != nil
}

// AddBatchResults routes a batch of documents to their partitions with
// one round-trip per touched replica: documents are grouped by the
// deterministic partitioning, and each group ships to every replica of
// its partition in one AddBatch. Groups load in parallel and every
// group settles before the call returns, so a partial failure never
// leaves goroutines writing behind the caller's back. The touched
// partitions' statistics are invalidated after the adds land (not
// before): a concurrent query that refreshed them while an add was in
// flight must not leave stale statistics marked fresh.
//
// The per-partition outcomes come back in ascending partition order so
// a client can retry exactly the failed partitions (see
// PartitionResult for the commit/degraded/failed trichotomy).
func (c *Cluster) AddBatchResults(ctx context.Context, docs []Doc) []PartitionResult {
	if len(docs) == 0 {
		return nil
	}
	grouped := make(map[int][]Doc)
	for _, d := range docs {
		g := c.partition(d.OID, len(c.groups))
		grouped[g] = append(grouped[g], d)
	}
	parts := make([]int, 0, len(grouped))
	for g := range grouped {
		parts = append(parts, g)
	}
	sort.Ints(parts)
	defer c.invalidateGroups(parts...)
	results := make([]PartitionResult, len(parts))
	var wg sync.WaitGroup
	for i, g := range parts {
		part := grouped[g]
		oids := make([]bat.OID, len(part))
		for j, d := range part {
			oids[j] = d.OID
		}
		results[i] = PartitionResult{Partition: g, Docs: oids, Replicas: len(c.groups[g])}
		wg.Add(1)
		go func(i, g int, part []Doc) {
			defer wg.Done()
			results[i].Committed, results[i].Err = c.fanToGroup(ctx, g, len(part), func(nctx context.Context, n Node) error {
				return n.AddBatch(nctx, part)
			})
		}(i, g, part)
	}
	wg.Wait()
	return results
}

// AddBatchContext is AddBatchResults reduced to one error: nil when
// every partition fully committed, the joined partition errors
// otherwise. Callers that need per-partition retry information use
// AddBatchResults.
func (c *Cluster) AddBatchContext(ctx context.Context, docs []Doc) error {
	results := c.AddBatchResults(ctx, docs)
	errs := make([]error, 0, len(results))
	for i := range results {
		if results[i].Err != nil {
			errs = append(errs, results[i].Err)
		}
	}
	return errors.Join(errs...)
}

// DocCount returns the number of documents over all partitions (0
// counted for unreachable partitions; replicas count once).
func (c *Cluster) DocCount() int {
	infos, _ := c.NodeInfoContext(context.Background())
	n := 0
	for _, l := range infos {
		n += l.Docs
	}
	return n
}

// NodeInfoContext returns every partition's load — read from its first
// healthy replica, failing over like any read — gathered in parallel;
// an unreachable partition reports a zero load and the first error is
// returned alongside the loads.
func (c *Cluster) NodeInfoContext(ctx context.Context) ([]NodeLoad, error) {
	infos := make([]NodeLoad, len(c.groups))
	errs := make([]error, len(c.groups))
	var wg sync.WaitGroup
	for g := range c.groups {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var fo int
			infos[g], fo, _, errs[g] = groupCall(c, ctx, g, 1, func(nctx context.Context, n Node) (NodeLoad, error) {
				return n.Load(nctx)
			})
			if fo > 0 {
				c.failoverCount.Add(uint64(fo))
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return infos, err
		}
	}
	return infos, nil
}

// ReplicaInfo is one replica's load and routing state, as gathered by
// ReplicaInfoContext for the serving layer's /stats.
type ReplicaInfo struct {
	Load   NodeLoad
	Err    error // load probe failure (replica unreachable)
	Health ReplicaHealth
}

// ReplicaInfoContext probes EVERY replica of every partition in
// parallel — no failover, this is the observability path where an
// unreachable replica is exactly the finding — and pairs each load
// with the replica's routing state.
func (c *Cluster) ReplicaInfoContext(ctx context.Context) [][]ReplicaInfo {
	health := c.ReplicaHealth()
	out := make([][]ReplicaInfo, len(c.groups))
	var wg sync.WaitGroup
	for g, reps := range c.groups {
		out[g] = make([]ReplicaInfo, len(reps))
		for r, node := range reps {
			out[g][r].Health = health[g][r]
			wg.Add(1)
			go func(g, r int, node Node) {
				defer wg.Done()
				nctx, cancel := c.nodeCtx(ctx)
				defer cancel()
				out[g][r].Load, out[g][r].Err = node.Load(nctx)
			}(g, r, node)
		}
	}
	wg.Wait()
	return out
}

// NodeLoadsContext returns the number of documents on each partition.
func (c *Cluster) NodeLoadsContext(ctx context.Context) ([]int, error) {
	infos, err := c.NodeInfoContext(ctx)
	loads := make([]int, len(infos))
	for i, l := range infos {
		loads[i] = l.Docs
	}
	return loads, err
}

// NodeLoads returns the number of documents on each partition; with
// the default partitioning the loads differ by at most one.
func (c *Cluster) NodeLoads() []int {
	loads, _ := c.NodeLoadsContext(context.Background())
	return loads
}

// MaxDocContext returns the highest document oid over all partitions,
// so an oid allocator can continue after the documents already indexed.
func (c *Cluster) MaxDocContext(ctx context.Context) (bat.OID, error) {
	infos, err := c.NodeInfoContext(ctx)
	if err != nil {
		return bat.NilOID, err
	}
	max := bat.NilOID
	for _, l := range infos {
		if l.MaxDoc > max {
			max = l.MaxDoc
		}
	}
	return max, nil
}

// errStatsBackoff reports a refresh suppressed by the failure backoff.
var errStatsBackoff = errors.New("dist: stats aggregation backing off after node failure")

// statsBackoff returns how long failed aggregations are suppressed:
// the per-node timeout when one is configured, else one second.
func (c *Cluster) statsBackoff() time.Duration {
	if c.timeout > 0 {
		return c.timeout
	}
	return time.Second
}

// refreshStats brings the per-group statistics up to date: every group
// whose statistics an Add (or InvalidateStats) made stale is asked for
// them again — through its first responsive replica; replicas hold
// identical copies, so any one speaks for the group, and a dead node
// only fails the refresh when its whole group is down. A RemoteNode
// answers from its cached copy plus whatever the node says changed, so
// a refresh costs what the ingest changed, not the vocabulary. It
// reports how many groups were pulled, and fails if any of them is
// unreachable: scoring with partly refreshed statistics must be
// reported (StaleStats), never silent. A failed refresh is not retried
// for a backoff window (the per-node timeout), so searches fall back to
// the statistics they have quickly instead of each paying the dead
// partition's timeout.
//
// The network fan-out runs outside the cluster lock: concurrent
// refreshes may race each other (they produce the same answer), but
// queries never queue behind a slow node's round-trip. A pull that
// overlapped an Add to its group is stored as the group's latest
// statistics without being marked fresh, so the next query pulls again.
func (c *Cluster) refreshStats(ctx context.Context) (int, error) {
	c.mu.Lock()
	var stale []int
	for g := range c.gstats {
		if !c.gstats[g].fresh {
			stale = append(stale, g)
		}
	}
	if len(stale) == 0 {
		c.mu.Unlock()
		return 0, nil
	}
	if time.Now().Before(c.retryAfter) {
		c.mu.Unlock()
		return 0, errStatsBackoff
	}
	gens := make([]uint64, len(stale))
	for i, g := range stale {
		gens[i] = c.gstats[g].gen
	}
	c.mu.Unlock()

	pulled := make([]ir.Stats, len(stale))
	errs := make([]error, len(stale))
	var wg sync.WaitGroup
	for i, g := range stale {
		wg.Add(1)
		go func(i, g int) {
			defer wg.Done()
			var fo int
			pulled[i], fo, _, errs[i] = groupCall(c, ctx, g, 1, func(nctx context.Context, n Node) (ir.Stats, error) {
				return n.Stats(nctx)
			})
			if fo > 0 {
				// The pull re-routed around a dead replica: count it —
				// telemetry reflects every failover, wherever it happens.
				c.failoverCount.Add(uint64(fo))
			}
		}(i, g)
	}
	wg.Wait()

	var failed error
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, g := range stale {
		if errs[i] != nil {
			if failed == nil {
				failed = errs[i]
			}
			continue
		}
		gs := &c.gstats[g]
		gs.st, gs.have = pulled[i], true
		if gs.gen == gens[i] {
			gs.fresh = true
		}
	}
	if failed == nil {
		c.retryAfter = time.Time{}
	} else if ctx.Err() == nil {
		// Arm the backoff only for genuine node failures — one caller
		// cancelling its own context must not degrade every other
		// client's searches for the backoff window.
		c.retryAfter = time.Now().Add(c.statsBackoff())
	}
	return len(stale), failed
}

// projectStats sums the groups' statistics for the given stems: the
// global statistics a query over exactly these stems is scored with —
// their global df, Σdf and |D|. It reads whatever each group last
// reported, fresh or not, and reports false while some group has never
// reported at all.
func (c *Cluster) projectStats(stems []string) (ir.Stats, bool) {
	st := ir.Stats{DF: make(map[string]int, len(stems))}
	c.mu.Lock()
	defer c.mu.Unlock()
	for g := range c.gstats {
		gs := &c.gstats[g]
		if !gs.have {
			return ir.Stats{}, false
		}
		st.TotalDF += gs.st.TotalDF
		st.Docs += gs.st.Docs
	}
	for _, stem := range stems {
		df := 0
		for g := range c.gstats {
			df += c.gstats[g].st.DF[stem]
		}
		if df > 0 {
			st.DF[stem] = df
		}
	}
	return st, true
}

// GlobalStatsContext returns the aggregated collection statistics —
// the whole vocabulary's, merged on each call from the per-group
// statistics after refreshing them (see refreshStats; a refresh also
// freezes the pulled nodes' access paths). No search reads it: a search
// ships only its query's projection (projectStats). It fails when a
// partition's statistics cannot be refreshed.
func (c *Cluster) GlobalStatsContext(ctx context.Context) (ir.Stats, error) {
	if _, err := c.refreshStats(ctx); err != nil {
		return ir.Stats{}, err
	}
	c.mu.Lock()
	locals := make([]ir.Stats, len(c.gstats))
	for g := range c.gstats {
		locals[g] = c.gstats[g].st // read-only: a refresh replaces, never edits
	}
	c.mu.Unlock()
	return ir.MergeStats(locals...), nil
}

// GlobalStats is GlobalStatsContext with a background context, for
// in-process clusters whose nodes cannot fail.
func (c *Cluster) GlobalStats() ir.Stats {
	stats, _ := c.GlobalStatsContext(context.Background())
	return stats
}

// SearchResult is the outcome of a distributed query: the merged
// ranking over the responsive partitions, plus which partitions (if
// any) were dropped and why, and which needed replica failover.
// Complete reports whether every partition contributed with fresh
// statistics — when true the ranking is exactly the single-index
// ranking, failovers included (a failover re-routes to an identical
// replica; it never degrades the ranking).
type SearchResult struct {
	Results []ir.Result
	// Quality is the cluster-wide quality estimate of a budgeted
	// search: the responsive partitions' per-fragment idf-mass
	// accounting merged by MergeQuality. Exact searches report the
	// trivially exact estimate (Value() == 1).
	Quality ir.QualityEstimate
	Dropped []int         // indices of dropped partitions, ascending
	Errs    map[int]error // reason per dropped partition
	// Failovers maps partition index → replica failovers this search
	// needed there (absent partitions needed none). A populated map
	// with an empty Dropped is the replication subsystem working as
	// designed: a node died and the ranking did not degrade.
	Failovers map[int]int
	// Diverged lists partitions whose RES set came from a replica
	// marked diverged (it previously failed a write its group
	// committed): the ranking may be missing committed documents.
	// Serving it beats dropping the partition, but it must not pass as
	// complete.
	Diverged []int
	// StaleStats is set when refreshing the statistics failed (a whole
	// replica group was unreachable) and the query was scored with what
	// each group last reported instead — degraded but available.
	StaleStats bool
}

// Complete reports whether every partition answered in time with fresh
// global statistics from a replica holding the full committed state.
func (r *SearchResult) Complete() bool {
	return len(r.Dropped) == 0 && len(r.Diverged) == 0 && !r.StaleStats
}

// FailoverTotal sums the replica failovers across partitions.
func (r *SearchResult) FailoverTotal() int {
	n := 0
	for _, f := range r.Failovers {
		n += f
	}
	return n
}

// Search evaluates the query on every partition in parallel — one
// worker per replica group, shared-nothing — and fans the per-node RES
// sets in through the central ir.Merge. Within a group the worker
// routes to the healthiest replica and fails over on error or missed
// deadline; a partition whose every replica fails is dropped, the
// merge proceeds over the responsive partitions and the dropped
// indices are reported in the result, deterministically ordered. With
// no drops the merged ranking is identical to the TopN of a single
// index holding the whole collection — even when individual replicas
// died, as long as each partition kept one responsive replica.
//
// If the statistics cannot be refreshed because a whole group is
// unreachable, the query falls back to the statistics each group last
// reported (StaleStats is set) so a dead partition degrades the ranking
// instead of turning every search into an outage; only a cluster with a
// group that never reported at all fails outright.
func (c *Cluster) Search(ctx context.Context, query string, n int) (*SearchResult, error) {
	return c.SearchPlan(ctx, query, ir.EvalPlan{N: n})
}

// SearchPlan is Search under an evaluation plan: the plan ships with
// the query to every partition, each partition fragments its own
// document subset on descending idf and evaluates only the budgeted
// prefix, and the coordinator merges the RES sets plus a cluster-wide
// quality estimate. The a-priori cut-off thus executes *below* the
// per-node RES sets — each partition skips its own trailing fragments
// — rather than centrally after full evaluation. An exact plan (zero
// Budget) is exactly Search: the merged ranking is identical to a
// single index over the whole collection.
func (c *Cluster) SearchPlan(ctx context.Context, query string, plan ir.EvalPlan) (*SearchResult, error) {
	sr := &SearchResult{}
	if plan.N <= 0 {
		return sr, nil // degenerate: empty ranking, no fan-out
	}
	// Stage spans join the caller's trace when one rides in ctx (the
	// coordinator's /search path); a nil trace records nothing.
	tr := obs.FromContext(ctx)
	statsStart := time.Now()
	refreshed, err := c.refreshStats(ctx)
	// The query's stems are resolved once, here, and every node receives
	// the global statistics of exactly those, under every plan: what
	// scoring reads (see ir.Request.Stats), a few hundred bytes instead
	// of the vocabulary.
	var scratch [8]string
	global, ok := c.projectStats(ir.QueryStems(scratch[:0], query))
	if err != nil {
		if !ok {
			return nil, err
		}
		sr.StaleStats = true
	}
	if tr != nil {
		tr.AddSpanDetail("stats", statsStart,
			"groups_refreshed="+strconv.Itoa(refreshed)+" stems_shipped="+strconv.Itoa(len(global.DF)))
	}
	c.searchCount.Add(1)
	fanStart := time.Now()
	type planRes struct {
		res []ir.Result
		est ir.QualityEstimate
	}
	type groupRes struct {
		g        int
		r        planRes
		fo       int
		diverged bool
		err      error
	}
	ch := make(chan groupRes, len(c.groups))
	for g := range c.groups {
		go func(g int) {
			r, fo, diverged, err := groupCall(c, ctx, g, 1, func(nctx context.Context, n Node) (planRes, error) {
				res, est, err := n.SearchPlan(nctx, query, plan, global)
				return planRes{res, est}, err
			})
			ch <- groupRes{g, r, fo, diverged, err}
		}(g)
	}
	rankings := make([][]ir.Result, len(c.groups))
	// Estimates are kept in partition order: merging sums
	// floating-point masses, and summation in nondeterministic arrival
	// order would make the reported cluster quality differ between
	// identical queries in the last bit. A failed partition's zero
	// estimate is a no-op in the merge.
	ests := make([]ir.QualityEstimate, len(c.groups))
	answered := make([]bool, len(c.groups))
	pending := len(c.groups)
collect:
	for pending > 0 {
		select {
		case r := <-ch:
			pending--
			answered[r.g] = true
			if r.fo > 0 {
				if sr.Failovers == nil {
					sr.Failovers = map[int]int{}
				}
				sr.Failovers[r.g] = r.fo
				c.failoverCount.Add(uint64(r.fo))
			}
			if r.err != nil {
				sr.fail(r.g, r.err)
			} else {
				rankings[r.g] = r.r.res
				ests[r.g] = r.r.est
				if r.diverged {
					sr.Diverged = append(sr.Diverged, r.g)
				}
			}
		case <-ctx.Done():
			// Overall deadline: whatever has not answered yet is a
			// straggler. The workers still drain into the buffered
			// channel and exit; their late results are discarded.
			for g, ok := range answered {
				if !ok {
					sr.fail(g, ctx.Err())
				}
			}
			break collect
		}
	}
	sort.Ints(sr.Dropped)
	sort.Ints(sr.Diverged)
	c.droppedCount.Add(uint64(len(sr.Dropped)))
	tr.AddSpan("fanout", fanStart)
	mergeStart := time.Now()
	sr.Results = ir.Merge(plan.N, rankings...)
	sr.Quality = ir.MergeQuality(ests...)
	tr.AddSpan("merge", mergeStart)
	return sr, nil
}

func (r *SearchResult) fail(i int, err error) {
	r.Dropped = append(r.Dropped, i)
	if r.Errs == nil {
		r.Errs = map[int]error{}
	}
	r.Errs[i] = err
}

// TopN is the convenience form of Search for in-process clusters
// without a NodeTimeout: background context, every partition awaited,
// and the merged ranking identical to a single index over the whole
// collection. With remote nodes or a NodeTimeout configured it may
// silently return a partial ranking (dropped fragments) or nil (stats
// aggregation failed on a cold cluster) — serving layers must call
// Search, which reports both.
func (c *Cluster) TopN(query string, n int) []ir.Result {
	sr, err := c.Search(context.Background(), query, n)
	if err != nil {
		return nil
	}
	return sr.Results
}
