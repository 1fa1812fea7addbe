// Package dlsearch is a flexible and scalable digital library search
// engine: a from-scratch reproduction of "Flexible and Scalable
// Digital Library Search" (Windhouwer, Schmidt, van Zwol, Petkovic,
// Blok — CWI INS-R0111 / VLDB 2001).
//
// The system combines three levels:
//
//   - the conceptual level (Webspace Method): an object-oriented
//     webspace schema over which documents are materialized views,
//     enabling semantically rich conceptual search;
//   - the logical level (feature grammars): a description language
//     binding feature-extraction detectors into one grammar, with the
//     Feature Detector Engine (FDE) populating and the Feature
//     Detector Scheduler (FDS) incrementally maintaining the
//     multimedia meta-index;
//   - the physical level (Monet XML + IR): path-clustered binary
//     relations storing both conceptual data and meta-data, with
//     tf·idf full-text retrieval, idf-descending fragmentation and
//     shared-nothing distribution.
//
// The package re-exports the stable public surface; the examples/
// directory shows complete engines for the Australian Open running
// example and for the generic Internet configuration.
//
// Quick start:
//
//	eng, site, report, err := dlsearch.BuildAusOpen(1)
//	...
//	res, err := eng.Query(dlsearch.Figure13Query)
package dlsearch

import (
	"context"
	"io"
	"net/http"
	"time"

	"dlsearch/internal/cobra"
	"dlsearch/internal/core"
	"dlsearch/internal/crawler"
	"dlsearch/internal/detector"
	"dlsearch/internal/dist"
	"dlsearch/internal/fde"
	"dlsearch/internal/fds"
	"dlsearch/internal/fg"
	"dlsearch/internal/ir"
	"dlsearch/internal/monetxml"
	"dlsearch/internal/obs"
	"dlsearch/internal/persist"
	"dlsearch/internal/query"
	"dlsearch/internal/server"
	"dlsearch/internal/site"
	"dlsearch/internal/video"
	"dlsearch/internal/webspace"
)

// Engine is a search-engine instance over one webspace schema and one
// feature grammar; it owns the physical store, the full-text indexes
// and the maintenance scheduler.
type Engine = core.Engine

// PopulateReport summarises a population run.
type PopulateReport = core.PopulateReport

// MaintenanceReport summarises a detector upgrade cycle.
type MaintenanceReport = core.MaintenanceReport

// InternetEngine is the unlimited-domain configuration of the paper:
// a generic feature grammar and a direct interface on the logical
// level.
type InternetEngine = core.InternetEngine

// Webspace (conceptual level) types.
type (
	// Schema is a webspace schema: classes, attributes, associations.
	Schema = webspace.Schema
	// Attribute is a typed class attribute.
	Attribute = webspace.Attribute
	// WebDocument is a materialized view over the schema.
	WebDocument = webspace.Document
	// WebObject is an instantiation of a schema class.
	WebObject = webspace.Object
)

// Feature grammar (logical level) types.
type (
	// Grammar is a parsed feature grammar G = (V, D, T, S, P).
	Grammar = fg.Grammar
	// Detector is a registered detector implementation.
	Detector = detector.Impl
	// DetectorRegistry maps detector symbols to implementations.
	DetectorRegistry = detector.Registry
	// DetectorVersion is the three-level (major/minor/revision) version.
	DetectorVersion = detector.Version
	// Token is a (symbol, value) token on the FDE's token stack.
	Token = detector.Token
	// TokenContext carries a detector invocation's resolved inputs.
	TokenContext = detector.Context
	// ParseTree is an FDE parse tree.
	ParseTree = fde.Tree
	// Scheduler is the Feature Detector Scheduler.
	Scheduler = fds.Scheduler
)

// Query types.
type (
	// QueryResult is a ranked result of an integrated query.
	QueryResult = query.Result
	// QueryRow is one result row with score and matched shots.
	QueryRow = query.Row
	// ShotEvent is a video shot with its recognised event state.
	ShotEvent = query.ShotEvent
)

// Physical level types, exposed for advanced use and benchmarks.
type (
	// XMLStore is the Monet-transform store.
	XMLStore = monetxml.Store
	// XMLNode is an in-memory XML node.
	XMLNode = monetxml.Node
	// FullTextIndex is the tf·idf index: the T and IDF BATs, dense
	// document columns (D) and term-clustered DT/TF posting columns.
	FullTextIndex = ir.Index
	// EvalPlan is a fragment-budgeted, quality-bounded evaluation
	// strategy: how many leading idf-descending fragments each node
	// evaluates, and the quality floor that re-admits trailing ones.
	EvalPlan = ir.EvalPlan
	// QualityEstimate is the structured quality accounting a budgeted
	// evaluation reports (covered/total idf mass, fragments used).
	QualityEstimate = ir.QualityEstimate
	// Cluster is a shared-nothing cluster of IR nodes.
	Cluster = dist.Cluster
	// ClusterOptions configures partitioning, ranking and per-node
	// deadlines of a Cluster.
	ClusterOptions = dist.Options
)

// Networked serving types: the Node boundary, its local and HTTP
// implementations, and the serving layer's building blocks.
type (
	// ClusterNode is one member of a Cluster — in-process or remote.
	ClusterNode = dist.Node
	// LocalNode is the in-process Node over a FullTextIndex.
	LocalNode = dist.LocalNode
	// RemoteNode speaks the HTTP node protocol to a node server.
	RemoteNode = dist.RemoteNode
	// ClusterSearchResult is a distributed ranking with straggler info.
	ClusterSearchResult = dist.SearchResult
	// QueryCache is the query-side LRU over (query → term oids).
	QueryCache = core.QueryCache
	// NodeServerConfig tunes an HTTP node server.
	NodeServerConfig = server.NodeConfig
	// NodeServer serves one fragment over the node wire protocol and
	// owns its durability hooks (Snapshot, MarkRestored).
	NodeServer = server.NodeServer
	// Coordinator serves /search, /add/stream, /stats and /healthz.
	Coordinator = server.Coordinator
	// CoordinatorConfig tunes a Coordinator.
	CoordinatorConfig = server.CoordinatorConfig
)

// Durability & replication types: snapshot state, replica routing
// health, per-partition batch outcomes and cluster availability
// telemetry.
type (
	// IndexState is the stable serialization form of a FullTextIndex —
	// what a snapshot persists and a restore rebuilds.
	IndexState = ir.IndexState
	// ReplicaHealth is one replica's routing state (consecutive
	// failures, last error).
	ReplicaHealth = dist.ReplicaHealth
	// ClusterTelemetry is a cluster's cumulative availability counters.
	ClusterTelemetry = dist.Telemetry
	// PartitionResult is one partition's commit outcome of a batch add.
	PartitionResult = dist.PartitionResult
	// AntiEntropyReport summarises one Cluster.CheckReplicas pass:
	// divergences detected by replica checksum comparison, stale
	// quarantines cleared, replicas resynced.
	AntiEntropyReport = dist.AntiEntropyReport
	// ReplicaCheck is one replica's outcome of an anti-entropy pass.
	ReplicaCheck = dist.ReplicaCheck
	// ClusterNodeLoad is one node's load probe: doc count, max oid,
	// snapshot age and the fragment's content checksum.
	ClusterNodeLoad = dist.NodeLoad
	// OpLog is a node's write-ahead op log: ingest is appended and
	// fsynced before it is applied, so acknowledged writes survive a
	// crash and boot recovery is snapshot + log replay.
	OpLog = persist.OpLog
	// LoggedOp is one logged ingest operation (index one document).
	LoggedOp = persist.Op
)

// ErrDeltaUnavailable reports that a node cannot serve the requested
// op-log suffix (no log, or the suffix was compacted away) — heal by
// full snapshot instead. ErrPosMismatch reports a delta that does not
// start exactly at the target replica's log position.
var (
	ErrDeltaUnavailable = dist.ErrDeltaUnavailable
	ErrPosMismatch      = dist.ErrPosMismatch
)

// OpenOpLog opens (or creates) the write-ahead op log in dir,
// truncating a torn tail left by a crash mid-append and failing
// closed on interior corruption. Wire it into a node with
// LocalNode.SetOpLog.
func OpenOpLog(dir string) (*OpLog, error) { return persist.OpenOpLog(dir) }

// ErrSnapshotCorrupt reports a snapshot that failed integrity
// verification (bad magic, truncation, checksum mismatch, or an
// inconsistent decoded state): loads fail closed, never yielding a
// partial index.
var ErrSnapshotCorrupt = persist.ErrCorrupt

// Substrate types used by the examples.
type (
	// AusOpenSite is the generated Australian Open website.
	AusOpenSite = site.Site
	// VideoLibrary stores raw video by URL.
	VideoLibrary = video.Library
	// Analyzer runs the COBRA video analysis.
	Analyzer = cobra.Analyzer
	// CrawlResult is the crawler's output.
	CrawlResult = crawler.Result
)

// Figure13Query is the paper's running-example query: "Show me video
// shots of left-handed female players, who have won the Australian
// Open in the past, and in which they approach the net."
const Figure13Query = core.Figure13Query

// TennisGrammar is the combined Figure 6+7 video feature grammar.
const TennisGrammar = fg.TennisGrammar

// InternetGrammar is the completed Figure 14 grammar.
const InternetGrammar = fg.InternetGrammar

// New creates an engine from a schema, a feature grammar and a
// detector registry (the modeling stage of the lifecycle).
func New(schema *Schema, grammar *Grammar, reg *DetectorRegistry) (*Engine, error) {
	return core.New(schema, grammar, reg)
}

// NewAusOpen assembles the complete running-example engine over a
// generated Australian Open website.
func NewAusOpen(s *AusOpenSite) (*Engine, error) { return core.NewAusOpen(s) }

// BuildAusOpen generates the website, crawls it and populates a fresh
// engine: the entire populate stage in one call.
func BuildAusOpen(seed int64) (*Engine, *AusOpenSite, *PopulateReport, error) {
	return core.BuildAusOpen(seed)
}

// GenerateSite generates the deterministic Australian Open website
// with its ground truth.
func GenerateSite(seed int64) *AusOpenSite { return site.Generate(seed) }

// NewCrawler returns a crawler that reengineers pages fetched by fetch
// into materialized views over the schema.
func NewCrawler(schema *Schema, fetch func(string) (string, error)) *crawler.Crawler {
	return crawler.New(schema, fetch)
}

// ParseGrammar parses and validates feature grammar source text.
func ParseGrammar(src string) (*Grammar, error) { return fg.Parse(src) }

// AusOpenSchema returns the Figure 3 webspace schema.
func AusOpenSchema() *Schema { return webspace.AusOpenSchema() }

// NewRegistry returns an empty detector registry.
func NewRegistry() *DetectorRegistry { return detector.NewRegistry() }

// NewInternetEngine builds the generic Internet configuration over a
// synthetic open web.
func NewInternetEngine(pages []*core.WebPage, images []*core.WebImage) (*InternetEngine, error) {
	return core.NewInternetEngine(pages, images)
}

// SyntheticWeb generates a small open web for the Internet example.
func SyntheticWeb(seed int64) ([]*core.WebPage, []*core.WebImage) {
	return core.SyntheticWeb(seed)
}

// NewCluster builds a shared-nothing cluster of k IR nodes with
// deterministic round-robin document partitioning.
func NewCluster(k int) *Cluster { return dist.NewCluster(k, nil) }

// NewClusterWith builds a shared-nothing cluster of k IR nodes with
// explicit partitioning / ranking options.
func NewClusterWith(k int, opts *ClusterOptions) *Cluster { return dist.NewCluster(k, opts) }

// NewClusterOf builds a cluster over caller-supplied nodes — local,
// remote, or a mix — with per-node timeouts and straggler handling.
func NewClusterOf(nodes []ClusterNode, opts *ClusterOptions) *Cluster {
	return dist.NewClusterOf(nodes, opts)
}

// NewReplicatedCluster builds a cluster that places each partition on
// r of the supplied nodes (consecutive groups): writes fan out to all
// replicas of a partition, reads fail over between them, and killing
// any single node leaves the merged ranking byte-identical to the
// exact single-index ranking.
func NewReplicatedCluster(nodes []ClusterNode, r int, opts *ClusterOptions) (*Cluster, error) {
	return dist.NewReplicatedCluster(nodes, r, opts)
}

// NewReplicatedClusterOf builds a cluster over caller-supplied replica
// groups: each inner slice is one partition's replicas.
func NewReplicatedClusterOf(groups [][]ClusterNode, opts *ClusterOptions) *Cluster {
	return dist.NewReplicatedClusterOf(groups, opts)
}

// SaveIndexSnapshot persists a full-text index to path in the
// versioned, checksummed binary snapshot format, atomically
// (write-to-temp, fsync, rename). The caller must not mutate the
// index concurrently.
func SaveIndexSnapshot(path string, ix *FullTextIndex) error {
	return persist.SaveIndex(path, ix)
}

// LoadIndexSnapshot rebuilds a full-text index from the snapshot at
// path. Corruption fails closed with ErrSnapshotCorrupt; a missing
// file reports fs.ErrNotExist.
func LoadIndexSnapshot(path string) (*FullTextIndex, error) {
	return persist.LoadIndex(path)
}

// NewLocalNode wraps a full-text index as an in-process cluster node.
func NewLocalNode(ix *FullTextIndex) *LocalNode { return dist.NewLocalNode(ix) }

// NewRemoteNode returns a cluster node speaking the HTTP node
// protocol at baseURL (nil client selects a pooled default).
func NewRemoteNode(baseURL string) *RemoteNode { return dist.NewRemoteNode(baseURL, nil) }

// NewQueryCache returns a query-side LRU term cache of the given
// capacity.
func NewQueryCache(capacity int) *QueryCache { return core.NewQueryCache(capacity) }

// NewNodeServer returns the HTTP handler serving ix as a remote
// cluster node (the dist.Node operations plus /healthz).
func NewNodeServer(ix *FullTextIndex, cfg *NodeServerConfig) http.Handler {
	return server.NewNodeHandler(ix, cfg)
}

// NewCoordinator builds the central serving site over named clusters;
// its Handler exposes /search, /add/stream, /stats and /healthz.
func NewCoordinator(indexes map[string]*Cluster, cfg *CoordinatorConfig) *Coordinator {
	return server.NewCoordinator(indexes, cfg)
}

// ServeUntil serves h on addr until ctx is cancelled, then shuts down
// gracefully, draining in-flight requests.
func ServeUntil(ctx context.Context, addr string, h http.Handler) error {
	return server.Run(ctx, addr, h, 0)
}

// Observability: the dependency-free instruments of internal/obs.
// Wire a registry into the serving layer via NodeServerConfig.Metrics
// / CoordinatorConfig.Metrics (GET /metrics then serves Prometheus
// text) and a slow-query log via the configs' SlowQuery field; both
// are nil-safe — a nil registry compiles every instrument out of the
// hot path.
type (
	// MetricsRegistry collects counters, gauges and log-bucketed
	// histograms and renders them in Prometheus text form (Handler).
	MetricsRegistry = obs.Registry
	// Trace records per-stage spans of one request under one request
	// ID, propagated coordinator→node via the X-DL-Request header.
	Trace = obs.Trace
	// Logger is a leveled logger (debug/info/warn/error).
	Logger = obs.Logger
	// LogLevel is a Logger threshold; parse one with ParseLogLevel.
	LogLevel = obs.Level
	// SlowQueryLog emits one JSON SlowQueryRecord line for every query
	// slower than its threshold.
	SlowQueryLog = obs.SlowQueryLog
	// SlowQueryRecord is the slow-query log's line format, including
	// the full per-stage span breakdown.
	SlowQueryRecord = obs.SlowQueryRecord
)

// HeaderRequestID is the HTTP header carrying the request ID across
// process boundaries (coordinator → node over HTTP, and echoed to
// clients); on the persistent node connection the ID travels inside
// the search frame instead.
const HeaderRequestID = obs.HeaderRequestID

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewLogger returns a leveled logger writing "prefix: level: message"
// lines at or above level to w.
func NewLogger(w io.Writer, prefix string, level LogLevel) *Logger {
	return obs.NewLogger(w, prefix, level)
}

// ParseLogLevel parses "debug", "info", "warn" or "error".
func ParseLogLevel(s string) (LogLevel, error) { return obs.ParseLevel(s) }

// NewSlowQueryLog returns a slow-query log writing to w; threshold <=
// 0 returns nil (disabled), which every recording method tolerates.
func NewSlowQueryLog(w io.Writer, threshold time.Duration) *SlowQueryLog {
	return obs.NewSlowQueryLog(w, threshold)
}
