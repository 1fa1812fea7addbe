package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef describes one named metric. BENCHMARK.json lists the same
// names, units, directions and bounds; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that counts as a regression
	Help   string  // how it is measured · which end-to-end metric it should move, where
}

// endToEnd is what a client of the cluster sees. Every workload
// reports every one of them, from the untraced multi-process run, over
// all requests of its timed phases whatever their kind; the per-kind
// figures and the tails are the client.* layer metrics.
//
// The bounds are wide because the sandbox is: between runs of one
// commit the speed figures stay within 2-6 % of each other in a quiet
// quarter of an hour, and whole minutes run 20-30 % slow when the host
// is busy.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Help: "boot + preload + warm-up of one cluster, median of the three rounds; build excluded"},
	{Name: "ops_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Help: "requests answered correctly per second of the timed phase (one ingest_stream request carries 512 documents)"},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Help: "median request latency; open loop: from when the request was due"},
	{Name: "mean_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Help: "mean request latency; on mixed_rw it carries the post-ingest penalty the median hides"},
	{Name: "recovery_ms_per_kdoc", Unit: "ms", Better: "lower", Bound: 0.25,
		Help: "SIGKILL both nodes, restart on the same data dirs, until the coordinator reports every acknowledged document; per 1000 documents"},
	{Name: "stored_bytes_per_doc_byte", Unit: "ratio", Better: "lower", Bound: 0.02,
		Help: "bytes in the nodes' data dirs per byte of document text acknowledged"},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.10,
		Help: "sum of VmHWM over the three dlserve processes"},
}

// perLayer is reported by the traced run (-trace 1). Layers are the
// repo's modules; none of these is gated.
var perLayer = []metricDef{
	// client: the load generator's per-kind view of the untraced half.
	{Name: "client.search_ops_s", Unit: "1/s", Better: "higher", Help: "untraced run · ops_s on both search workloads"},
	{Name: "client.search_p50_ms", Unit: "ms", Better: "lower", Help: "untraced run · p50_ms on search_cold, search_hot_budget, mixed_rw"},
	{Name: "client.search_p95_ms", Unit: "ms", Better: "lower", Help: "untraced run · tail of p50_ms on both search workloads"},
	{Name: "client.search_p99_ms", Unit: "ms", Better: "lower", Help: "untraced run · further tail"},
	{Name: "client.search_mean_ms", Unit: "ms", Better: "lower", Help: "untraced run · mean_ms on mixed_rw"},
	{Name: "client.search_quality_mean", Unit: "ratio", Better: "higher", Help: "mean served quality estimate; 1 when exact · guards search_hot_budget against buying speed with quality"},
	{Name: "client.query_p50_ms", Unit: "ms", Better: "lower", Help: "untraced run · mean_ms on mixed_rw (queries are its slow fifth)"},
	{Name: "client.query_p95_ms", Unit: "ms", Better: "lower", Help: "untraced run · tail of the same"},
	{Name: "client.query_mean_ms", Unit: "ms", Better: "lower", Help: "untraced run · mean_ms on mixed_rw"},
	{Name: "client.ingest_docs_s", Unit: "docs/s", Better: "higher", Help: "untraced run · ops_s on ingest_stream"},
	{Name: "client.ingest_p50_ms", Unit: "ms", Better: "lower", Help: "per stream request · p50_ms on ingest_stream, mean_ms on mixed_rw"},
	{Name: "client.ingest_p95_ms", Unit: "ms", Better: "lower", Help: "untraced run · tail of p50_ms on ingest_stream"},
	{Name: "client.gen_late_max_ms", Unit: "ms", Better: "lower", Help: "open loop: latest send after the generator was free to send · validity of mixed_rw (must stay far below p50_ms)"},
	{Name: "client.fail_share", Unit: "ratio", Better: "lower", Help: "failed ÷ attempted in the untraced half"},
	{Name: "client.traced_p50_ratio", Unit: "ratio", Better: "lower", Help: "traced p50 ÷ untraced p50 · tracing and in-process-topology overhead"},
	{Name: "client.http_self_ms", Unit: "ms", Better: "lower", Help: "p50 of client.request − server.coordinator · p50_ms on search_hot_budget"},
	{Name: "client.untraced_gap_ms", Unit: "ms", Better: "lower", Help: "p50 of client.request minus the p50s of its three parts (http self, coordinator self, fan-out covered)"},
	// server: the coordinator's own time.
	{Name: "server.search_self_ms", Unit: "ms", Better: "lower", Help: "server.coordinator span on /search minus the union of its dist.rpc.* children, p50 · p50_ms on search_hot_budget"},
	{Name: "server.query_self_ms", Unit: "ms", Better: "lower", Help: "same on /query (parse, engine execute, lock wait) · mean_ms on mixed_rw"},
	{Name: "server.stream_self_ms", Unit: "ms", Better: "lower", Help: "same on /add/stream (line decode, engine add, Warm) · ops_s on ingest_stream"},
	{Name: "server.search_over_dist_ms", Unit: "ms", Better: "lower", Help: "server.coordinator p50 on /search − dist.search_direct_ms · ops_s on search_hot_budget"},
	// dist: fan-out and node RPCs.
	{Name: "dist.fanout_covered_ms", Unit: "ms", Better: "lower", Help: "union of the dist.rpc.* children of a /search, p50 · p50_ms on both search workloads"},
	{Name: "dist.rpc_search_ms", Unit: "ms", Better: "lower", Help: "span around SearchPlan/TopNWithStats on each RemoteNode, p50 · p50_ms on both search workloads"},
	{Name: "dist.rpc_search_skew_ms", Unit: "ms", Better: "lower", Help: "slowest − fastest child within one fan-out, p50 · client.search_p95_ms on search_cold"},
	{Name: "dist.rpc_stats_ms", Unit: "ms", Better: "lower", Help: "span around Node.Stats, p50 · mean_ms on mixed_rw"},
	{Name: "dist.rpc_stats_per_search", Unit: "ratio", Better: "lower", Help: "Node.Stats calls ÷ read requests (wasted work) · mean_ms on mixed_rw; predicted 0 on read-only workloads"},
	{Name: "dist.rpc_addbatch_ms", Unit: "ms", Better: "lower", Help: "span around AddBatch, p50 · ops_s on ingest_stream"},
	{Name: "dist.rpc_bytes_out_per_search", Unit: "bytes", Better: "lower", Help: "bench-owned RemoteMetrics counter ÷ direct searches on the quiet cluster · ops_s on search_hot_budget"},
	{Name: "dist.rpc_bytes_in_per_search", Unit: "bytes", Better: "lower", Help: "same for response bytes"},
	{Name: "dist.search_direct_ms", Unit: "ms", Better: "lower", Help: "probe: Cluster.SearchPlan called directly, the workload's queries, p50 · p50_ms on both search workloads"},
	{Name: "dist.global_stats_ms", Unit: "ms", Better: "lower", Help: "probe: InvalidateStats then GlobalStatsContext, p50 · mean_ms on mixed_rw"},
	// persist: wire codec, op log, snapshots.
	{Name: "persist.wire_search_req_bytes", Unit: "bytes", Better: "lower", Help: "probe: EncodeSearchRequest with the cluster's real global stats · ops_s on search_hot_budget"},
	{Name: "persist.wire_search_encode_us", Unit: "us", Better: "lower", Help: "probe: same call, p50"},
	{Name: "persist.wire_search_decode_us", Unit: "us", Better: "lower", Help: "probe: DecodeSearchRequest, nil stats cache, p50"},
	{Name: "persist.wire_search_decode_cached_us", Unit: "us", Better: "lower", Help: "probe: DecodeSearchRequest, warm WireStatsCache, p50"},
	{Name: "persist.oplog_append_ms", Unit: "ms", Better: "lower", Help: "probe: OpLog.Append of a 256-document batch, p50 · ops_s on ingest_stream"},
	{Name: "persist.oplog_fsync_ms", Unit: "ms", Better: "lower", Help: "probe: mean of the fsync histogram OpLog.Instrument feeds during those appends"},
	{Name: "persist.oplog_bytes_per_doc_byte", Unit: "ratio", Better: "lower", Help: "log file size ÷ document text bytes · stored_bytes_per_doc_byte"},
	{Name: "persist.oplog_replay_ms_per_10k", Unit: "ms", Better: "lower", Help: "probe: OpenOpLog + Replay into a fresh index · recovery_ms_per_kdoc"},
	{Name: "persist.snapshot_save_ms", Unit: "ms", Better: "lower", Help: "probe: SaveIndex of one partition · recovery and setup once boots restore snapshots"},
	{Name: "persist.snapshot_load_ms", Unit: "ms", Better: "lower", Help: "probe: LoadIndex of the same file"},
	{Name: "persist.snapshot_bytes_per_doc_byte", Unit: "ratio", Better: "lower", Help: "snapshot size ÷ document text bytes"},
	// ir: scoring and indexing on one partition, no network.
	{Name: "ir.score_exact_ms", Unit: "ms", Better: "lower", Help: "probe: NewLocalNode(ix).SearchPlan, exact, search_cold queries, p50 · p50_ms on search_cold; predicted no move on search_hot_budget"},
	{Name: "ir.score_budget2_ms", Unit: "ms", Better: "lower", Help: "probe: same with Budget 2 of 8, the hot queries, p50 · p50_ms on search_hot_budget"},
	{Name: "ir.quality_budget2", Unit: "ratio", Better: "higher", Help: "probe: mean quality estimate of those evaluations · client.search_quality_mean"},
	{Name: "ir.add_us_per_doc", Unit: "us", Better: "lower", Help: "probe: LocalNode.AddBatch of 512 documents, no log · ops_s on ingest_stream"},
	{Name: "ir.stats_freeze_ms", Unit: "ms", Better: "lower", Help: "probe: LocalNode.Stats after 16 adds on one partition, p50 · mean_ms on mixed_rw"},
	{Name: "ir.postings_exact_per_query", Unit: "count", Better: "lower", Help: "count: posting tuples an exact evaluation of the search_cold queries scores (repeats exactly)"},
	{Name: "ir.postings_budget2_per_query", Unit: "count", Better: "lower", Help: "count: FragmentPostings delta over the budget-2 evaluations ÷ queries (repeats exactly)"},
	// query and core: the conceptual layer, single process.
	{Name: "query.parse_us", Unit: "us", Better: "lower", Help: "probe: query.Parse on the mixed_rw query strings, mean · predicted invisible"},
	{Name: "core.query_contains_ms", Unit: "ms", Better: "lower", Help: "probe: the mixed_rw query shape on a single-process core.Engine, p50 · mean_ms on mixed_rw"},
	{Name: "core.query_restricted_ms", Unit: "ms", Better: "lower", Help: "probe: Player restricted by gender + contains(history); in no end-to-end mix today"},
	{Name: "core.query_join_ms", Unit: "ms", Better: "lower", Help: "probe: Player ⋈ Article via Is_covered_in + contains(body); in no end-to-end mix today"},
	{Name: "core.db_warm_ms", Unit: "ms", Better: "lower", Help: "probe: DB.InvalidateCaches + DB.Warm, p50 · mean_ms on mixed_rw"},
	{Name: "core.add_document_us", Unit: "us", Better: "lower", Help: "probe: Engine.AddDocument per article, mean · mean_ms on mixed_rw"},
}

// value is one measured metric with the number of samples behind it.
type value struct {
	V float64
	N int
}

type values map[string]value

// printValues writes one line per metric of defs, in their order.
func printValues(w io.Writer, defs []metricDef, vs values) {
	for _, d := range defs {
		v, ok := vs[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-36s %14.4f %-7s n=%d\n", d.Name, v.V, d.Unit, v.N)
	}
}

// series is a sample of durations or sizes.
type series []float64

func (d series) sorted() series {
	s := append(series(nil), d...)
	sort.Float64s(s)
	return s
}

// quantile of a sorted sample by linear interpolation; 0 when empty.
func (d series) quantile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	pos := q * float64(len(d)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return d[lo] + (d[hi]-d[lo])*(pos-float64(lo))
}

func (d series) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range d {
		sum += x
	}
	return sum / float64(len(d))
}

func (d series) max() float64 {
	m := 0.0
	for _, x := range d {
		m = math.Max(m, x)
	}
	return m
}

func (d series) p50() value  { return value{d.sorted().quantile(0.50), len(d)} }
func (d series) p95() value  { return value{d.sorted().quantile(0.95), len(d)} }
func (d series) p99() value  { return value{d.sorted().quantile(0.99), len(d)} }
func (d series) avg() value  { return value{d.mean(), len(d)} }
func (d series) peak() value { return value{d.max(), len(d)} }
