package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"dlsearch/internal/bat"
	"dlsearch/internal/core"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/obs"
	"dlsearch/internal/slo"
)

// CoordinatorConfig tunes a coordinator. The zero value selects the
// package defaults and no overall search deadline.
type CoordinatorConfig struct {
	MaxBody       int64
	MaxConcurrent int
	MaxTopN       int // /search n clamp; 0 selects DefaultMaxTopN
	// SearchTimeout bounds each /search end to end. Together with the
	// clusters' per-node NodeTimeout this is the straggler policy: the
	// coordinator answers with the responsive nodes' merged ranking
	// and reports the dropped nodes. 0 means no deadline.
	SearchTimeout time.Duration
	// Frags, FragBudget and MinQuality form the default evaluation
	// plan applied to /search requests that do not carry their own
	// plan fields: how many idf-descending fragments the cluster's
	// cut-off splits the vocabulary into, how many leading ones a
	// search evaluates (0 = all: exact search), and the quality floor
	// that re-admits trailing fragments. Requests override per field.
	Frags      int
	FragBudget int
	MinQuality float64
	// Metrics, when set, receives the coordinator's serving telemetry —
	// request counters, per-index search latency and served-quality
	// histograms, the clusters' availability counters, Go runtime
	// gauges — and is served in Prometheus text format on GET /metrics
	// (outside the concurrency semaphore, like /healthz). nil keeps the
	// telemetry in a private registry, still reported by /stats, and
	// serves no /metrics.
	Metrics *obs.Registry
	// SlowQuery, when set, emits one JSON line (request ID, index,
	// query, span breakdown) for every /search slower than its
	// threshold. nil disables the slow-query log.
	SlowQuery *obs.SlowQueryLog
	// Engine, when set, serves the conceptual layer on POST /query:
	// the paper's query language parsed and executed against this
	// engine's webspace schema, monetxml store and meta-index, with
	// every contains predicate fanned out over the cluster whose index
	// name equals the predicate's "Class.attr" key. The coordinator
	// owns the engine's write lock; in-process writers must not mutate
	// it while the coordinator serves. nil disables /query (404) and
	// the conceptual line kinds of /add/stream.
	Engine *core.Engine
	// StreamFlush is the per-index batch size of POST /add/stream: how
	// many decoded documents accumulate before one AddBatchResults
	// round-trip. 0 selects DefaultStreamFlush. Memory is bounded by
	// StreamFlush × line size per index, never by the stream length.
	StreamFlush int
	// SLO, when set, turns /search adaptive: the budget controller
	// picks each query's fragment budget from the learned latency
	// curve, never below the budget at which the cut-off's a-priori
	// estimate meets the query's quality floor (MinQuality or the
	// request's min_quality), and the concurrency semaphore becomes an
	// admission controller — overload degrades budget (shedding
	// quality) instead of answering 503, which is reserved for
	// decisions clamped at the query's floor under heavy occupancy.
	// Requests carrying an explicit budget (body `budget` or `?frag=`)
	// bypass the controller and keep the classic 503-when-saturated
	// contract. nil keeps /search fully manual.
	SLO *slo.Controller
}

// docSeq assigns document oids for stream lines without an explicit
// oid. The sequence seeds itself from the cluster's highest live oid
// on first use, so a freshly restarted coordinator in front of
// long-lived nodes continues after the documents already indexed
// instead of silently reusing a live oid (which would merge two
// documents). A failed add may leave an unused gap in the sequence —
// harmless, since seeding reads the true maximum, never a count.
type docSeq struct {
	mu     sync.Mutex
	next   bat.OID
	seeded bool
}

func (s *docSeq) assign(ctx context.Context, c *dist.Cluster) (bat.OID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.seeded {
		max, err := c.MaxDocContext(ctx)
		if err != nil {
			return bat.NilOID, err
		}
		// Never move backwards: observe() may have recorded a higher
		// explicit oid whose add is still in flight on a node.
		if max > s.next {
			s.next = max
		}
		s.seeded = true
	}
	if s.next == ^bat.OID(0) {
		// An explicit oid took the top of the oid space; one more step
		// would wrap to NilOID.
		return bat.NilOID, errors.New("oid sequence exhausted")
	}
	s.next++
	return s.next, nil
}

// observe folds an explicit client-chosen oid into the sequence so a
// later auto-assign never reuses it.
func (s *docSeq) observe(doc bat.OID) {
	s.mu.Lock()
	if doc > s.next {
		s.next = doc
	}
	s.mu.Unlock()
}

// Coordinator is the central serving site: named search indexes, each
// a shared-nothing dist.Cluster of local and/or remote nodes.
type Coordinator struct {
	indexes map[string]*dist.Cluster
	seqs    map[string]*docSeq // auto-assigned doc oids per index
	cfg     CoordinatorConfig
	start   time.Time
	sem     *semaphore
	// reg holds every coordinator number: cfg.Metrics, or a private
	// registry when none is configured. /stats renders it either way.
	reg *obs.Registry

	// dl_coordinator_requests_total by op, and dl_coordinator_errors_total.
	searches, adds, queries, streams, errs *obs.Counter

	// engineMu guards cfg.Engine. /query executes and /add/stream
	// resolves owners under the read lock; /add/stream's conceptual
	// writes, which extend the engine's access paths (or rebuild them
	// for a repost), take the write lock. The paths are always built,
	// so a reader never writes.
	engineMu sync.RWMutex

	// queryLatency holds the /query end-to-end latency histogram, nil
	// without an engine.
	queryLatency *obs.Histogram

	// latency and quality hold the per-index /search histograms
	// (seconds / QualityEstimate.Value).
	latency map[string]*obs.Histogram
	quality map[string]*obs.Histogram

	// sloBudget and sloPredErr hold the per-index controller
	// histograms: chosen budgets and |achieved − predicted| latency.
	// nil maps without a controller.
	sloBudget  map[string]*obs.Histogram
	sloPredErr map[string]*obs.Histogram
}

// NewCoordinator builds a coordinator over named clusters. The map
// must contain at least one index; a nil cfg selects defaults.
//
// Document oids auto-assigned by /add/stream continue after the
// highest oid already on the nodes, so they survive a coordinator
// restart and coexist with explicit oids (as long as only one
// coordinator writes at a time).
func NewCoordinator(indexes map[string]*dist.Cluster, cfg *CoordinatorConfig) *Coordinator {
	co := &Coordinator{
		indexes: indexes,
		seqs:    make(map[string]*docSeq, len(indexes)),
		start:   time.Now(),
	}
	if cfg != nil {
		co.cfg = *cfg
	}
	if co.cfg.MaxBody <= 0 {
		co.cfg.MaxBody = DefaultMaxBody
	}
	if co.cfg.MaxConcurrent <= 0 {
		co.cfg.MaxConcurrent = DefaultMaxConcurrent
	}
	if co.cfg.MaxTopN <= 0 {
		co.cfg.MaxTopN = DefaultMaxTopN
	}
	for name := range indexes {
		co.seqs[name] = &docSeq{}
	}
	co.sem = newSemaphore(co.cfg.MaxConcurrent)
	co.instrument()
	return co
}

// instrument registers every coordinator number in co.reg.
func (co *Coordinator) instrument() {
	reg := co.cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	co.reg = reg
	reg.RegisterRuntimeGauges()
	const reqHelp = "Coordinator requests served, by operation."
	co.searches = reg.Counter("dl_coordinator_requests_total", reqHelp, obs.Labels("op", "search"))
	co.adds = reg.Counter("dl_coordinator_requests_total", reqHelp, obs.Labels("op", "add"))
	co.queries = reg.Counter("dl_coordinator_requests_total", reqHelp, obs.Labels("op", "query"))
	co.streams = reg.Counter("dl_coordinator_requests_total", reqHelp, obs.Labels("op", "add_stream"))
	if co.cfg.Engine != nil {
		co.queryLatency = reg.Histogram("dl_query_latency_seconds",
			"End-to-end conceptual /query latency.",
			"", obs.LatencyBounds())
	}
	co.errs = reg.Counter("dl_coordinator_errors_total",
		"Coordinator requests answered with an error status.", "")
	reg.CounterFunc("dl_coordinator_shed_total",
		"Requests shed with 503 because the concurrency semaphore was full.",
		"", co.sem.Shed)
	reg.GaugeFunc("dl_coordinator_in_flight",
		"Requests currently holding a concurrency-semaphore slot.",
		"", func() float64 { return float64(co.sem.InFlight()) })
	reg.GaugeFunc("dl_coordinator_waiting",
		"Requests blocked waiting for a concurrency-semaphore slot (adaptive admission only).",
		"", func() float64 { return float64(co.sem.Waiting()) })
	reg.GaugeFunc("dl_coordinator_max_concurrent",
		"The concurrency semaphore's limit.",
		"", func() float64 { return float64(co.sem.Limit()) })
	co.latency = make(map[string]*obs.Histogram, len(co.indexes))
	co.quality = make(map[string]*obs.Histogram, len(co.indexes))
	if ctl := co.cfg.SLO; ctl != nil {
		co.sloBudget = make(map[string]*obs.Histogram, len(co.indexes))
		co.sloPredErr = make(map[string]*obs.Histogram, len(co.indexes))
		budgetBounds := make([]float64, ctl.MaxBudget())
		for i := range budgetBounds {
			budgetBounds[i] = float64(i + 1)
		}
		for name := range co.indexes {
			ix, lbl := name, obs.Labels("index", name)
			cnt := func(f func(slo.Counters) uint64) func() uint64 {
				return func() uint64 { return f(ctl.Counters(ix)) }
			}
			reg.CounterFunc("dl_slo_decisions_total",
				"Budget-controller decisions taken, by index.",
				lbl, cnt(func(c slo.Counters) uint64 { return c.Decisions }))
			reg.CounterFunc("dl_slo_degraded_total",
				"Decisions that chose a below-full-quality budget, by index.",
				lbl, cnt(func(c slo.Counters) uint64 { return c.Degraded }))
			reg.CounterFunc("dl_slo_overrides_total",
				"Requests that overrode the SLO target via slo_ms, by index.",
				lbl, cnt(func(c slo.Counters) uint64 { return c.Overrides }))
			reg.CounterFunc("dl_slo_floor_hits_total",
				"Decisions clamped upward by the quality floor, by index.",
				lbl, cnt(func(c slo.Counters) uint64 { return c.FloorHits }))
			reg.CounterFunc("dl_slo_rejected_total",
				"Queries refused because the quality floor left nothing to shed, by index.",
				lbl, cnt(func(c slo.Counters) uint64 { return c.Rejected }))
			reg.CounterFunc("dl_slo_probes_total",
				"Decisions that explored one budget above the choice to refresh stale curve points, by index.",
				lbl, cnt(func(c slo.Counters) uint64 { return c.Probes }))
			reg.GaugeFunc("dl_slo_shed_level",
				"Admission-pressure shed level of the latest decision, by index.",
				lbl, func() float64 { return float64(ctl.Counters(ix).ShedLevel) })
			co.sloBudget[name] = reg.Histogram("dl_slo_budget",
				"Fragment budgets the controller chose, by index.",
				lbl, budgetBounds)
			co.sloPredErr[name] = reg.Histogram("dl_slo_prediction_error_seconds",
				"Absolute error of the curve's latency prediction, by index.",
				lbl, obs.LatencyBounds())
		}
	}
	for name, c := range co.indexes {
		co.latency[name] = reg.Histogram("dl_search_latency_seconds",
			"End-to-end /search latency by index.",
			obs.Labels("index", name), obs.LatencyBounds())
		co.quality[name] = reg.Histogram("dl_search_quality",
			"Served quality estimate (QualityEstimate.Value) by index.",
			obs.Labels("index", name), obs.QualityBounds())
		cl := c
		tel := func(f func(dist.Telemetry) uint64) func() uint64 {
			return func() uint64 { return f(cl.Telemetry()) }
		}
		lbl := obs.Labels("index", name)
		reg.CounterFunc("dl_cluster_searches_total",
			"Searches fanned out over the cluster, by index.",
			lbl, tel(func(t dist.Telemetry) uint64 { return t.Searches }))
		reg.CounterFunc("dl_cluster_failovers_total",
			"Replica failovers the routed calls needed, by index.",
			lbl, tel(func(t dist.Telemetry) uint64 { return t.Failovers }))
		reg.CounterFunc("dl_cluster_dropped_nodes_total",
			"Partitions dropped from merged rankings, by index.",
			lbl, tel(func(t dist.Telemetry) uint64 { return t.Dropped }))
		// Postings the cluster's cut-offs admitted per idf fragment. The
		// fragments are only known once budgeted searches ran, so the
		// series register at scrape time (registration is idempotent
		// per label set). A request may cut finer than the default
		// granularity (?frags=), so fragments past the default's last
		// fold into it: an index exports at most that many series.
		index := name
		labels := co.cfg.Frags
		if labels <= 0 {
			labels = ir.DefaultFragments
		}
		reg.OnScrape(func() {
			for f := range min(len(cl.FragmentPostings()), labels) {
				reg.CounterFunc("dl_cluster_frag_postings_total",
					"Global df of the stems budgeted searches admitted, per idf fragment (frag 0 = rarest terms; the last label also counts every finer fragment past it): the postings the cut-off sent the nodes to scan.",
					obs.Labels("index", index, "frag", strconv.Itoa(f)), func() uint64 {
						return foldedFragPostings(cl.FragmentPostings(), f, labels)
					})
			}
		})
		const resyncHelp = "Replicas healed from a group member, by index and by what was shipped: the op-log suffix (delta) or the whole snapshot (full)."
		reg.CounterFunc("dl_cluster_resyncs_total", resyncHelp,
			obs.Labels("index", name, "kind", "delta"), tel(func(t dist.Telemetry) uint64 { return t.ResyncsDelta }))
		reg.CounterFunc("dl_cluster_resyncs_total", resyncHelp,
			obs.Labels("index", name, "kind", "full"), tel(func(t dist.Telemetry) uint64 { return t.ResyncsFull }))
		reg.CounterFunc("dl_cluster_divergence_detected_total",
			"Divergences anti-entropy checksum comparison caught, by index.",
			lbl, tel(func(t dist.Telemetry) uint64 { return t.DivergenceDetected }))
		reg.CounterFunc("dl_cluster_resync_bytes_total",
			"Bytes resyncs shipped (delta and full), by index.",
			lbl, tel(func(t dist.Telemetry) uint64 { return t.ResyncBytes }))
	}
}

// Handler returns the coordinator's HTTP handler: POST /search,
// POST /query, POST /add/stream (the only write endpoint),
// POST /anti-entropy, GET /stats, GET /healthz.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/search", co.search)
	mux.HandleFunc("/query", co.query)
	mux.HandleFunc("/add/stream", co.addStream)
	mux.HandleFunc("/stats", co.statsHandler)
	mux.HandleFunc("/anti-entropy", co.antiEntropy)
	// The health probe bypasses the semaphore: a saturated
	// coordinator is busy, not dead, and must not be ejected by its
	// load balancer.
	outer := http.NewServeMux()
	outer.HandleFunc(dist.PathHealthz, co.healthz)
	// /metrics also bypasses the semaphore: a saturated coordinator is
	// precisely when its telemetry matters most.
	if co.cfg.Metrics != nil {
		outer.Handle("/metrics", co.cfg.Metrics.Handler())
	}
	// Adaptive serving moves /search outside the semaphore wrapper: the
	// handler does its own admission (blocking acquire + quality
	// shedding) instead of the wrapper's immediate 503.
	if co.cfg.SLO != nil {
		outer.HandleFunc("/search", co.search)
	}
	outer.Handle("/", co.sem.wrap(mux))
	return outer
}

// errMissingIndex is the lookup failure of a request that names no
// index while several are served.
var errMissingIndex = errors.New("missing index name")

// index maps a request's index name to its cluster; an empty name
// selects the sole index when exactly one is served. The error is the
// reason the name resolves to nothing — errMissingIndex or an unknown
// index — for the caller to answer with: a status on /search, the
// line's record on /add/stream.
func (co *Coordinator) index(name string) (*dist.Cluster, string, error) {
	if name == "" {
		if len(co.indexes) == 1 {
			for n, c := range co.indexes {
				return c, n, nil
			}
		}
		return nil, "", errMissingIndex
	}
	c, ok := co.indexes[name]
	if !ok {
		return nil, "", errors.New("unknown index: " + name)
	}
	return c, name, nil
}

// foldedFragPostings is series f of an index's labels fragment
// series: fragment f's admitted postings, and for the last series
// those of every fragment from f on.
func foldedFragPostings(fp []uint64, f, labels int) uint64 {
	if f >= len(fp) {
		return 0
	}
	if f < labels-1 {
		return fp[f]
	}
	sum := uint64(0)
	for _, v := range fp[f:] {
		sum += v
	}
	return sum
}

// SearchRequest is the body of POST /search. Frags, Budget and
// MinQuality select a fragment-budgeted evaluation plan (defaults come
// from the coordinator's config); the same knobs are also accepted as
// URL query parameters — `/search?frag=2` — which take precedence, so
// a curl user can sweep the cost/quality trade-off without editing the
// body.
type SearchRequest struct {
	Index string `json:"index,omitempty"`
	Query string `json:"query"`
	N     int    `json:"n"`
	// Frags is how many idf-descending fragments the cut-off splits the
	// vocabulary into (0 = the default; clamped to the number of df
	// classes). Any value is free per request. Absent fields keep the
	// coordinator's
	// configured defaults; present fields override them — including
	// explicit zeros, so "budget": 0 requests the exact search even
	// when the coordinator defaults to a budget.
	Frags *int `json:"frags,omitempty"`
	// Budget is how many leading idf-descending fragments the search
	// evaluates; 0 means all — the exact search.
	Budget *int `json:"budget,omitempty"`
	// MinQuality is the quality floor in [0, 1]; 0 disables it.
	MinQuality *float64 `json:"min_quality,omitempty"`
	// SLOMs overrides the coordinator's target latency SLO for this
	// request, in milliseconds (adaptive coordinators only; also
	// accepted as `?slo_ms=`). 0 means "no latency target": only
	// pressure shedding applies.
	SLOMs *float64 `json:"slo_ms,omitempty"`
}

// SearchResponse answers POST /search. Complete is false when the
// ranking is degraded in either way the cluster models: partitions
// were dropped (the ranking covers the responsive partitions only)
// and/or it was scored with stale global statistics. Failovers counts
// replica failovers this search needed — a non-zero count with
// Complete still true is the replication subsystem absorbing a node
// failure without degrading the ranking. Quality is the cluster-wide
// estimate of a budgeted search (value 1 for exact searches).
type SearchResponse struct {
	Index     string            `json:"index"`
	Results   []dist.ResultJSON `json:"results"`
	Quality   dist.QualityJSON  `json:"quality"`
	Dropped   []int             `json:"dropped,omitempty"`
	Failovers int               `json:"failovers,omitempty"`
	// Diverged lists partitions answered by a replica known to be
	// missing committed writes — the ranking may lack documents.
	Diverged   []int `json:"diverged,omitempty"`
	StaleStats bool  `json:"stale_stats,omitempty"`
	Complete   bool  `json:"complete"`
}

func (co *Coordinator) search(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	// Every /search gets a trace: a client-supplied X-DL-Request is
	// honoured (so an upstream proxy can stitch its own trace through),
	// otherwise a fresh ID is generated. The ID is echoed in the
	// response header and propagated to every node RPC this search
	// fans out to, so coordinator- and node-side slow-query log lines
	// for one query join on it.
	tr := obs.NewTrace(r.Header.Get(obs.HeaderRequestID))
	w.Header().Set(obs.HeaderRequestID, tr.ID)
	parseStart := time.Now()
	var req SearchRequest
	if !readJSON(w, r, co.cfg.MaxBody, &req) {
		co.errs.Add(1)
		return
	}
	if req.Query == "" {
		co.errs.Add(1)
		fail(w, http.StatusBadRequest, "missing query")
		return
	}
	if req.N <= 0 {
		co.errs.Add(1)
		fail(w, http.StatusBadRequest, "n must be positive")
		return
	}
	if req.N > co.cfg.MaxTopN {
		req.N = co.cfg.MaxTopN
	}
	plan, explicitBudget, ok := co.buildPlan(w, r, &req)
	if !ok {
		co.errs.Add(1)
		return
	}
	cluster, name, err := co.index(req.Index)
	if err != nil {
		co.errs.Add(1)
		status := http.StatusNotFound
		if errors.Is(err, errMissingIndex) {
			status = http.StatusBadRequest
		}
		fail(w, status, err.Error())
		return
	}
	tr.AddSpan("parse", parseStart)
	ctx := obs.NewContext(r.Context(), tr)
	if co.cfg.SearchTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, co.cfg.SearchTimeout)
		defer cancel()
	}
	// Adaptive admission: Handler routed /search around the semaphore
	// wrapper, so this handler claims the slot itself — deciding a
	// (possibly degraded) budget first, blocking for capacity instead
	// of 503ing, and rejecting only decisions clamped at the quality
	// floor under heavy occupancy. Requests that pinned their own
	// budget keep the classic contract: immediate 503 when saturated.
	var dec *slo.Decision
	if ctl := co.cfg.SLO; ctl != nil {
		admitStart := time.Now()
		if explicitBudget {
			if !co.sem.TryAcquire() {
				co.errs.Add(1)
				fail(w, http.StatusServiceUnavailable, "server at capacity")
				return
			}
		} else {
			target, ok := co.sloTarget(w, r, &req, ctl, name)
			if !ok {
				co.errs.Add(1)
				return
			}
			occupancy := float64(co.sem.InFlight()+co.sem.Waiting()+1) / float64(co.sem.Limit())
			d := ctl.Decide(name, target, occupancy, queryFloor(cluster, req.Query, plan))
			dec = &d
			if d.Reject {
				co.errs.Add(1)
				fail(w, http.StatusServiceUnavailable, "server at capacity: quality floor reached")
				return
			}
			plan.Budget = d.Budget
			if !co.sem.Acquire(ctx) {
				co.errs.Add(1)
				fail(w, http.StatusServiceUnavailable, "timed out waiting for capacity")
				return
			}
		}
		defer co.sem.Release()
		tr.AddSpan("admit", admitStart)
	}
	sr, err := cluster.SearchPlan(ctx, req.Query, plan)
	if err != nil {
		co.errs.Add(1)
		co.observeSearch(name, tr, &req, nil, dec)
		fail(w, http.StatusBadGateway, "cluster unavailable: "+err.Error())
		return
	}
	co.searches.Add(1)
	writeJSON(w, http.StatusOK, SearchResponse{
		Index:      name,
		Results:    dist.ResultsToJSON(sr.Results),
		Quality:    dist.QualityToJSON(sr.Quality),
		Dropped:    sr.Dropped,
		Failovers:  sr.FailoverTotal(),
		Diverged:   sr.Diverged,
		StaleStats: sr.StaleStats,
		Complete:   sr.Complete(),
	})
	co.observeSearch(name, tr, &req, sr, dec)
}

// queryFloor is the smallest fragment budget at which the cut-off's
// a-priori estimate of the query meets the plan's quality floor, under
// the statistics the cluster last saw: the budget below which the
// controller may not shed. 1 when the plan has no floor or the cluster
// cannot estimate yet; the search's own cut re-applies the floor under
// refreshed statistics either way.
func queryFloor(cluster *dist.Cluster, query string, plan ir.EvalPlan) int {
	if plan.MinQuality <= 0 {
		return 1
	}
	est, ok := cluster.Estimate(query, ir.EvalPlan{Frags: plan.Frags, Budget: 1, MinQuality: plan.MinQuality})
	if !ok {
		return 1
	}
	return est.FragsUsed
}

// sloTarget resolves the request's effective latency target: the
// per-request slo_ms override (query parameter over body field) or
// the controller's configured SLO. Overrides are validated (400 on a
// malformed or negative value) and counted per index.
func (co *Coordinator) sloTarget(w http.ResponseWriter, r *http.Request, req *SearchRequest, ctl *slo.Controller, name string) (time.Duration, bool) {
	target := ctl.Target()
	override := false
	if req.SLOMs != nil {
		d, ok := msDuration(*req.SLOMs)
		if !ok {
			fail(w, http.StatusBadRequest, "slo_ms must be a finite non-negative number of milliseconds")
			return 0, false
		}
		target, override = d, true
	}
	if v := r.URL.Query().Get("slo_ms"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		d, ok := msDuration(f)
		if err != nil || !ok {
			fail(w, http.StatusBadRequest, "bad slo_ms parameter: "+v)
			return 0, false
		}
		target, override = d, true
	}
	if override {
		ctl.RecordOverride(name)
	}
	return target, true
}

// msDuration converts milliseconds to a duration; it reports false for
// a negative or non-finite value and for one past time.Duration's
// range (strconv.ParseFloat accepts "NaN", "Inf" and "1e300").
func msDuration(ms float64) (time.Duration, bool) {
	if !(ms >= 0 && ms*float64(time.Millisecond) < math.MaxInt64) {
		return 0, false
	}
	return time.Duration(ms * float64(time.Millisecond)), true
}

// observeSearch records one finished /search into the per-index
// latency and quality histograms and, when configured, the slow-query
// log. sr is nil for a failed search (latency still observed). dec is
// the budget controller's decision for adaptively served queries: the
// chosen budget and the prediction error land in the dl_slo_*
// histograms, and the whole decision in the slow-query record. Every
// budgeted search, adaptive or explicit, teaches the index's curve
// the same whole-search latency the predictions are scored against.
func (co *Coordinator) observeSearch(name string, tr *obs.Trace, req *SearchRequest, sr *dist.SearchResult, dec *slo.Decision) {
	took := tr.Elapsed()
	co.latency[name].Observe(took.Seconds())
	if ctl := co.cfg.SLO; ctl != nil && sr != nil && sr.Quality.FragsTotal > 0 {
		ctl.Curve(name).ObserveCost(sr.Quality.FragsUsed, took.Seconds())
	}
	rec := obs.SlowQueryRecord{
		Role:  "coordinator",
		Index: name,
		Query: req.Query,
	}
	if sr != nil {
		rec.Quality = sr.Quality.Value()
		rec.Results = len(sr.Results)
		co.quality[name].Observe(rec.Quality)
	}
	if dec != nil {
		co.sloBudget[name].Observe(float64(dec.Budget))
		if dec.Predicted > 0 {
			co.sloPredErr[name].Observe(math.Abs((took - dec.Predicted).Seconds()))
		}
		rec.SLO = &obs.SLOJSON{
			Budget:      dec.Budget,
			PredictedMS: float64(dec.Predicted) / float64(time.Millisecond),
			AchievedMS:  float64(took) / float64(time.Millisecond),
			Confidence:  dec.Confidence,
			ShedLevel:   dec.ShedLevel,
			Degraded:    dec.Degraded,
			FloorHit:    dec.FloorHit,
		}
	}
	co.cfg.SlowQuery.Record(tr, rec)
}

// buildPlan folds the config defaults, the request body and the URL
// query parameters (highest precedence) into the evaluation plan,
// answering 400 on malformed parameters itself. Body fields are held
// to the same validity rules as their query-parameter spellings.
// explicit reports whether the request pinned the budget itself (body
// `budget` or `?frag=`) — such requests bypass the budget controller.
func (co *Coordinator) buildPlan(w http.ResponseWriter, r *http.Request, req *SearchRequest) (plan ir.EvalPlan, explicit, ok bool) {
	plan, ok = co.buildPlanInner(w, r, req)
	explicit = req.Budget != nil || r.URL.Query().Get("frag") != ""
	return plan, explicit, ok
}

func (co *Coordinator) buildPlanInner(w http.ResponseWriter, r *http.Request, req *SearchRequest) (ir.EvalPlan, bool) {
	plan := ir.EvalPlan{
		N:          req.N,
		Frags:      co.cfg.Frags,
		Budget:     co.cfg.FragBudget,
		MinQuality: co.cfg.MinQuality,
	}
	if req.Frags != nil {
		if *req.Frags < 0 {
			fail(w, http.StatusBadRequest, "frags must be non-negative")
			return plan, false
		}
		plan.Frags = *req.Frags
	}
	if req.Budget != nil {
		if *req.Budget < 0 {
			fail(w, http.StatusBadRequest, "budget must be non-negative")
			return plan, false
		}
		plan.Budget = *req.Budget
	}
	if req.MinQuality != nil {
		if *req.MinQuality < 0 || *req.MinQuality > 1 {
			fail(w, http.StatusBadRequest, "min_quality must be in [0, 1]")
			return plan, false
		}
		plan.MinQuality = *req.MinQuality
	}
	q := r.URL.Query()
	intParam := func(name string, dst *int) bool {
		v := q.Get(name)
		if v == "" {
			return true
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			fail(w, http.StatusBadRequest, "bad "+name+" parameter: "+v)
			return false
		}
		*dst = n
		return true
	}
	if !intParam("frag", &plan.Budget) || !intParam("frags", &plan.Frags) {
		return plan, false
	}
	if v := q.Get("min_quality"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f >= 0 && f <= 1) { // NaN fails too
			fail(w, http.StatusBadRequest, "bad min_quality parameter: "+v)
			return plan, false
		}
		plan.MinQuality = f
	}
	return plan, true
}

// StatsResponse answers GET /stats: what only a live probe or a
// learned model knows — each index's replica table and SLO curve —
// beside Metrics, the JSON view of the registry GET /metrics serves.
// Every counter, gauge and histogram of the coordinator is in
// Metrics, and nowhere else.
type StatsResponse struct {
	UptimeSeconds float64               `json:"uptime_seconds"`
	Indexes       map[string]IndexStats `json:"indexes"`
	Metrics       []obs.Series          `json:"metrics"`
}

// IndexStats describes one served index: its partitions and their
// replicas' health. Error is set when the load read was partial (a
// whole replica group was unreachable): Docs then undercounts and must
// not be read as data loss.
type IndexStats struct {
	Nodes     int   `json:"nodes"` // partitions (replica groups)
	Docs      int   `json:"docs"`
	NodeLoads []int `json:"node_loads"` // per partition, replicas counted once
	// Groups reports every replica of every partition: reachability,
	// routing health and snapshot age.
	Groups []GroupStats `json:"groups,omitempty"`
	// SLO is the budget controller's configuration, the coordinator's
	// default quality floor and the learned latency curve for this
	// index. Absent on non-adaptive coordinators.
	SLO   *slo.IndexStats `json:"slo,omitempty"`
	Error string          `json:"error,omitempty"`
}

// GroupStats is one partition's replica set.
type GroupStats struct {
	Partition int            `json:"partition"`
	Replicas  []ReplicaStats `json:"replicas"`
}

// ReplicaStats is one replica's probe result: its load (when
// reachable), routing health, and how old its last snapshot is.
type ReplicaStats struct {
	Docs      int    `json:"docs"`
	MaxDoc    uint64 `json:"max_doc"`
	Reachable bool   `json:"reachable"`
	Healthy   bool   `json:"healthy"` // last call succeeded AND not diverged
	// Diverged marks a replica whose copy differs from its group's
	// committed state (failed write or anti-entropy checksum mismatch);
	// it is quarantined until resynced or restored.
	Diverged  bool   `json:"diverged,omitempty"`
	Fails     uint64 `json:"fails,omitempty"`
	LastError string `json:"last_error,omitempty"`
	// Checksum is the replica's content checksum — replicas of a group
	// serving identical documents report identical checksums, which is
	// exactly what anti-entropy verifies.
	Checksum string `json:"checksum,omitempty"`
	// SnapshotUnix / SnapshotAgeSeconds report durability lag: when the
	// replica last persisted a snapshot (0 / absent = never).
	SnapshotUnix       int64   `json:"snapshot_unix,omitempty"`
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds,omitempty"`
	// ResyncUnix / ResyncAgeSeconds report when the replica last healed
	// from a group member (absent = never).
	ResyncUnix       int64   `json:"resync_unix,omitempty"`
	ResyncAgeSeconds float64 `json:"resync_age_seconds,omitempty"`
	// LogPos is the replica's op-log position (operations in its
	// history); LogLag is how many operations it trails the most
	// advanced reachable member of its group — 0 for a replica in
	// step, and the size of the delta a resync would ship otherwise.
	LogPos uint64 `json:"log_pos,omitempty"`
	LogLag uint64 `json:"log_lag,omitempty"`
	// RPCCalls / RPCAvgMS are the routed calls this coordinator made
	// to the replica and their mean latency — per-replica visibility
	// into which member of a group is slow.
	RPCCalls uint64  `json:"rpc_calls,omitempty"`
	RPCAvgMS float64 `json:"rpc_avg_ms,omitempty"`
	// WireCodec is the transport this coordinator effectively speaks to
	// the replica — "wire" (persistent connection) or "binary" (frames
	// as HTTP bodies); absent for in-process replicas. The byte
	// counters cover request and response bodies and frames over every
	// endpoint, so a transport rollout is verifiable per replica from
	// /stats alone.
	WireCodec    string `json:"wire_codec,omitempty"`
	WireBytesIn  uint64 `json:"wire_bytes_in,omitempty"`
	WireBytesOut uint64 `json:"wire_bytes_out,omitempty"`
}

// wireInfoNode is the optional interface a cluster node implements to
// report its client-side transport and traffic (dist.RemoteNode does).
type wireInfoNode interface {
	WireInfo() (codec string, bytesIn, bytesOut uint64)
}

func (co *Coordinator) statsHandler(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	resp := StatsResponse{
		UptimeSeconds: time.Since(co.start).Seconds(),
		Indexes:       make(map[string]IndexStats, len(co.indexes)),
	}
	names := make([]string, 0, len(co.indexes))
	for name := range co.indexes {
		names = append(names, name)
	}
	sort.Strings(names)
	now := time.Now()
	for _, name := range names {
		c := co.indexes[name]
		st := IndexStats{
			Nodes:     c.Size(),
			NodeLoads: make([]int, c.Size()),
		}
		if ctl := co.cfg.SLO; ctl != nil {
			s := ctl.Stats(name)
			s.MinQuality = co.cfg.MinQuality
			st.SLO = &s
		}
		// One probe of every replica serves both views: the per-replica
		// report AND the per-partition loads (replicas counted once) —
		// /stats never routes through the failover path nor touches
		// routing health. The partition's doc count comes from the first
		// reachable HEALTHY replica, matching the routing layer's
		// preference: a freshly wiped or diverged replica must not make
		// the partition's committed documents look lost while a healthy
		// member holds them all. Only a group with no healthy reachable
		// member falls back to whatever replica answers.
		for g, reps := range c.ReplicaInfoContext(r.Context()) {
			gs := GroupStats{Partition: g, Replicas: make([]ReplicaStats, len(reps))}
			countFrom := -1
			for ri, info := range reps {
				if info.Err != nil {
					continue
				}
				if info.Health.Healthy() {
					countFrom = ri
					break
				}
				if countFrom == -1 {
					countFrom = ri
				}
			}
			// The group's most advanced reachable position defines each
			// member's replication lag.
			var maxPos uint64
			for _, info := range reps {
				if info.Err == nil && info.Load.LogPos > maxPos {
					maxPos = info.Load.LogPos
				}
			}
			counted := false
			for ri, info := range reps {
				rs := ReplicaStats{
					Reachable: info.Err == nil,
					Healthy:   info.Health.Healthy(),
					Diverged:  info.Health.Diverged,
					Fails:     info.Health.Fails,
					LastError: info.Health.LastErr,
					RPCCalls:  info.Health.RPCCalls,
				}
				if info.Health.RPCCalls > 0 {
					rs.RPCAvgMS = float64(info.Health.RPCTotalUS) / float64(info.Health.RPCCalls) / 1e3
				}
				if wn, ok := c.ReplicaAt(g, ri).(wireInfoNode); ok {
					rs.WireCodec, rs.WireBytesIn, rs.WireBytesOut = wn.WireInfo()
				}
				if info.Health.LastResyncUnix > 0 {
					rs.ResyncUnix = info.Health.LastResyncUnix
					rs.ResyncAgeSeconds = now.Sub(time.Unix(info.Health.LastResyncUnix, 0)).Seconds()
				}
				if info.Err == nil {
					rs.Docs = info.Load.Docs
					rs.MaxDoc = uint64(info.Load.MaxDoc)
					rs.Checksum = info.Load.Checksum
					rs.LogPos = info.Load.LogPos
					rs.LogLag = maxPos - info.Load.LogPos
					if info.Load.SnapshotUnix > 0 {
						rs.SnapshotUnix = info.Load.SnapshotUnix
						rs.SnapshotAgeSeconds = now.Sub(time.Unix(info.Load.SnapshotUnix, 0)).Seconds()
					}
					if ri == countFrom {
						st.NodeLoads[g] = info.Load.Docs
						st.Docs += info.Load.Docs
						counted = true
					}
				} else if rs.LastError == "" {
					rs.LastError = info.Err.Error()
				}
				gs.Replicas[ri] = rs
			}
			if !counted && st.Error == "" {
				st.Error = fmt.Sprintf("partition %d unreachable: doc count is partial", g)
			}
			st.Groups = append(st.Groups, gs)
		}
		resp.Indexes[name] = st
	}
	// Read last, so the view includes whatever the probe above counted.
	resp.Metrics = co.reg.Series()
	writeJSON(w, http.StatusOK, resp)
}

// AntiEntropyResponse answers POST /anti-entropy: one pass's outcome
// per index.
type AntiEntropyResponse struct {
	Indexes map[string]AntiEntropyIndexJSON `json:"indexes"`
}

// AntiEntropyIndexJSON is one index's anti-entropy pass summary.
type AntiEntropyIndexJSON struct {
	Detected int                      `json:"divergence_detected"`
	Cleared  int                      `json:"cleared"`
	Resynced int                      `json:"resynced"`
	Replicas []AntiEntropyReplicaJSON `json:"replicas"`
}

// AntiEntropyReplicaJSON is one replica's outcome of the pass.
type AntiEntropyReplicaJSON struct {
	Partition int    `json:"partition"`
	Replica   int    `json:"replica"`
	Docs      int    `json:"docs"`
	Checksum  string `json:"checksum,omitempty"`
	Diverged  bool   `json:"diverged,omitempty"`
	Cleared   bool   `json:"cleared,omitempty"`
	Resynced  bool   `json:"resynced,omitempty"`
	Error     string `json:"error,omitempty"`
}

// antiEntropy runs one on-demand anti-entropy pass over every served
// index (or the one named by ?index=): replica checksums are compared
// within each replica group and divergent replicas are resynced from
// their group, unless ?repair=false limits the pass to detection.
func (co *Coordinator) antiEntropy(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	repair := true
	if v := r.URL.Query().Get("repair"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			fail(w, http.StatusBadRequest, "bad repair parameter: "+v)
			return
		}
		repair = b
	}
	clusters := co.indexes
	if name := r.URL.Query().Get("index"); name != "" {
		c, _, err := co.index(name)
		if err != nil {
			fail(w, http.StatusNotFound, err.Error())
			return
		}
		clusters = map[string]*dist.Cluster{name: c}
	}
	resp := AntiEntropyResponse{Indexes: make(map[string]AntiEntropyIndexJSON, len(clusters))}
	for name, c := range clusters {
		rep := c.CheckReplicas(r.Context(), repair)
		ij := AntiEntropyIndexJSON{
			Detected: rep.Detected,
			Cleared:  rep.Cleared,
			Resynced: rep.Resynced,
			Replicas: make([]AntiEntropyReplicaJSON, len(rep.Replicas)),
		}
		for i, chk := range rep.Replicas {
			rj := AntiEntropyReplicaJSON{
				Partition: chk.Partition,
				Replica:   chk.Replica,
				Docs:      chk.Load.Docs,
				Checksum:  chk.Load.Checksum,
				Diverged:  chk.Diverged,
				Cleared:   chk.Cleared,
				Resynced:  chk.Resynced,
			}
			if chk.Err != nil {
				rj.Error = chk.Err.Error()
			}
			ij.Replicas[i] = rj
		}
		resp.Indexes[name] = ij
	}
	writeJSON(w, http.StatusOK, resp)
}

func (co *Coordinator) healthz(w http.ResponseWriter, r *http.Request) {
	names := make([]string, 0, len(co.indexes))
	for name := range co.indexes {
		names = append(names, name)
	}
	sort.Strings(names)
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "indexes": names})
}
