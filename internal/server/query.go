package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"dlsearch/internal/bat"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/obs"
	"dlsearch/internal/query"
)

// QueryRequest is the body of POST /query: one query in the paper's
// language (SELECT ... FROM ... WHERE ... LIMIT ...), evaluated
// against the coordinator's conceptual engine with every contains
// predicate fanned out over the cluster named by the predicate's
// "Class.attr" key. Frags/Budget/MinQuality override the
// coordinator's default evaluation plan for the unrestricted contains
// fan-outs, exactly as they do on /search; predicates under an
// a-priori conceptual restriction are always evaluated exactly.
type QueryRequest struct {
	Query      string   `json:"query"`
	Frags      *int     `json:"frags,omitempty"`
	Budget     *int     `json:"budget,omitempty"`
	MinQuality *float64 `json:"min_quality,omitempty"`
	// DisableRestriction turns the paper's a-priori optimization off
	// (rank the whole collection, filter late) — the experiment knob.
	DisableRestriction bool `json:"disable_restriction,omitempty"`
}

// ShotJSON is one matched video shot of a query row.
type ShotJSON struct {
	Begin   int  `json:"begin"`
	End     int  `json:"end"`
	Tennis  bool `json:"tennis"`
	Netplay bool `json:"netplay"`
}

// QueryRowJSON is one ranked result binding.
type QueryRowJSON struct {
	Values []string   `json:"values"`
	Score  float64    `json:"score"`
	Shots  []ShotJSON `json:"shots,omitempty"`
}

// QueryResponse answers POST /query. The degradation fields aggregate
// over every cluster fan-out the query's contains predicates needed
// (different predicates may hit different clusters, so partitions are
// counted, not listed): Complete is false when any fan-out dropped a
// partition, was answered by a diverged replica, or ranked under
// stale global statistics.
type QueryResponse struct {
	Columns    []string         `json:"columns"`
	Rows       []QueryRowJSON   `json:"rows"`
	Quality    dist.QualityJSON `json:"quality"`
	Dropped    int              `json:"dropped,omitempty"`
	Failovers  int              `json:"failovers,omitempty"`
	Diverged   int              `json:"diverged,omitempty"`
	StaleStats bool             `json:"stale_stats,omitempty"`
	Complete   bool             `json:"complete"`
}

// clusterErr marks a Rank failure caused by cluster unavailability, so
// the handler can answer 502 for it and 400 for semantic query errors.
type clusterErr struct{ err error }

func (e *clusterErr) Error() string { return e.err.Error() }
func (e *clusterErr) Unwrap() error { return e.err }

// clusterRanker implements query.ContentRanker over the coordinator's
// clusters: a contains predicate on "Class.attr" fans out over the
// index of that name through the exact machinery /search uses (plans,
// budgets, failover, tracing, wire codec).
//
// Predicates under an a-priori candidate restriction are evaluated by
// ranking the whole collection under the same plan and filtering the
// merged ranking to the candidates. That is byte-identical to the
// engine's local restricted ranking: per-document scores and the
// quality estimate are independent of the candidate set, and the
// cluster merge and the local restricted top-n share one comparator
// (score desc, doc asc) — restricting before or after ranking selects
// the same documents with the same scores.
type clusterRanker struct {
	co   *Coordinator
	ctx  context.Context
	plan ir.EvalPlan // every fan-out's plan; N set per call

	counts map[string]int   // collection sizes, by index key
	errs   map[string]error // Collection probe failures, surfaced by Rank

	// Aggregated degradation across every fan-out of one query.
	dropped    int
	failovers  int
	diverged   int
	staleStats bool
}

func newClusterRanker(co *Coordinator, ctx context.Context, plan ir.EvalPlan) *clusterRanker {
	return &clusterRanker{
		co: co, ctx: ctx, plan: plan,
		counts: map[string]int{},
		errs:   map[string]error{},
	}
}

// Collection implements query.ContentRanker. A probe failure is
// remembered and surfaced by the following Rank call, which can
// return an error.
func (cr *clusterRanker) Collection(key string) (int, bool) {
	cluster := cr.co.indexes[key]
	if cluster == nil {
		return 0, false
	}
	if n, ok := cr.counts[key]; ok {
		return n, true
	}
	infos, err := cluster.NodeInfoContext(cr.ctx)
	if err != nil {
		cr.errs[key] = err
		return 0, true
	}
	n := 0
	for _, l := range infos {
		n += l.Docs
	}
	cr.counts[key] = n
	return n, true
}

// Rank implements query.ContentRanker.
func (cr *clusterRanker) Rank(key, text string, n int, candidates map[bat.OID]bool) ([]ir.Result, ir.QualityEstimate, error) {
	if err := cr.errs[key]; err != nil {
		return nil, ir.QualityEstimate{}, &clusterErr{fmt.Errorf("index %s: %w", key, err)}
	}
	cluster := cr.co.indexes[key]
	if cluster == nil {
		return nil, ir.QualityEstimate{}, fmt.Errorf("query: no cluster serves index %s", key)
	}
	if n <= 0 {
		return nil, ir.QualityEstimate{}, nil
	}
	plan := cr.plan
	plan.N = n
	if candidates != nil {
		// Rank the whole collection; the merged ranking is filtered to
		// the candidates below.
		plan.N = max(n, cr.counts[key])
	}
	sr, err := cluster.SearchPlan(cr.ctx, text, plan)
	if err != nil {
		return nil, ir.QualityEstimate{}, &clusterErr{fmt.Errorf("index %s: %w", key, err)}
	}
	cr.dropped += len(sr.Dropped)
	cr.failovers += sr.FailoverTotal()
	cr.diverged += len(sr.Diverged)
	cr.staleStats = cr.staleStats || sr.StaleStats
	res := sr.Results
	if candidates != nil {
		kept := make([]ir.Result, 0, n)
		for _, r := range res {
			if candidates[r.Doc] {
				kept = append(kept, r)
				if len(kept) == n {
					break
				}
			}
		}
		res = kept
	}
	return res, sr.Quality, nil
}

// query serves POST /query: parse the conceptual query, execute its
// structural/conceptual/event predicates against the engine, and fan
// the contains predicates over the clusters.
func (co *Coordinator) query(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	tr := obs.NewTrace(r.Header.Get(obs.HeaderRequestID))
	w.Header().Set(obs.HeaderRequestID, tr.ID)
	if co.cfg.Engine == nil {
		co.errs.Add(1)
		fail(w, http.StatusNotFound, "no conceptual engine configured")
		return
	}
	parseStart := time.Now()
	var req QueryRequest
	if !readJSON(w, r, co.cfg.MaxBody, &req) {
		co.errs.Add(1)
		return
	}
	if req.Query == "" {
		co.errs.Add(1)
		fail(w, http.StatusBadRequest, "missing query")
		return
	}
	q, err := query.Parse(req.Query)
	if err != nil {
		co.errs.Add(1)
		fail(w, http.StatusBadRequest, err.Error())
		return
	}
	plan := ir.EvalPlan{
		Frags:      co.cfg.Frags,
		Budget:     co.cfg.FragBudget,
		MinQuality: co.cfg.MinQuality,
	}
	if req.Frags != nil {
		if *req.Frags < 0 {
			co.errs.Add(1)
			fail(w, http.StatusBadRequest, "frags must be non-negative")
			return
		}
		plan.Frags = *req.Frags
	}
	if req.Budget != nil {
		if *req.Budget < 0 {
			co.errs.Add(1)
			fail(w, http.StatusBadRequest, "budget must be non-negative")
			return
		}
		plan.Budget = *req.Budget
	}
	if req.MinQuality != nil {
		if *req.MinQuality < 0 || *req.MinQuality > 1 {
			co.errs.Add(1)
			fail(w, http.StatusBadRequest, "min_quality must be in [0, 1]")
			return
		}
		plan.MinQuality = *req.MinQuality
	}
	tr.AddSpan("parse", parseStart)
	ctx := obs.NewContext(r.Context(), tr)
	if co.cfg.SearchTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, co.cfg.SearchTimeout)
		defer cancel()
	}
	execStart := time.Now()
	cr := newClusterRanker(co, ctx, plan)
	co.engineMu.RLock()
	// A streaming ingest in flight invalidates the engine's derived
	// access paths between its conceptual lines; executing now would
	// lazily rebuild them under the shared lock, racing with parallel
	// queries. Upgrade to the write lock and warm first. Loop: another
	// conceptual write can sneak in between the Unlock and the
	// re-acquired read lock and invalidate again.
	for !co.cfg.Engine.DB.Warmed() {
		co.engineMu.RUnlock()
		co.engineMu.Lock()
		co.cfg.Engine.DB.Warm()
		co.engineMu.Unlock()
		co.engineMu.RLock()
	}
	ex := query.NewExecutor(co.cfg.Engine.DB)
	ex.Ranker = cr
	ex.DisableRestriction = req.DisableRestriction
	res, err := ex.Run(q)
	co.engineMu.RUnlock()
	tr.AddSpan("execute", execStart)
	if err != nil {
		co.errs.Add(1)
		co.observeQuery(tr, &req, nil, ex)
		var ce *clusterErr
		if errors.As(err, &ce) {
			fail(w, http.StatusBadGateway, "cluster unavailable: "+err.Error())
		} else {
			fail(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	co.queries.Add(1)
	resp := QueryResponse{
		Columns:    res.Columns,
		Rows:       make([]QueryRowJSON, len(res.Rows)),
		Quality:    dist.QualityToJSON(ex.Quality),
		Dropped:    cr.dropped,
		Failovers:  cr.failovers,
		Diverged:   cr.diverged,
		StaleStats: cr.staleStats,
		Complete:   cr.dropped == 0 && cr.diverged == 0 && !cr.staleStats,
	}
	for i, row := range res.Rows {
		rj := QueryRowJSON{Values: row.Values, Score: row.Score}
		for _, s := range row.Shots {
			rj.Shots = append(rj.Shots, ShotJSON{Begin: s.Begin, End: s.End, Tennis: s.Tennis, Netplay: s.Netplay})
		}
		resp.Rows[i] = rj
	}
	writeJSON(w, http.StatusOK, resp)
	co.observeQuery(tr, &req, res, ex)
}

// observeQuery records one finished /query into the latency histogram
// and, when configured, the slow-query log. res is nil for a failed
// query (latency still observed).
func (co *Coordinator) observeQuery(tr *obs.Trace, req *QueryRequest, res *query.Result, ex *query.Executor) {
	took := tr.Elapsed()
	if h := co.queryLatency; h != nil {
		h.Observe(took.Seconds())
	}
	rec := obs.SlowQueryRecord{
		Role:  "coordinator",
		Index: "(conceptual)",
		Query: req.Query,
	}
	if res != nil {
		rec.Quality = ex.Quality.Value()
		rec.Results = len(res.Rows)
	}
	co.cfg.SlowQuery.Record(tr, rec)
}
