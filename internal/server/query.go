package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
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
// the same documents with the same scores. The whole-collection
// ranking is merged once per predicate: a widened bounded ranking
// filters it again instead of fanning out again. An unrestricted top-n
// fans out for exactly n and never asks the nodes for their size; its
// first widening ranks the whole collection, whose prefix is the top
// n' under the same plan, since neither a document's score nor the
// quality estimate depends on n.
type clusterRanker struct {
	co   *Coordinator
	ctx  context.Context
	plan ir.EvalPlan // every fan-out's plan; N set per call

	counts map[string]int // collection sizes, by index key

	// The latest fan-out per predicate (index key + text). The response
	// reports the degradation of these, so a predicate counts once, as
	// the ranking the executor accepted saw it.
	fanouts map[string]*fanout
}

// fanout is one contains predicate's cluster ranking.
type fanout struct {
	sr    *dist.SearchResult
	whole bool // sr ranks the whole collection
}

func newClusterRanker(co *Coordinator, ctx context.Context, plan ir.EvalPlan) *clusterRanker {
	return &clusterRanker{
		co: co, ctx: ctx, plan: plan,
		counts:  map[string]int{},
		fanouts: map[string]*fanout{},
	}
}

// Serves implements query.ContentRanker.
func (cr *clusterRanker) Serves(key string) bool { return cr.co.indexes[key] != nil }

// count returns the document count of an index's collection.
func (cr *clusterRanker) count(key string, cluster *dist.Cluster) (int, error) {
	if n, ok := cr.counts[key]; ok {
		return n, nil
	}
	infos, err := cluster.NodeInfoContext(cr.ctx)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, l := range infos {
		n += l.Docs
	}
	cr.counts[key] = n
	return n, nil
}

// Rank implements query.ContentRanker.
func (cr *clusterRanker) Rank(key, text string, n int, candidates map[bat.OID]bool) ([]ir.Result, ir.QualityEstimate, error) {
	cluster := cr.co.indexes[key]
	if cluster == nil {
		return nil, ir.QualityEstimate{}, fmt.Errorf("query: no cluster serves index %s", key)
	}
	if n == 0 || (candidates != nil && len(candidates) == 0) {
		return nil, ir.QualityEstimate{}, nil
	}
	id := key + "\x00" + text
	f := cr.fanouts[id]
	// Only an unrestricted predicate's first top-n stops short of the
	// whole collection: its widening ranks the whole collection once,
	// so a predicate fans out at most twice however often it widens.
	whole := n < 0 || candidates != nil || f != nil
	if f == nil || !f.whole {
		plan := cr.plan
		plan.N = n
		if whole {
			total, err := cr.count(key, cluster)
			if err != nil {
				return nil, ir.QualityEstimate{}, &clusterErr{fmt.Errorf("index %s: %w", key, err)}
			}
			plan.N = max(n, total)
		}
		sr, err := cluster.SearchPlan(cr.ctx, text, plan)
		if err != nil {
			return nil, ir.QualityEstimate{}, &clusterErr{fmt.Errorf("index %s: %w", key, err)}
		}
		f = &fanout{sr: sr, whole: whole}
		cr.fanouts[id] = f
	}
	res := f.sr.Results
	if candidates != nil {
		var kept []ir.Result
		for _, r := range res {
			if candidates[r.Doc] {
				kept = append(kept, r)
				if len(kept) == n {
					break
				}
			}
		}
		res = kept
	} else if n >= 0 && len(res) > n {
		res = res[:n]
	}
	return res, f.sr.Quality, nil
}

// degradation sums the degradation report over the query's fan-outs.
func (cr *clusterRanker) degradation() (dropped, failovers, diverged int, staleStats bool) {
	for _, f := range cr.fanouts {
		dropped += len(f.sr.Dropped)
		failovers += f.sr.FailoverTotal()
		diverged += len(f.sr.Diverged)
		staleStats = staleStats || f.sr.StaleStats
	}
	return dropped, failovers, diverged, staleStats
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
	ex := query.NewExecutor(co.cfg.Engine.DB)
	ex.Ranker = cr
	ex.DisableRestriction = req.DisableRestriction
	res, err := ex.Run(q)
	co.engineMu.RUnlock()
	if ex.Stats.Ranked != 0 {
		tr.AddSpanDetail("execute", execStart,
			"ranked="+strconv.Itoa(ex.Stats.Ranked)+" widened="+strconv.Itoa(ex.Stats.Widened))
	} else {
		tr.AddSpan("execute", execStart)
	}
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
	dropped, failovers, diverged, stale := cr.degradation()
	resp := QueryResponse{
		Columns:    res.Columns,
		Rows:       make([]QueryRowJSON, len(res.Rows)),
		Quality:    dist.QualityToJSON(ex.Quality),
		Dropped:    dropped,
		Failovers:  failovers,
		Diverged:   diverged,
		StaleStats: stale,
		Complete:   dropped == 0 && diverged == 0 && !stale,
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
	co.queryLatency.Observe(took.Seconds())
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
