package query

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"

	"dlsearch/internal/bat"
	"dlsearch/internal/ir"
)

// Row is one result binding: the projected values, the accumulated IR
// score and, when an event predicate matched, the matching shots.
type Row struct {
	Values []string
	Score  float64
	Shots  []ShotEvent
}

// Result is a ranked query result.
type Result struct {
	Columns []string
	Rows    []Row
}

// ExecStats expose optimizer-relevant cost counters (experiment E17).
// A bounded ranking (see Executor) reports the attempt it accepted.
type ExecStats struct {
	ConceptualCandidates int // objects surviving conceptual selections
	IRDocsScored         int // documents the IR predicates scored
	EventChecks          int // meta-index lookups
	BindingsEnumerated   int // join bindings considered
	Ranked               int // the bounded ranking's size k; 0 when unbounded, -1 for the whole collection
	Widened              int // attempts the bounded ranking discarded
}

// ContentRanker evaluates the content-based (contains) predicates of
// a query: the executor resolves every structural and conceptual
// predicate itself, and hands each IR ranking to the ranker. The
// default ranker scores the database's local per-attribute indexes;
// a serving layer may inject one that fans the ranking out over a
// distributed cluster instead — the conceptual engine then runs
// unchanged on top of remote content.
type ContentRanker interface {
	// Serves reports whether a full-text index stands behind the key
	// ("Class.attr").
	Serves(key string) bool
	// Rank returns the RES set of one contains predicate: the top n
	// results (every matching document when n < 0) over the key's
	// collection, restricted to the candidate set when non-nil (a nil
	// map means unrestricted). The top n are a prefix of the top n' > n
	// (score desc, doc asc). The quality estimate is the zero value for
	// an exact evaluation and the budgeted plan's accounting otherwise;
	// the executor folds non-zero estimates into its cumulative Quality.
	Rank(key, text string, n int, candidates map[bat.OID]bool) ([]ir.Result, ir.QualityEstimate, error)
}

// Executor evaluates queries against a Database. The default plan
// applies the paper's optimizer hooks: cheap conceptual selections
// restrict the candidate set a-priori before the IR ranking runs
// (DisableRestriction turns this off to quantify the benefit).
//
// A query with a LIMIT and exactly one contains predicate, under the
// restriction, ranks only as deep as its answer needs: the executor
// asks the ranker for the top k documents, runs the rest of the
// pipeline on those, and accepts the answer when the ranking came back
// short of k or the LIMIT-th row scores strictly above the k-th ranked
// document — no unranked document can then enter or tie the answer.
// Otherwise it widens k and repeats. Every other query shape ranks
// every matching document.
//
// Plan, when set, makes the executor evaluate contains predicates
// under a fragment-budgeted ir.EvalPlan — the idf cut-off as a
// first-class execution strategy — accumulating the achieved quality
// in Quality. The cut-off composes with the a-priori candidate
// restriction: the estimate accounts for query terms, not documents,
// so it is the same with or without the restriction.
//
// Ranker, when set, replaces the database's local index scoring for
// contains predicates (see ContentRanker); nil selects the local
// ranker, byte-identical to the pre-interface executor.
type Executor struct {
	DB                 *Database
	DisableRestriction bool
	Plan               *ir.EvalPlan
	Ranker             ContentRanker
	Quality            ir.QualityEstimate
	Stats              ExecStats
}

// The bounded ranking's first attempt ranks rankStart × LIMIT
// documents, and each widening multiplies k by rankGrowth.
const (
	rankStart  = 8
	rankGrowth = 4
)

// NewExecutor returns an executor over the database.
func NewExecutor(db *Database) *Executor { return &Executor{DB: db} }

// ranker resolves the effective content ranker. The local default is
// the executor itself under a named type, so selecting it allocates
// nothing (a pointer conversion, not a wrapper struct).
func (ex *Executor) ranker() ContentRanker {
	if ex.Ranker != nil {
		return ex.Ranker
	}
	return (*localRanker)(ex)
}

// localRanker is the default ContentRanker: it scores the database's
// own per-attribute indexes, going through the database's term
// resolver — the engine's query cache — when one is injected, and
// under the budgeted plan when one is picked.
type localRanker Executor

// Serves implements ContentRanker.
func (r *localRanker) Serves(key string) bool { return r.DB.IR[key] != nil }

// Rank implements ContentRanker (nil candidates = unrestricted).
func (r *localRanker) Rank(key, text string, n int, candidates map[bat.OID]bool) ([]ir.Result, ir.QualityEstimate, error) {
	idx := r.DB.IR[key]
	if idx == nil {
		return nil, ir.QualityEstimate{}, fmt.Errorf("query: no full-text index for %s", key)
	}
	if n < 0 {
		n = idx.DocCount()
	}
	req := ir.Request{Query: text, Plan: ir.EvalPlan{N: n}, Candidates: candidates}
	idx.Freeze() // resolve and rank against frozen state
	if r.Plan != nil {
		req.Plan = *r.Plan
		req.Plan.N = n
	}
	if r.DB.ResolveTerms != nil {
		req.Terms = r.DB.ResolveTerms(idx, text)
	}
	res, est := idx.Evaluate(req)
	return res, est, nil
}

// Run evaluates a parsed query.
func (ex *Executor) Run(q *Query) (*Result, error) {
	ex.Stats = ExecStats{}
	// 1. Candidate sets per variable: all objects of the bound class.
	cands := map[string][]bat.OID{}
	for _, b := range q.From {
		cands[b.Var] = ex.DB.ObjectsOfClass(b.Class)
	}

	// 2. Conceptual selections first (a-priori restriction).
	restricted := map[string]bool{}
	for _, p := range q.Preds {
		ap, ok := p.(*AttrPred)
		if !ok {
			continue
		}
		var kept []bat.OID
		for _, oid := range cands[ap.Field.Var] {
			if cmpStrings(ex.DB.AttrOf(oid, ap.Field.Attr), ap.Op, ap.Value) {
				kept = append(kept, oid)
			}
		}
		cands[ap.Field.Var] = kept
		restricted[ap.Field.Var] = true
	}
	for _, set := range cands {
		ex.Stats.ConceptualCandidates += len(set)
	}

	// 3. Content-based IR predicates, evaluated by the content ranker
	// (local indexes by default, a cluster fan-out when injected).
	ranker := ex.ranker()
	var contains []*ContainsPred
	var keys []string
	for _, p := range q.Preds {
		cp, ok := p.(*ContainsPred)
		if !ok {
			continue
		}
		b, _ := q.Binding(cp.Field.Var)
		key := b.Class + "." + cp.Field.Attr
		if !ranker.Serves(key) {
			return nil, fmt.Errorf("query: no full-text index for %s.%s", b.Class, cp.Field.Attr)
		}
		contains = append(contains, cp)
		keys = append(keys, key)
	}
	if len(contains) == 1 && q.Limit > 0 && !ex.DisableRestriction {
		return ex.runBounded(q, ranker, contains[0], keys[0], cands, restricted[contains[0].Field.Var])
	}
	scores := map[string]map[bat.OID]float64{}
	for i, cp := range contains {
		var res []ir.Result
		var est ir.QualityEstimate
		var err error
		if ex.DisableRestriction {
			// Unoptimized: rank the whole collection, filter late.
			res, est, err = ranker.Rank(keys[i], cp.Text, -1, nil)
		} else {
			// Optimized: push the conceptual candidate set below the
			// ranking (the paper's a-priori restriction).
			set := oidSet(cands[cp.Field.Var])
			res, est, err = ranker.Rank(keys[i], cp.Text, len(set), set)
		}
		if err != nil {
			return nil, err
		}
		ex.foldQuality(est)
		ex.applyRanking(cands, scores, cp.Field.Var, res)
	}
	return ex.finish(q, cands, scores)
}

// runBounded evaluates a query whose one contains predicate is ranked
// only as deep as the LIMIT needs (see Executor). Only a restricted
// variable ranks under a candidate set; an unrestricted one ranks the
// whole collection, whose documents outside the class simply bind no
// row.
func (ex *Executor) runBounded(q *Query, ranker ContentRanker, cp *ContainsPred, key string, cands map[string][]bat.OID, restricted bool) (*Result, error) {
	var set map[bat.OID]bool
	if restricted {
		set = oidSet(cands[cp.Field.Var])
	}
	base := ex.Stats
	for k, widened := boundedK(q.Limit, rankStart), 0; ; k, widened = boundedK(k, rankGrowth), widened+1 {
		res, est, err := ranker.Rank(key, cp.Text, k, set)
		if err != nil {
			return nil, err
		}
		ex.Stats = base
		ex.Stats.Ranked, ex.Stats.Widened = k, widened
		attempt := maps.Clone(cands)
		scores := map[string]map[bat.OID]float64{}
		ex.applyRanking(attempt, scores, cp.Field.Var, res)
		out, err := ex.finish(q, attempt, scores)
		if err != nil {
			return nil, err
		}
		// Every unranked document scores at most the k-th ranked one, and
		// a row's score is its document's: a LIMIT-th row strictly above
		// that bound closes the answer, ties included.
		if k < 0 || len(res) < k || (len(out.Rows) >= q.Limit && out.Rows[q.Limit-1].Score > res[k-1].Score) {
			ex.foldQuality(est)
			return out, nil
		}
	}
}

// boundedK returns k × factor, or -1 (the whole collection) when the
// product overflows.
func boundedK(k, factor int) int {
	if k < 0 || k > math.MaxInt/factor {
		return -1
	}
	return k * factor
}

func oidSet(oids []bat.OID) map[bat.OID]bool {
	set := make(map[bat.OID]bool, len(oids))
	for _, oid := range oids {
		set[oid] = true
	}
	return set
}

// foldQuality merges a non-zero quality estimate into the executor's
// cumulative Quality.
func (ex *Executor) foldQuality(est ir.QualityEstimate) {
	if est != (ir.QualityEstimate{}) {
		ex.Quality = ir.MergeQuality(ex.Quality, est)
	}
}

// applyRanking adds one contains predicate's scores to its variable's
// and keeps the candidates it ranked.
func (ex *Executor) applyRanking(cands map[string][]bat.OID, scores map[string]map[bat.OID]float64, v string, ranked []ir.Result) {
	ex.Stats.IRDocsScored += len(ranked)
	sc := scores[v]
	if sc == nil {
		sc = map[bat.OID]float64{}
		scores[v] = sc
	}
	inRank := make(map[bat.OID]bool, len(ranked))
	for _, r := range ranked {
		inRank[r.Doc] = true
		sc[r.Doc] += r.Score
	}
	// Candidate order, not rank order: the stable sort of the rows
	// breaks score-and-value ties by it.
	var kept []bat.OID
	for _, oid := range cands[v] {
		if inRank[oid] {
			kept = append(kept, oid)
		}
	}
	cands[v] = kept
}

// finish runs the pipeline after the ranking: the event predicates,
// the association joins and binding enumeration, then the sort and the
// LIMIT.
func (ex *Executor) finish(q *Query, cands map[string][]bat.OID, scores map[string]map[bat.OID]float64) (*Result, error) {
	shots := map[string]map[bat.OID][]ShotEvent{}

	// 4. Event predicates against the multimedia meta-index.
	for _, p := range q.Preds {
		ep, ok := p.(*EventPred)
		if !ok {
			continue
		}
		var match func(ShotEvent) bool
		switch strings.ToLower(ep.Event) {
		case "netplay":
			match = func(s ShotEvent) bool { return s.Netplay }
		case "rally", "baseline_rally":
			match = func(s ShotEvent) bool { return s.Tennis && !s.Netplay }
		default:
			return nil, fmt.Errorf("query: unknown event %q", ep.Event)
		}
		events := ex.DB.VideoEvents()
		sh := shots[ep.Field.Var]
		if sh == nil {
			sh = map[bat.OID][]ShotEvent{}
			shots[ep.Field.Var] = sh
		}
		var kept []bat.OID
		for _, oid := range cands[ep.Field.Var] {
			ex.Stats.EventChecks++
			url := ex.DB.AttrOf(oid, ep.Field.Attr)
			var matched []ShotEvent
			for _, s := range events[url] {
				if match(s) {
					matched = append(matched, s)
				}
			}
			if len(matched) > 0 {
				kept = append(kept, oid)
				sh[oid] = matched
			}
		}
		cands[ep.Field.Var] = kept
	}

	// 5. Association joins + binding enumeration.
	assocIdx := map[string]map[string][]string{} // pred key -> from qid -> to qids
	var assocPreds []*AssocPred
	for _, p := range q.Preds {
		if apd, ok := p.(*AssocPred); ok {
			assocPreds = append(assocPreds, apd)
			m := map[string][]string{}
			for _, pair := range ex.DB.AssocPairs(apd.Name) {
				m[pair[0]] = append(m[pair[0]], pair[1])
			}
			assocIdx[assocKey(apd)] = m
		}
	}

	res := &Result{}
	for _, f := range q.Select {
		res.Columns = append(res.Columns, f.String())
	}
	binding := map[string]bat.OID{}
	var enumerate func(i int)
	enumerate = func(i int) {
		if i == len(q.From) {
			ex.Stats.BindingsEnumerated++
			row := Row{}
			for _, f := range q.Select {
				row.Values = append(row.Values, ex.DB.AttrOf(binding[f.Var], f.Attr))
			}
			for v, sc := range scores {
				row.Score += sc[binding[v]]
			}
			for v, sh := range shots {
				row.Shots = append(row.Shots, sh[binding[v]]...)
			}
			res.Rows = append(res.Rows, row)
			return
		}
		b := q.From[i]
		for _, oid := range cands[b.Var] {
			binding[b.Var] = oid
			if ex.assocsHold(assocPreds, assocIdx, q, binding, i) {
				enumerate(i + 1)
			}
		}
		delete(binding, b.Var)
	}
	enumerate(0)

	// 6. Rank by IR score (desc), then projected values for
	// determinism; apply LIMIT.
	sort.SliceStable(res.Rows, func(i, j int) bool {
		if res.Rows[i].Score != res.Rows[j].Score {
			return res.Rows[i].Score > res.Rows[j].Score
		}
		return strings.Join(res.Rows[i].Values, "\x00") < strings.Join(res.Rows[j].Values, "\x00")
	})
	if q.Limit > 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res, nil
}

func assocKey(a *AssocPred) string { return a.Name + "/" + a.FromVar + "/" + a.ToVar }

// assocsHold checks all association predicates whose variables are
// bound after binding variable i.
func (ex *Executor) assocsHold(preds []*AssocPred, idx map[string]map[string][]string, q *Query, binding map[string]bat.OID, i int) bool {
	bound := map[string]bool{}
	for j := 0; j <= i; j++ {
		bound[q.From[j].Var] = true
	}
	for _, p := range preds {
		if !bound[p.FromVar] || !bound[p.ToVar] {
			continue
		}
		fromQID := ex.DB.QIDOf(binding[p.FromVar])
		toQID := ex.DB.QIDOf(binding[p.ToVar])
		ok := false
		for _, to := range idx[assocKey(p)][fromQID] {
			if to == toQID {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// cmpStrings applies a comparison operator to attribute values
// (lexicographic; attribute values are stored as strings).
func cmpStrings(l, op, r string) bool {
	switch op {
	case "=":
		return l == r
	case "!=":
		return l != r
	case "<":
		return l < r
	case "<=":
		return l <= r
	case ">":
		return l > r
	case ">=":
		return l >= r
	}
	return false
}
