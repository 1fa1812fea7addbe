package query

import (
	"fmt"
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
type ExecStats struct {
	ConceptualCandidates int // objects surviving conceptual selections
	IRDocsScored         int // documents the IR predicates scored
	EventChecks          int // meta-index lookups
	BindingsEnumerated   int // join bindings considered
}

// ContentRanker evaluates the content-based (contains) predicates of
// a query: the executor resolves every structural and conceptual
// predicate itself, and hands each IR ranking to the ranker. The
// default ranker scores the database's local per-attribute indexes;
// a serving layer may inject one that fans the ranking out over a
// distributed cluster instead — the conceptual engine then runs
// unchanged on top of remote content.
type ContentRanker interface {
	// Collection reports the document count behind the index key
	// ("Class.attr") and whether the key is served at all; the count
	// is the unrestricted ranking's n.
	Collection(key string) (int, bool)
	// Rank returns the RES set of one contains predicate: at most n
	// results over the key's collection, restricted to the candidate
	// set when non-nil (a nil map means unrestricted). The quality
	// estimate is the zero value for an exact evaluation and the
	// budgeted plan's accounting otherwise; the executor folds
	// non-zero estimates into its cumulative Quality.
	Rank(key, text string, n int, candidates map[bat.OID]bool) ([]ir.Result, ir.QualityEstimate, error)
}

// Executor evaluates queries against a Database. The default plan
// applies the paper's optimizer hooks: cheap conceptual selections
// restrict the candidate set a-priori before the IR ranking runs
// (DisableRestriction turns this off to quantify the benefit).
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

// Collection implements ContentRanker.
func (r *localRanker) Collection(key string) (int, bool) {
	idx := r.DB.IR[key]
	if idx == nil {
		return 0, false
	}
	return idx.DocCount(), true
}

// Rank implements ContentRanker (nil candidates = unrestricted).
func (r *localRanker) Rank(key, text string, n int, candidates map[bat.OID]bool) ([]ir.Result, ir.QualityEstimate, error) {
	idx := r.DB.IR[key]
	if idx == nil {
		return nil, ir.QualityEstimate{}, fmt.Errorf("query: no full-text index for %s", key)
	}
	req := ir.Request{Query: text, Plan: ir.EvalPlan{N: n}, Candidates: candidates}
	idx.Freeze() // resolve and rank against frozen state
	if r.Plan != nil {
		req.Plan = *r.Plan
		req.Plan.N = n
		idx.EnsureFragments(req.Plan)
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
	scores := map[string]map[bat.OID]float64{}
	shots := map[string]map[bat.OID][]ShotEvent{}

	// 2. Conceptual selections first (a-priori restriction).
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
	}
	for _, set := range cands {
		ex.Stats.ConceptualCandidates += len(set)
	}

	// 3. Content-based IR predicates, evaluated by the content ranker
	// (local indexes by default, a cluster fan-out when injected).
	ranker := ex.ranker()
	for _, p := range q.Preds {
		cp, ok := p.(*ContainsPred)
		if !ok {
			continue
		}
		b, _ := q.Binding(cp.Field.Var)
		key := b.Class + "." + cp.Field.Attr
		total, served := ranker.Collection(key)
		if !served {
			return nil, fmt.Errorf("query: no full-text index for %s.%s", b.Class, cp.Field.Attr)
		}
		var ranked []rankedDoc
		var est ir.QualityEstimate
		if ex.DisableRestriction {
			// Unoptimized: rank the whole collection, filter late.
			res, e, err := ranker.Rank(key, cp.Text, total, nil)
			if err != nil {
				return nil, err
			}
			est = e
			for _, r := range res {
				ranked = append(ranked, rankedDoc{r.Doc, r.Score})
			}
		} else {
			// Optimized: push the conceptual candidate set below the
			// ranking (the paper's a-priori restriction).
			set := make(map[bat.OID]bool, len(cands[cp.Field.Var]))
			for _, oid := range cands[cp.Field.Var] {
				set[oid] = true
			}
			res, e, err := ranker.Rank(key, cp.Text, len(set), set)
			if err != nil {
				return nil, err
			}
			est = e
			for _, r := range res {
				ranked = append(ranked, rankedDoc{r.Doc, r.Score})
			}
		}
		if est != (ir.QualityEstimate{}) {
			ex.Quality = ir.MergeQuality(ex.Quality, est)
		}
		ex.Stats.IRDocsScored += len(ranked)
		sc := scores[cp.Field.Var]
		if sc == nil {
			sc = map[bat.OID]float64{}
			scores[cp.Field.Var] = sc
		}
		inRank := map[bat.OID]bool{}
		for _, r := range ranked {
			inRank[r.doc] = true
			sc[r.doc] += r.score
		}
		var kept []bat.OID
		for _, oid := range cands[cp.Field.Var] {
			if inRank[oid] {
				kept = append(kept, oid)
			}
		}
		cands[cp.Field.Var] = kept
	}

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

type rankedDoc struct {
	doc   bat.OID
	score float64
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
