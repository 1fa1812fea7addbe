// Package core assembles the three levels of the paper into the
// search-engine lifecycle: modeling (webspace schema + feature
// grammar), populating and maintaining (crawler → FDE → physical
// store, FDS for evolution) and querying (the integrated conceptual /
// content-based query engine).
package core

import (
	"fmt"

	"dlsearch/internal/crawler"
	"dlsearch/internal/detector"
	"dlsearch/internal/fde"
	"dlsearch/internal/fds"
	"dlsearch/internal/fg"
	"dlsearch/internal/ir"
	"dlsearch/internal/monetxml"
	"dlsearch/internal/query"
	"dlsearch/internal/webspace"
)

// Engine is a specialised digital library search engine instance.
type Engine struct {
	Schema   *webspace.Schema
	Grammar  *fg.Grammar
	Registry *detector.Registry

	Store     *monetxml.Store
	IR        map[string]*ir.Index
	Scheduler *fds.Scheduler
	DB        *query.Database

	// Cache is the query-side LRU over (query → term oids); the
	// executor's IR predicates resolve through it, and the serving
	// layer exposes its hit/miss counters.
	Cache *QueryCache

	conceptDocs map[string]monetxml.DocID // page url -> stored document
	mediaDocs   map[string]monetxml.DocID // media location -> stored parse tree
}

// New creates an engine for the given conceptual schema, feature
// grammar and detector registry (the modeling stage).
func New(schema *webspace.Schema, grammar *fg.Grammar, reg *detector.Registry) (*Engine, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		Schema:      schema,
		Grammar:     grammar,
		Registry:    reg,
		Store:       monetxml.NewStore(),
		IR:          map[string]*ir.Index{},
		Scheduler:   fds.New(grammar, reg),
		Cache:       NewQueryCache(DefaultQueryCacheSize),
		conceptDocs: map[string]monetxml.DocID{},
		mediaDocs:   map[string]monetxml.DocID{},
	}
	e.Store.SetTypeOracle(fde.TypeOracle(grammar))
	e.DB = query.NewDatabase(e.Store, e.IR)
	e.DB.ResolveTerms = e.Cache.ResolverFor()
	return e, nil
}

// PopulateReport summarises one population run.
type PopulateReport struct {
	Documents     int
	MediaParsed   int
	MediaFailed   int
	TextsIndexed  int
	Relations     int
	Associations  int
	DetectorCalls map[string]int
}

// Populate loads a crawl result: conceptual documents are stored as
// XML in the physical level, Hypertext attributes are indexed for
// full-text retrieval, and every other multimedia reference is run
// through the Feature Detector Engine, its parse tree stored in the
// meta-index and registered with the scheduler for maintenance.
func (e *Engine) Populate(res *crawler.Result) (*PopulateReport, error) {
	rep := &PopulateReport{}
	for _, doc := range res.Documents {
		if err := doc.Validate(e.Schema); err != nil {
			return rep, err
		}
		id, err := e.Store.LoadNode(doc.URL, doc.XML())
		if err != nil {
			return rep, fmt.Errorf("core: store %s: %w", doc.URL, err)
		}
		e.conceptDocs[doc.URL] = id
		rep.Documents++
	}
	e.DB.InvalidateCaches()

	for _, m := range res.Media {
		switch {
		case m.Type == webspace.Hypertext:
			oid, ok := e.DB.OIDOf(m.Owner)
			if !ok {
				return rep, fmt.Errorf("core: hypertext owner %s not stored", m.Owner)
			}
			key := m.Class + "." + m.Attr
			idx := e.IR[key]
			if idx == nil {
				idx = ir.NewIndex()
				e.IR[key] = idx
			}
			idx.Add(oid, m.Owner, m.Inline)
			rep.TextsIndexed++
		case m.URL != "":
			if err := e.analyzeMedia(m.URL); err != nil {
				// A media object the grammar rejects is recorded, not
				// fatal: the paper's index simply lacks meta-data for it.
				rep.MediaFailed++
				continue
			}
			rep.MediaParsed++
		}
	}
	e.DB.InvalidateCaches()
	// The bulk load is complete: freeze every full-text index so the
	// incremental IDF rows and posting-list sort order are in place
	// before the first query, and concurrent read-only queries never
	// mutate index state.
	for _, idx := range e.IR {
		idx.Freeze()
	}
	rep.Relations = len(e.Store.RelationNames())
	rep.Associations = e.Store.Bats.TotalAssociations()
	rep.DetectorCalls = e.Scheduler.Engine.Stats.DetectorCalls
	return rep, nil
}

// analyzeMedia runs the FDE over one multimedia object and stores the
// resulting parse tree in the meta-index.
func (e *Engine) analyzeMedia(location string) error {
	if _, done := e.mediaDocs[location]; done {
		return nil
	}
	initial := []detector.Token{{Symbol: "location", Value: location}}
	tree, err := e.Scheduler.Engine.Parse(initial)
	if err != nil {
		return err
	}
	e.Scheduler.AddTree(location, tree, initial)
	id, err := e.Store.LoadNode(location, tree.XML())
	if err != nil {
		return err
	}
	e.mediaDocs[location] = id
	return nil
}

// Query parses and evaluates an integrated query.
func (e *Engine) Query(src string) (*query.Result, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	return query.NewExecutor(e.DB).Run(q)
}

// QueryWithStats additionally returns the executor cost counters.
func (e *Engine) QueryWithStats(src string, disableRestriction bool) (*query.Result, query.ExecStats, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, query.ExecStats{}, err
	}
	ex := query.NewExecutor(e.DB)
	ex.DisableRestriction = disableRestriction
	res, err := ex.Run(q)
	return res, ex.Stats, err
}

// QueryBudgeted evaluates an integrated query under a fragment-
// budgeted evaluation plan: contains predicates — under an a-priori
// conceptual restriction or not — touch only the plan's leading
// idf-descending fragments and the achieved quality estimate is
// returned alongside the result.
func (e *Engine) QueryBudgeted(src string, plan ir.EvalPlan) (*query.Result, ir.QualityEstimate, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, ir.QualityEstimate{}, err
	}
	ex := query.NewExecutor(e.DB)
	ex.Plan = &plan
	res, err := ex.Run(q)
	return res, ex.Quality, err
}

// MaintenanceReport summarises a detector upgrade cycle.
type MaintenanceReport struct {
	Upgrade  fds.UpgradeReport
	Run      fds.RunReport
	Restored int // meta-index documents rewritten
}

// Upgrade installs a new detector implementation, lets the scheduler
// localise and revalidate the affected parse trees, and rewrites the
// touched meta-index documents in the physical store.
func (e *Engine) Upgrade(im *detector.Impl) (*MaintenanceReport, error) {
	rep := &MaintenanceReport{}
	rep.Upgrade = e.Scheduler.Upgrade(im)
	rep.Run = e.Scheduler.Run()
	for _, id := range rep.Run.Touched {
		if err := e.restoreMedia(id); err != nil {
			return rep, err
		}
		rep.Restored++
	}
	e.DB.InvalidateCaches()
	return rep, nil
}

// restoreMedia rewrites one maintained parse tree into the store.
func (e *Engine) restoreMedia(location string) error {
	tree := e.Scheduler.Tree(location)
	if tree == nil {
		return fmt.Errorf("core: no maintained tree for %s", location)
	}
	if old, ok := e.mediaDocs[location]; ok {
		if err := e.Store.DeleteDoc(old); err != nil {
			return err
		}
	}
	id, err := e.Store.LoadNode(location, tree.XML())
	if err != nil {
		return err
	}
	e.mediaDocs[location] = id
	return nil
}

// MediaLocations returns the locations of all analysed media in
// scheduler order.
func (e *Engine) MediaLocations() []string { return e.Scheduler.IDs() }
