package core

import (
	"fmt"
	"sort"

	"dlsearch/internal/cobra"
	"dlsearch/internal/detector"
	"dlsearch/internal/fde"
	"dlsearch/internal/fg"
	"dlsearch/internal/ir"
	"dlsearch/internal/monetxml"
	"dlsearch/internal/video"
)

// WebPage is one page of the synthetic open web used by the
// Internet-scale configuration (Figure 14): the generic grammar knows
// nothing about tennis, only about pages, keywords, links and embedded
// images.
type WebPage struct {
	URL      string
	Title    string
	Keywords []string
	Links    []string // outgoing anchors (other page URLs)
	Images   []string // embedded image URLs
}

// WebImage is an embedded image with its raster content; the portrait
// detector really analyses the pixels (skin ratio), it does not read
// ground truth.
type WebImage struct {
	URL      string
	Frame    *video.Frame
	Portrait bool // ground truth, for evaluation only
}

// InternetEngine is the paper's unlimited-domain configuration: no
// conceptual schema, a very generic feature grammar, and a direct
// interface on top of the logical level.
type InternetEngine struct {
	Grammar  *fg.Grammar
	Registry *detector.Registry
	Store    *monetxml.Store
	Engine   *fde.Engine
	Keywords *ir.Index // doc oid = stored page document id
	Cache    *QueryCache

	pages  map[string]*WebPage
	images map[string]*WebImage
	docs   map[string]monetxml.DocID
}

// NewInternetEngine builds the generic engine over a page/image set.
func NewInternetEngine(pages []*WebPage, images []*WebImage) (*InternetEngine, error) {
	g, err := fg.Parse(fg.InternetGrammar)
	if err != nil {
		return nil, err
	}
	e := &InternetEngine{
		Grammar:  g,
		Registry: detector.NewRegistry(),
		Store:    monetxml.NewStore(),
		Keywords: ir.NewIndex(),
		Cache:    NewQueryCache(DefaultQueryCacheSize),
		pages:    map[string]*WebPage{},
		images:   map[string]*WebImage{},
		docs:     map[string]monetxml.DocID{},
	}
	e.Store.SetTypeOracle(fde.TypeOracle(g))
	for _, p := range pages {
		e.pages[p.URL] = p
	}
	for _, im := range images {
		e.images[im.URL] = im
	}
	e.Registry.RegisterFunc("fetch", e.fetchDetector)
	e.Registry.RegisterFunc("portrait", e.portraitDetector)
	e.Engine = fde.New(g, e.Registry)
	return e, nil
}

// fetchDetector emits the page's title, keywords, anchors (with &html
// reference tokens for known pages) and embedded image locations.
func (e *InternetEngine) fetchDetector(ctx *detector.Context) ([]detector.Token, error) {
	p, ok := e.pages[ctx.Param(0)]
	if !ok {
		return nil, fmt.Errorf("core: no page at %s", ctx.Param(0))
	}
	var toks []detector.Token
	if p.Title != "" {
		toks = append(toks, detector.Token{Symbol: "title", Value: p.Title})
	}
	for _, k := range p.Keywords {
		toks = append(toks, detector.Token{Symbol: "word", Value: k})
	}
	for _, l := range p.Links {
		toks = append(toks, detector.Token{Symbol: "href", Value: l})
		if _, known := e.pages[l]; known {
			toks = append(toks, detector.Token{Symbol: "html", Value: l})
		}
	}
	for _, im := range p.Images {
		toks = append(toks, detector.Token{Symbol: "location", Value: im})
	}
	return toks, nil
}

// portraitDetector is the face/portrait classifier ([LH96]-style):
// it decides from the pixels whether the image is a portrait.
func (e *InternetEngine) portraitDetector(ctx *detector.Context) ([]detector.Token, error) {
	im, ok := e.images[ctx.Param(0)]
	if !ok {
		return nil, fmt.Errorf("core: no image at %s", ctx.Param(0))
	}
	isPortrait := cobra.SkinRatio(im.Frame) >= 0.2
	return []detector.Token{{Symbol: "portrait", Value: fmt.Sprint(isPortrait)}}, nil
}

// PopulateWeb runs the FDE over every page, stores the parse trees and
// indexes the keywords.
func (e *InternetEngine) PopulateWeb() error {
	urls := make([]string, 0, len(e.pages))
	for u := range e.pages {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	for _, u := range urls {
		tree, err := e.Engine.Parse([]detector.Token{{Symbol: "location", Value: u}})
		if err != nil {
			return fmt.Errorf("core: index %s: %w", u, err)
		}
		id, err := e.Store.LoadNode(u, tree.XML())
		if err != nil {
			return err
		}
		e.docs[u] = id
		var text string
		p := e.pages[u]
		for _, k := range p.Keywords {
			text += k + " "
		}
		e.Keywords.Add(id, u, p.Title+" "+text)
	}
	// Bulk load done: freeze the index's derived access paths once so
	// queries start on sorted posting lists and fresh IDF rows.
	e.Keywords.Freeze()
	return nil
}

// PortraitHit is one answer of the portraits query.
type PortraitHit struct {
	Page  string
	Image string
	Score float64
}

// PortraitsOnPagesAbout answers the paper's Internet-scale example:
// "show me all portraits embedded in pages containing keywords
// semantically related to the word X". Related terms (sharing a stem,
// plus the supplied expansions) rank pages via the keyword index; the
// portraits on the ranked pages come from the stored meta-index.
func (e *InternetEngine) PortraitsOnPagesAbout(word string, related ...string) []PortraitHit {
	queryText := word
	for _, r := range related {
		queryText += " " + r
	}
	e.Keywords.Freeze()
	_, oids := e.Cache.Resolve(e.Keywords, queryText)
	ranked, _ := e.Keywords.Evaluate(ir.Request{Terms: oids, Plan: ir.EvalPlan{N: e.Keywords.DocCount()}})
	var hits []PortraitHit
	for _, r := range ranked {
		url, _ := e.Store.DocURL(r.Doc)
		for _, img := range e.portraitsOf(r.Doc) {
			hits = append(hits, PortraitHit{Page: url, Image: img, Score: r.Score})
		}
	}
	return hits
}

// portraitsOf reads the portrait-classified images of a stored page
// document from the path relations.
func (e *InternetEngine) portraitsOf(doc monetxml.DocID) []string {
	var out []string
	root, _, ok := e.Store.RootOf(doc)
	if !ok {
		return out
	}
	fetchEdge := e.Store.Relation("html/fetch")
	imgEdge := e.Store.Relation("html/fetch/image")
	locEdge := e.Store.Relation("html/fetch/image/location")
	npEdge := e.Store.Relation("html/fetch/image/portrait")
	if fetchEdge == nil || imgEdge == nil || locEdge == nil || npEdge == nil {
		return out
	}
	for _, fetch := range fetchEdge.TailsOfHead(root) {
		for _, img := range imgEdge.TailsOfHead(fetch) {
			isPortrait := false
			for _, p := range npEdge.TailsOfHead(img) {
				if e.Store.TextOf("html/fetch/image/portrait", p) == "true" {
					isPortrait = true
				}
			}
			if !isPortrait {
				continue
			}
			for _, l := range locEdge.TailsOfHead(img) {
				out = append(out, e.Store.TextOf("html/fetch/image/location", l))
			}
		}
	}
	return out
}

// LinkGraph returns the reference edges (&html) of the stored web:
// page URL -> referenced page URLs, demonstrating how the grammar's
// references turn the parse forest into the web's link graph.
func (e *InternetEngine) LinkGraph() map[string][]string {
	out := map[string][]string{}
	refRel := e.Store.Relation("html/fetch/anchor/html[ref]")
	if refRel == nil {
		return out
	}
	for i := 0; i < refRel.Len(); i++ {
		refOID := refRel.Head(i)
		target := refRel.TailString(i)
		// ref element -> ... -> html root -> owning document URL.
		doc, ok := e.Store.DocOf("html/fetch/anchor/html", refOID)
		if !ok {
			continue
		}
		if url, found := e.Store.DocURL(doc); found {
			out[url] = append(out[url], target)
		}
	}
	return out
}

// SyntheticWeb generates a small open web: pages about various topics
// with keyword sets, cross links and embedded images (portraits are
// close-up-like rasters, the rest court/other rasters).
func SyntheticWeb(seed int64) ([]*WebPage, []*WebImage) {
	topics := []struct {
		slug     string
		title    string
		keywords []string
		portrait bool
	}{
		{"champions", "Hall of Champions", []string{"champion", "tennis", "winner", "trophy"}, true},
		{"training", "Training ground", []string{"fitness", "drill", "practice"}, false},
		{"federer", "Profile of a champion", []string{"champion", "grand", "slam"}, true},
		{"weather", "Melbourne weather", []string{"rain", "forecast", "sun"}, false},
		{"gallery", "Photo gallery", []string{"photo", "portrait", "champion"}, true},
		{"tickets", "Ticket office", []string{"ticket", "price", "seat"}, false},
	}
	var pages []*WebPage
	var images []*WebImage
	base := "http://web.example"
	for i, tp := range topics {
		page := &WebPage{
			URL:      fmt.Sprintf("%s/%s.html", base, tp.slug),
			Title:    tp.title,
			Keywords: tp.keywords,
		}
		imgURL := fmt.Sprintf("%s/img/%s.jpg", base, tp.slug)
		page.Images = []string{imgURL}
		var frame *video.Frame
		if tp.portrait {
			v := video.Generate([]video.ShotSpec{{Kind: video.Closeup, Frames: 1}}, video.Options{Seed: seed + int64(i)})
			frame = v.Frames[0]
		} else {
			v := video.Generate([]video.ShotSpec{{Kind: video.Other, Frames: 1}}, video.Options{Seed: seed + int64(i)})
			frame = v.Frames[0]
		}
		images = append(images, &WebImage{URL: imgURL, Frame: frame, Portrait: tp.portrait})
		pages = append(pages, page)
	}
	// Cross links: each page links to the next (a ring) plus one
	// external URL.
	for i, p := range pages {
		p.Links = []string{pages[(i+1)%len(pages)].URL, "http://elsewhere.example/"}
	}
	return pages, images
}
