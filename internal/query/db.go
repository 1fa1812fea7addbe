// Package query implements the paper's querying stage: a declarative
// query language over the webspace schema in which conceptual
// selections and joins, content-based IR ranking (contains) and
// feature-grammar event predicates (event) mix freely — the
// integration traditional search engines lack. Under the hood queries
// break down to structured searches over the path-named binary
// relations of the physical level.
package query

import (
	"sort"
	"strconv"
	"strings"

	"dlsearch/internal/bat"
	"dlsearch/internal/ir"
	"dlsearch/internal/monetxml"
	"dlsearch/internal/webspace"
)

// Database is the physical access layer the executor runs against:
// the Monet XML store holding both the conceptual documents and the
// multimedia meta-index, plus one full-text index per Hypertext
// attribute (keyed "Class.attr") whose document oids are the owning
// object element oids.
//
// Its derived access paths (objects by class, qualified ids, attribute
// values, association pairs, the video-event table) are always built:
// NewDatabase builds them, LoadDocument extends them per new conceptual
// document, and a writer that changes the store any other way calls
// InvalidateCaches when it is done. Reads never build anything, so any
// number of readers may run concurrently as long as writers exclude
// them.
type Database struct {
	Store *monetxml.Store
	IR    map[string]*ir.Index

	// ResolveTerms, when set, resolves query text to term oids for an
	// index — the engine injects its query-side LRU cache here so hot
	// queries skip the tokenize/stop/stem pipeline. Nil falls back to
	// uncached resolution inside the index.
	ResolveTerms func(*ir.Index, string) []bat.OID

	objects *objectIndex
	events  map[string][]ShotEvent
}

// NewDatabase wraps a store and IR indexes and builds the access paths
// over what the store already holds.
func NewDatabase(store *monetxml.Store, irIdx map[string]*ir.Index) *Database {
	if irIdx == nil {
		irIdx = map[string]*ir.Index{}
	}
	db := &Database{Store: store, IR: irIdx}
	db.InvalidateCaches()
	return db
}

// InvalidateCaches rebuilds every derived access path from the store,
// in O(store). Bulk population, meta-index maintenance and document
// reposts call it when they are done; new conceptual documents written
// through LoadDocument need no rebuild.
func (db *Database) InvalidateCaches() {
	db.objects = buildObjectIndex(db.Store)
	db.events = db.buildVideoEvents()
}

// Warm does nothing: the access paths are never left unbuilt. It
// remains for callers written against the lazily built paths.
func (db *Database) Warm() {}

// --- conceptual object access over the path relations ---

// objectIndex is a derived access path over the webspace relations:
// object oids by class, attribute values per object, association
// pairs, each in store order.
type objectIndex struct {
	byClass map[string][]bat.OID
	qidOf   map[bat.OID]string
	oidOf   map[string]bat.OID
	attrs   map[bat.OID]map[string]string
	// assoc name -> list of (fromQID, toQID)
	assocs map[string][][2]string
}

// buildObjectIndex derives the object index from the store's webspace
// relations.
func buildObjectIndex(store *monetxml.Store) *objectIndex {
	ix := &objectIndex{
		byClass: map[string][]bat.OID{},
		qidOf:   map[bat.OID]string{},
		oidOf:   map[string]bat.OID{},
		attrs:   map[bat.OID]map[string]string{},
		assocs:  map[string][][2]string{},
	}
	classRel := store.Relation("webspace/object[class]")
	idRel := store.Relation("webspace/object[id]")
	if classRel != nil && idRel != nil {
		for i := 0; i < classRel.Len(); i++ {
			oid := classRel.Head(i)
			id, _ := idRel.StringOfHead(oid)
			ix.addObject(oid, classRel.TailString(i), id)
		}
	}
	// Attribute values: webspace/object/attr elements with [name] and
	// pcdata content.
	attrEdge := store.Relation("webspace/object/attr")
	attrName := store.Relation("webspace/object/attr[name]")
	if attrEdge != nil && attrName != nil {
		for i := 0; i < attrEdge.Len(); i++ {
			owner := attrEdge.Head(i)
			attrOID := attrEdge.TailOID(i)
			name, _ := attrName.StringOfHead(attrOID)
			if m, ok := ix.attrs[owner]; ok && name != "" {
				m[name] = store.TextOf("webspace/object/attr", attrOID)
			}
		}
	}
	// Associations.
	an := store.Relation("webspace/assoc[name]")
	af := store.Relation("webspace/assoc[from]")
	at := store.Relation("webspace/assoc[to]")
	if an != nil && af != nil && at != nil {
		for i := 0; i < an.Len(); i++ {
			oid := an.Head(i)
			from, _ := af.StringOfHead(oid)
			to, _ := at.StringOfHead(oid)
			ix.addAssoc(an.TailString(i), from, to)
		}
	}
	return ix
}

func (ix *objectIndex) addObject(oid bat.OID, class, id string) {
	qid := class + ":" + id
	ix.byClass[class] = append(ix.byClass[class], oid)
	ix.qidOf[oid] = qid
	ix.oidOf[qid] = oid
	ix.attrs[oid] = map[string]string{}
}

func (ix *objectIndex) addAssoc(name, from, to string) {
	ix.assocs[name] = append(ix.assocs[name], [2]string{from, to})
}

// LoadDocument stores one new conceptual webspace document and appends
// its objects, attribute values and association pairs to the access
// paths in O(document): the new object oids are the rows Store.LoadNode
// has just appended to webspace/object[class], in document order. It
// does not touch the video-event table, which conceptual documents
// never change. Replacing a stored document is the caller's delete
// followed by InvalidateCaches.
func (db *Database) LoadDocument(doc *webspace.Document) (monetxml.DocID, error) {
	id, err := db.Store.LoadNode(doc.URL, doc.XML())
	if err != nil {
		return 0, err
	}
	ix := db.objects
	if n := len(doc.Objects); n > 0 {
		rel := db.Store.Relation("webspace/object[class]")
		first := rel.Len() - n
		for i, o := range doc.Objects {
			oid := rel.Head(first + i)
			ix.addObject(oid, o.Class, o.ID)
			m := ix.attrs[oid]
			for name, v := range o.Attrs {
				if name != "" {
					m[name] = strings.TrimSpace(v) // what Store.TextOf reads back
				}
			}
		}
	}
	for _, l := range doc.Links {
		ix.addAssoc(l.Association, l.From, l.To)
	}
	return id, nil
}

// ObjectsOfClass returns the element oids of all objects of a class.
func (db *Database) ObjectsOfClass(class string) []bat.OID {
	return append([]bat.OID(nil), db.objects.byClass[class]...)
}

// AttrOf returns an attribute value of an object.
func (db *Database) AttrOf(oid bat.OID, attr string) string {
	return db.objects.attrs[oid][attr]
}

// QIDOf returns the qualified id of an object element.
func (db *Database) QIDOf(oid bat.OID) string { return db.objects.qidOf[oid] }

// OIDOf returns the element oid of a qualified id.
func (db *Database) OIDOf(qid string) (bat.OID, bool) {
	oid, ok := db.objects.oidOf[qid]
	return oid, ok
}

// AssocPairs returns the (from, to) qualified-id pairs of an
// association.
func (db *Database) AssocPairs(name string) [][2]string {
	return db.objects.assocs[name]
}

// --- meta-index access (video events) ---

// ShotEvent is a shot of a video with its recognised event state.
// Tennis marks shots classified as court play; a tennis shot without a
// netplay event is a baseline rally in the COBRA event layer.
type ShotEvent struct {
	Begin, End int
	Tennis     bool
	Netplay    bool
}

// mmoPaths are the parse-tree paths of the tennis grammar's stored
// meta-data.
const (
	pathLocation = "MMO/location"
	pathShot     = "MMO/mm_type/video/segment/shot"
	pathBegin    = "MMO/mm_type/video/segment/shot/begin"
	pathEnd      = "MMO/mm_type/video/segment/shot/end"
	pathNetplay  = "MMO/mm_type/video/segment/shot/type/tennis/event/netplay"
)

// VideoEvents returns the per-video shot/event table derived from the
// meta-index: location URL -> tennis shots with netplay state.
func (db *Database) VideoEvents() map[string][]ShotEvent { return db.events }

// buildVideoEvents derives the video-event table. Everything is
// resolved through the path-named relations the FDE parse trees were
// stored into.
func (db *Database) buildVideoEvents() map[string][]ShotEvent {
	out := map[string][]ShotEvent{}
	shotRel := db.Store.Relation(pathShot)
	if shotRel == nil {
		return out
	}
	// location per MMO root.
	locByRoot := map[bat.OID]string{}
	if locEdge := db.Store.Relation(pathLocation); locEdge != nil {
		for i := 0; i < locEdge.Len(); i++ {
			root := locEdge.Head(i)
			locByRoot[root] = db.Store.TextOf(pathLocation, locEdge.TailOID(i))
		}
	}
	for i := 0; i < shotRel.Len(); i++ {
		shotOID := shotRel.TailOID(i)
		// Owning MMO root: shot -> segment -> video -> mm_type -> MMO.
		path, oid := pathShot, shotOID
		for {
			ppath, poid, ok := db.Store.ParentOf(path, oid)
			if !ok {
				break
			}
			path, oid = ppath, poid
		}
		loc := locByRoot[oid]
		ev := ShotEvent{
			Begin: db.intBelow(pathBegin, shotOID),
			End:   db.intBelow(pathEnd, shotOID),
		}
		// netplay, if the shot was a tennis shot (a tennis shot always
		// carries a netplay event node, true or false).
		for _, npOID := range db.netplayOf(shotOID) {
			ev.Tennis = true
			if db.Store.TextOf(pathNetplay, npOID) == "true" {
				ev.Netplay = true
			}
		}
		out[loc] = append(out[loc], ev)
	}
	for loc := range out {
		sort.Slice(out[loc], func(i, j int) bool { return out[loc][i].Begin < out[loc][j].Begin })
	}
	return out
}

// intBelow reads the frameNo below a shot's begin/end element,
// preferring the typed relation over the character data.
func (db *Database) intBelow(path string, shot bat.OID) int {
	edge := db.Store.Relation(path)
	fEdge := db.Store.Relation(path + "/frameNo")
	if edge == nil || fEdge == nil {
		return 0
	}
	typed := db.Store.Relation(path + "/frameNo[*int]")
	for _, elem := range edge.TailsOfHead(shot) {
		for _, f := range fEdge.TailsOfHead(elem) {
			if typed != nil {
				if v, ok := typed.IntOfHead(f); ok {
					return int(v)
				}
			}
			if v := db.Store.TextOf(path+"/frameNo", f); v != "" {
				if n, err := strconv.Atoi(strings.TrimSpace(v)); err == nil {
					return n
				}
			}
		}
	}
	return 0
}

// netplayOf returns the netplay element oids below a shot, walking the
// edge relations shot → type → tennis → event → netplay.
func (db *Database) netplayOf(shot bat.OID) []bat.OID {
	var out []bat.OID
	typeEdge := db.Store.Relation(pathShot + "/type")
	tennisEdge := db.Store.Relation(pathShot + "/type/tennis")
	eventEdge := db.Store.Relation(pathShot + "/type/tennis/event")
	npEdge := db.Store.Relation(pathNetplay)
	if typeEdge == nil || tennisEdge == nil || eventEdge == nil || npEdge == nil {
		return out
	}
	for _, ty := range typeEdge.TailsOfHead(shot) {
		for _, tn := range tennisEdge.TailsOfHead(ty) {
			for _, ev := range eventEdge.TailsOfHead(tn) {
				out = append(out, npEdge.TailsOfHead(ev)...)
			}
		}
	}
	return out
}
