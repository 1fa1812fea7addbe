package core

import (
	"fmt"

	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/monetxml"
	"dlsearch/internal/webspace"
)

// EngineBackend serves one of an engine's per-attribute full-text
// indexes ("Class.attr") as a dist.SearchBackend, so a cluster
// partition can host the full conceptual engine: the node's cluster
// machinery (statistics aggregation, budgeted plans, replication,
// resync) runs against the engine-owned index, while conceptual
// queries over the same engine see every document the cluster ingests.
type EngineBackend struct {
	e   *Engine
	key string
	ix  *ir.Index
}

// NewEngineBackend exposes the engine's index for key ("Class.attr")
// as a search backend, creating the index if the engine does not have
// one yet (a cold partition that will be filled over the wire).
func NewEngineBackend(e *Engine, key string) *EngineBackend {
	ix := e.IR[key]
	if ix == nil {
		ix = ir.NewIndex()
		e.IR[key] = ix
	}
	return &EngineBackend{e: e, key: key, ix: ix}
}

// Kind implements dist.SearchBackend.
func (b *EngineBackend) Kind() string { return "engine" }

// ContentIndex implements dist.SearchBackend.
func (b *EngineBackend) ContentIndex() *ir.Index { return b.ix }

// ApplyDocs implements dist.SearchBackend: ingested content lands in
// the engine-owned index, exactly as Populate's Hypertext path does.
func (b *EngineBackend) ApplyDocs(docs []dist.Doc) {
	for _, d := range docs {
		b.ix.Add(d.OID, d.URL, d.Text)
	}
}

// SwapIndex implements dist.SearchBackend: a full-state resync
// re-homes the restored index under the engine, so later conceptual
// queries rank against the restored content. The engine's query cache
// is keyed by index pointer, so entries for the old index simply stop
// matching.
func (b *EngineBackend) SwapIndex(ix *ir.Index) {
	b.ix = ix
	b.e.IR[b.key] = ix
}

// AddDocument stores one conceptual webspace document incrementally —
// the streaming-ingest counterpart of Populate's bulk document loop.
// A re-posted URL replaces the previous version (delete + reload, like
// meta-index maintenance does). A new URL extends the database's access
// paths in O(document); a repost, already O(store) in the store's
// delete, rebuilds them. Either way a query or owner lookup right after
// needs no rebuild of its own.
func (e *Engine) AddDocument(doc *webspace.Document) error {
	if err := doc.Validate(e.Schema); err != nil {
		return err
	}
	var id monetxml.DocID
	var err error
	if old, ok := e.conceptDocs[doc.URL]; ok {
		if err := e.Store.DeleteDoc(old); err != nil {
			return fmt.Errorf("core: replace %s: %w", doc.URL, err)
		}
		id, err = e.Store.LoadNode(doc.URL, doc.XML())
		e.DB.InvalidateCaches()
	} else {
		id, err = e.DB.LoadDocument(doc)
	}
	if err != nil {
		return fmt.Errorf("core: store %s: %w", doc.URL, err)
	}
	e.conceptDocs[doc.URL] = id
	return nil
}
