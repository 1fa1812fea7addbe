package core

import (
	"context"
	"testing"

	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/site"
	"dlsearch/internal/webspace"
)

// TestEngineBackendClusterIngest: a partition hosting a full engine
// (EngineBackend) sees every document the cluster machinery ingests —
// content added through the dist node ranks in conceptual queries over
// the same engine, with oids lined up via the owner objects.
func TestEngineBackendClusterIngest(t *testing.T) {
	e, err := NewAusOpen(site.Generate(7))
	if err != nil {
		t.Fatal(err)
	}
	backend := NewEngineBackend(e, "Player.history")
	if backend.Kind() != "engine" {
		t.Fatalf("kind = %q", backend.Kind())
	}
	if e.IR["Player.history"] == nil || backend.ContentIndex() != e.IR["Player.history"] {
		t.Fatal("backend does not serve the engine-owned index")
	}
	node := dist.NewLocalNodeBackend(backend)

	// The conceptual object arrives first (streaming ingest posts the
	// webspace line before the owned content), then its hypertext body
	// goes through the cluster ingest path.
	doc := &webspace.Document{
		URL: "http://x/p1.html",
		Objects: []*webspace.Object{
			{Class: "Player", ID: "p1", Attrs: map[string]string{
				"name": "Ada", "gender": "female", "hand": "left"}},
		},
	}
	if err := e.AddDocument(doc); err != nil {
		t.Fatal(err)
	}
	oid, ok := e.DB.OIDOf("Player:p1")
	if !ok {
		t.Fatal("Player:p1 has no oid")
	}
	if err := node.AddBatch(context.Background(), []dist.Doc{{OID: oid, URL: doc.URL, Text: "winner of the open"}}); err != nil {
		t.Fatal(err)
	}
	if got := e.IR["Player.history"].DocCount(); got != 1 {
		t.Fatalf("engine index has %d docs after cluster ingest, want 1", got)
	}
	res, err := e.Query("SELECT p.name FROM Player p WHERE contains(p.history, 'winner')")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Values[0] != "Ada" {
		t.Fatalf("conceptual query missed cluster-ingested content: %+v", res.Rows)
	}
}

// TestEngineBackendRestoreRehomesIndex: a full-state resync through the
// node swaps the served index AND re-homes it under the engine, so
// conceptual queries rank against the restored content.
func TestEngineBackendRestoreRehomesIndex(t *testing.T) {
	e, err := NewAusOpen(site.Generate(7))
	if err != nil {
		t.Fatal(err)
	}
	node := dist.NewLocalNodeBackend(NewEngineBackend(e, "Player.history"))
	doc := &webspace.Document{
		URL: "http://x/p1.html",
		Objects: []*webspace.Object{
			{Class: "Player", ID: "p1", Attrs: map[string]string{"name": "Ada"}},
		},
	}
	if err := e.AddDocument(doc); err != nil {
		t.Fatal(err)
	}
	oid, _ := e.DB.OIDOf("Player:p1")
	if err := node.AddBatch(context.Background(), []dist.Doc{{OID: oid, URL: doc.URL, Text: "winner of the open"}}); err != nil {
		t.Fatal(err)
	}

	replacement := ir.NewIndex()
	replacement.Add(oid, doc.URL, "trophy ceremony")
	replacement.Freeze()
	if err := node.RestoreState(context.Background(), replacement.ExportState()); err != nil {
		t.Fatal(err)
	}
	if e.IR["Player.history"] != node.Index() {
		t.Fatal("restore did not re-home the index under the engine")
	}
	res, err := e.Query("SELECT p.name FROM Player p WHERE contains(p.history, 'trophy')")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Values[0] != "Ada" {
		t.Fatalf("restored content not ranked: %+v", res.Rows)
	}
	if res, err = e.Query("SELECT p.name FROM Player p WHERE contains(p.history, 'winner')"); err != nil {
		t.Fatal(err)
	} else if len(res.Rows) != 0 {
		t.Fatalf("pre-restore content still ranked: %+v", res.Rows)
	}
}
