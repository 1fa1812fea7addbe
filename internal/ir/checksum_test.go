package ir

import (
	"testing"

	"dlsearch/internal/bat"
)

// TestChecksumCanonical: the content checksum depends only on the
// logical content — not on insertion order, term-oid assignment or
// fragmentation — and the exported state digests identically to the
// live index.
func TestChecksumCanonical(t *testing.T) {
	docs := []struct {
		oid  bat.OID
		text string
	}{
		{1, "champion trophy melbourne"},
		{2, "winner serve ace"},
		{3, "champion volley smash rally"},
	}
	a := NewIndex()
	for _, d := range docs {
		a.Add(d.oid, "u", d.text)
	}
	b := NewIndex()
	for i := len(docs) - 1; i >= 0; i-- { // reverse order: different slots AND term oids
		b.Add(docs[i].oid, "u", docs[i].text)
	}
	ca, cb := a.Checksum(), b.Checksum()
	if ca == "" || ca != cb {
		t.Fatalf("insertion order changed the checksum:\n a %s\n b %s", ca, cb)
	}
	if cs := a.ExportState().Checksum(); cs != ca {
		t.Fatalf("state checksum %s != index checksum %s", cs, ca)
	}
	// Compression is a per-replica physical choice, and a budgeted
	// evaluation caches a cut-off table: neither may move the content
	// checksum.
	a.Evaluate(Request{Query: "winner", Plan: EvalPlan{N: 1, Budget: 1}})
	a.SetMemoryBudget(16)
	if got := a.Checksum(); got != ca {
		t.Fatalf("physical layout changed the checksum: %s != %s", got, ca)
	}
	// A restored index digests identically to its source.
	restored, err := ImportState(a.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Checksum(); got != ca {
		t.Fatalf("restore changed the checksum: %s != %s", got, ca)
	}
	// Content changes move it — including a tf fold into an existing
	// document and a document whose text indexes no terms at all.
	b.Add(2, "u", "ace")
	cFold := b.Checksum()
	if cFold == ca {
		t.Fatal("tf fold did not change the checksum")
	}
	b.Add(9, "u", "")
	if got := b.Checksum(); got == cFold {
		t.Fatal("empty document did not change the checksum")
	}
}

// TestChecksumDistinguishesContent: same statistics fingerprint
// (Docs, TotalDF), different content — the case the checksum exists
// to catch, because the global-stats fingerprint cannot.
func TestChecksumDistinguishesContent(t *testing.T) {
	a := NewIndex()
	a.Add(1, "u", "champion champion")
	a.Add(2, "u", "trophy")
	b := NewIndex()
	b.Add(1, "u", "trophy")
	b.Add(2, "u", "champion champion")
	sa, sb := a.StatsLocal(), b.StatsLocal()
	if sa.Docs != sb.Docs || sa.TotalDF != sb.TotalDF {
		t.Fatalf("fixture broken: fingerprints differ (%+v vs %+v)", sa, sb)
	}
	if a.Checksum() == b.Checksum() {
		t.Fatal("swapped documents digest identically")
	}
}

// TestHasDoc: membership over live and restored indexes.
func TestHasDoc(t *testing.T) {
	ix := NewIndex()
	ix.Add(7, "u", "champion")
	if !ix.HasDoc(7) || ix.HasDoc(8) {
		t.Fatalf("HasDoc(7)=%v HasDoc(8)=%v", ix.HasDoc(7), ix.HasDoc(8))
	}
	restored, err := ImportState(ix.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if !restored.HasDoc(7) || restored.HasDoc(8) {
		t.Fatal("restored index lost document membership")
	}
}

// TestAdvanceEpoch: the epoch moves strictly past the given point and
// never backwards.
func TestAdvanceEpoch(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, "u", "champion")
	ix.Freeze()
	e := ix.Epoch()
	ix.AdvanceEpoch(e)
	if ix.Epoch() != e+1 {
		t.Fatalf("epoch = %d, want %d", ix.Epoch(), e+1)
	}
	ix.AdvanceEpoch(e) // already past: no-op
	if ix.Epoch() != e+1 {
		t.Fatalf("epoch moved backwards: %d", ix.Epoch())
	}
	ix.AdvanceEpoch(e + 10)
	if ix.Epoch() != e+11 {
		t.Fatalf("epoch = %d, want %d", ix.Epoch(), e+11)
	}
}
