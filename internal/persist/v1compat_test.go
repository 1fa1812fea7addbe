package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"dlsearch/internal/ir"
)

// rewriteAsV1 converts a freshly saved v2 snapshot into a faithful v1
// file: the LogPos uvarint (the only v2 addition) is spliced out of
// the payload and the header re-stamped with version 1 and the new
// length/checksum.
func rewriteAsV1(t *testing.T, v2 []byte) []byte {
	t.Helper()
	const hdrLen = 8 + 4 + 8 + sha256.Size
	payload := append([]byte{}, v2[hdrLen:]...)
	off := 8                 // Lambda (f64)
	for i := 0; i < 4; i++ { // Epoch, NextOID, MemBudget, legacy granularity
		_, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			t.Fatal("bad varint while locating LogPos")
		}
		off += n
	}
	_, n := binary.Uvarint(payload[off:])
	if n <= 0 {
		t.Fatal("bad LogPos varint")
	}
	payload = append(payload[:off], payload[off+n:]...)
	out := append([]byte{}, v2[:hdrLen]...)
	binary.LittleEndian.PutUint32(out[8:12], 1)
	binary.LittleEndian.PutUint64(out[12:20], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(out[20:hdrLen], sum[:])
	return append(out, payload...)
}

// TestLoadV1Snapshot: a node upgraded to the v2 (op-log) build must
// boot on its existing v1 snapshot — LogPos defaults to 0 ("no log
// prefix covered", so the whole log replays), never an "unsupported
// version" fatal that forces a manual -resync.
func TestLoadV1Snapshot(t *testing.T) {
	ix := snapCorpus(40, 11)
	st := ix.ExportState()
	st.LogPos = 777 // spliced out by the v1 rewrite; v1 readers must see 0
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(rewriteAsV1(t, buf.Bytes())))
	if err != nil {
		t.Fatalf("load v1 snapshot: %v", err)
	}
	if got.LogPos != 0 {
		t.Fatalf("v1 LogPos=%d, want 0", got.LogPos)
	}
	if len(got.Docs) != len(st.Docs) || len(got.Terms) != len(st.Terms) {
		t.Fatalf("v1 decode: %d docs / %d terms, want %d / %d",
			len(got.Docs), len(got.Terms), len(st.Docs), len(st.Terms))
	}
	// The full v1 boot path: the decoded state rebuilds a serving index.
	restored, err := ir.ImportState(got)
	if err != nil {
		t.Fatalf("import v1 state: %v", err)
	}
	if restored.DocCount() != ix.DocCount() {
		t.Fatalf("restored %d docs, want %d", restored.DocCount(), ix.DocCount())
	}
	// Unknown versions still fail closed in both directions.
	for _, v := range []uint32{0, Version + 1} {
		bad := append([]byte{}, buf.Bytes()...)
		binary.LittleEndian.PutUint32(bad[8:12], v)
		if _, err := Load(bytes.NewReader(bad)); err == nil {
			t.Fatalf("version %d must fail closed", v)
		}
	}
}

// withLegacyFragments rewrites a freshly saved snapshot into what a
// writer from before the df-derived cut-off saved for a fragmented
// index: a non-zero granularity and a fragment section of two
// fragments (idf bounds, tuple count, term oids) in place of the empty
// one, the header re-stamped.
func withLegacyFragments(t *testing.T, snap []byte) []byte {
	t.Helper()
	const hdrLen = 8 + 4 + 8 + sha256.Size
	payload := append([]byte{}, snap[hdrLen:]...)
	off := 8                 // Lambda (f64)
	for i := 0; i < 3; i++ { // Epoch, NextOID, MemBudget
		_, n := binary.Uvarint(payload[off:])
		off += n
	}
	if payload[off] != 0 || payload[len(payload)-1] != 0 {
		t.Fatal("the writer emitted a granularity or a fragment section")
	}
	payload[off] = 4 // granularity 4
	section := []byte{1, 2}
	for f, terms := range [][]byte{{1, 2}, {3}} {
		section = binary.LittleEndian.AppendUint64(section, math.Float64bits(1/float64(f+1)))
		section = binary.LittleEndian.AppendUint64(section, math.Float64bits(1/float64(f+2)))
		section = append(section, byte(10*(f+1)), byte(len(terms)))
		section = append(section, terms...)
	}
	payload = append(payload[:len(payload)-1], section...)
	out := append([]byte{}, snap[:hdrLen]...)
	binary.LittleEndian.PutUint64(out[12:20], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(out[20:hdrLen], sum[:])
	return append(out, payload...)
}

// TestLoadLegacyFragmentSection: the writer emits the empty fragment
// encoding (so an older reader sees an unfragmented index), and a
// snapshot an older writer saved with a fragment placement loads to the
// same state, its placement decoded and dropped.
func TestLoadLegacyFragmentSection(t *testing.T) {
	ix := snapCorpus(40, 13)
	var buf bytes.Buffer
	if err := Save(&buf, ix.ExportState()); err != nil {
		t.Fatal(err)
	}
	want, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	legacy := withLegacyFragments(t, buf.Bytes())
	got, err := Load(bytes.NewReader(legacy))
	if err != nil {
		t.Fatalf("load legacy snapshot: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the legacy fragment section changed the decoded state")
	}
	// The legacy section is held to its count bounds: a fragment count
	// the payload cannot hold fails closed.
	hdrLen := 8 + 4 + 8 + sha256.Size
	bad := append([]byte{}, legacy...)
	bad[len(bad)-2*(8+8+2)-3-1] = 0x7f // the fragment count
	sum := sha256.Sum256(bad[hdrLen:])
	copy(bad[20:hdrLen], sum[:])
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("an oversized legacy fragment count must fail closed")
	}
}
