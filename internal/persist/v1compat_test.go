package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
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
	for i := 0; i < 4; i++ { // Epoch, NextOID, MemBudget, FragK
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
