// Package persist is the durability layer of the search engine: a
// versioned binary snapshot format for the full-text meta-index
// (ir.IndexState) so a node survives restarts without reindexing its
// fragment.
//
// Format (all integers little-endian / unsigned varint):
//
//	magic    [8]byte  "DLSNAP\x00\x01"
//	version  uint32   format version (currently 2; readers accept 1)
//	length   uint64   payload length in bytes
//	checksum [32]byte SHA-256 of the payload
//	payload  [length]byte
//
// The payload encodes the logical index state: documents, the
// vocabulary with delta+varint posting lists, the freeze epoch and the
// posting-store memory budget. Everything derived is rebuilt on load
// (ir.ImportState). Two fields stay in the layout for readers older
// than the df-derived cut-off, which kept a fragment placement: the
// writer emits a zero granularity and an empty fragment section, and
// the reader decodes and discards whatever an older writer put there.
//
// Loads fail closed: a truncated file, a flipped bit, an unknown
// version or a payload that decodes to an inconsistent state all yield
// an error (ErrCorrupt for integrity violations) and never a partial
// index — a node must refuse to serve what it cannot prove intact.
//
// SaveFile writes atomically (temp file in the target directory,
// fsync, rename), so a crash mid-snapshot leaves the previous snapshot
// untouched rather than a torn file.
package persist

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"dlsearch/internal/bat"
	"dlsearch/internal/ir"
)

// Version is the current snapshot format version. Version 2 added the
// op-log position (IndexState.LogPos) so a snapshot records exactly
// which log prefix it compacts.
const Version = 2

// magic identifies a dlsearch snapshot file. The trailing bytes leave
// room for a major-format bump that even pre-versioning readers reject.
var magic = [8]byte{'D', 'L', 'S', 'N', 'A', 'P', 0, 1}

// ErrCorrupt reports a snapshot that fails integrity verification:
// bad magic, truncation, checksum mismatch or an undecodable payload.
var ErrCorrupt = errors.New("persist: corrupt snapshot")

// SnapshotFile is the canonical snapshot name inside a node data dir.
const SnapshotFile = "index.snap"

// SnapshotPath returns the canonical snapshot path for a data dir.
func SnapshotPath(dataDir string) string {
	return filepath.Join(dataDir, SnapshotFile)
}

// Save writes the state as one snapshot to w.
func Save(w io.Writer, st *ir.IndexState) error {
	var payload bytes.Buffer
	enc := &encoder{w: bufio.NewWriter(&payload)}
	enc.state(st)
	if err := enc.flush(); err != nil {
		return fmt.Errorf("persist: encode: %w", err)
	}
	sum := sha256.Sum256(payload.Bytes())
	var hdr [8 + 4 + 8 + sha256.Size]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(payload.Len()))
	copy(hdr[20:], sum[:])
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("persist: write header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("persist: write payload: %w", err)
	}
	return nil
}

// Load reads one snapshot from r, verifying the checksum before any
// decoding happens, and returns the decoded state.
func Load(r io.Reader) (*ir.IndexState, error) {
	var hdr [8 + 4 + 8 + sha256.Size]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
	}
	if !bytes.Equal(hdr[:8], magic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	v := binary.LittleEndian.Uint32(hdr[8:12])
	if v == 0 || v > Version {
		return nil, fmt.Errorf("persist: unsupported snapshot version %d (this build reads 1..%d)", v, Version)
	}
	plen := binary.LittleEndian.Uint64(hdr[12:20])
	// Read through a limit reader and compare lengths instead of
	// pre-allocating plen bytes: a corrupt length field must not turn
	// into an allocation bomb.
	payload, err := io.ReadAll(io.LimitReader(r, int64(plen)))
	if err != nil {
		return nil, fmt.Errorf("%w: read payload: %v", ErrCorrupt, err)
	}
	if uint64(len(payload)) != plen {
		return nil, fmt.Errorf("%w: truncated payload: %d of %d bytes", ErrCorrupt, len(payload), plen)
	}
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], hdr[20:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	dec := &decoder{buf: payload, ver: v}
	st := dec.state()
	if dec.err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrCorrupt, dec.err)
	}
	if len(dec.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(dec.buf))
	}
	return st, nil
}

// SaveFile writes the state to path atomically: the snapshot lands in
// a temp file in the same directory, is fsynced, and replaces path by
// rename, so readers (and crashes) only ever observe the previous
// complete snapshot or the new complete snapshot.
func SaveFile(path string, st *ir.IndexState) error {
	return replaceFile(path, func(w io.Writer) error { return Save(w, st) })
}

// replaceFile is the one way this package replaces a durable file:
// write fills a temp file in path's directory, which is fsynced,
// closed and renamed over path, and the directory is synced
// (best-effort: some filesystems reject directory fsync). On any error
// the temp file is removed and path is untouched, so a crash at any
// point leaves either the old file whole or the new one whole, and a
// handle open on the old file keeps reading it.
func replaceFile(path string, write func(io.Writer) error) error {
	dir, name := filepath.Dir(path), filepath.Base(path)
	tmp, err := os.CreateTemp(dir, "."+name+"-*")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	err = write(tmp)
	if err == nil {
		if err = tmp.Sync(); err != nil {
			err = fmt.Errorf("persist: sync %s: %w", name, err)
		}
	}
	if cerr := tmp.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("persist: close %s: %w", name, cerr)
	}
	if err == nil {
		if err = os.Rename(tmp.Name(), path); err != nil {
			err = fmt.Errorf("persist: rename %s: %w", name, err)
		}
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// SizeOf returns the encoded size of a full snapshot of st in bytes —
// the transfer cost of a full-snapshot resync, which delta resyncs
// report their shipped bytes against.
func SizeOf(st *ir.IndexState) (int64, error) {
	var n countingWriter
	if err := Save(&n, st); err != nil {
		return 0, err
	}
	return int64(n), nil
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// LoadFile reads the snapshot at path. A missing file reports
// fs.ErrNotExist (first boot — distinguishable from corruption).
func LoadFile(path string) (*ir.IndexState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(bufio.NewReader(f))
}

// SaveIndex exports ix (freezing it) and writes the snapshot to path
// atomically. The caller must hold the index's write side.
func SaveIndex(path string, ix *ir.Index) error {
	return SaveFile(path, ix.ExportState())
}

// LoadIndex reads the snapshot at path and rebuilds the index.
func LoadIndex(path string) (*ir.Index, error) {
	st, err := LoadFile(path)
	if err != nil {
		return nil, err
	}
	ix, err := ir.ImportState(st)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return ix, nil
}

// encoder serialises the payload. The first error sticks; every write
// after it is a no-op, so call sites stay linear.
type encoder struct {
	w   *bufio.Writer
	err error
	tmp [binary.MaxVarintLen64]byte
}

func (e *encoder) flush() error {
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

func (e *encoder) uvarint(v uint64) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(e.tmp[:binary.PutUvarint(e.tmp[:], v)])
}

func (e *encoder) f64(v float64) {
	if e.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(e.tmp[:8], math.Float64bits(v))
	_, e.err = e.w.Write(e.tmp[:8])
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	if e.err != nil {
		return
	}
	_, e.err = e.w.WriteString(s)
}

func (e *encoder) state(st *ir.IndexState) {
	e.f64(st.Lambda)
	e.uvarint(st.Epoch)
	e.uvarint(uint64(st.NextOID))
	mb := st.MemBudget
	if mb < 0 {
		mb = 0
	}
	e.uvarint(uint64(mb))
	e.uvarint(0) // legacy fragmentation granularity
	e.uvarint(st.LogPos)
	e.uvarint(uint64(len(st.Docs)))
	for _, d := range st.Docs {
		e.uvarint(uint64(d.OID))
		e.uvarint(uint64(d.Len))
		e.str(d.URL)
	}
	e.uvarint(uint64(len(st.Terms)))
	for _, t := range st.Terms {
		e.uvarint(uint64(t.OID))
		e.str(t.Stem)
		e.uvarint(uint64(len(t.Postings)))
		prev := uint64(0)
		for _, p := range t.Postings {
			// Postings are doc-ascending (the frozen access-path
			// order), so gaps delta-encode compactly, mirroring the
			// in-memory CompressedPostings layout.
			e.uvarint(uint64(p.Doc) - prev)
			prev = uint64(p.Doc)
			e.uvarint(uint64(p.TF))
		}
	}
	e.uvarint(0) // legacy fragment section: none
}

// decoder deserialises the payload, mirroring encoder. The checksum
// has already been verified, so decode errors indicate a format bug or
// a malicious payload, not bit rot — they still fail closed.
type decoder struct {
	buf []byte
	err error
	// ver is the snapshot format version being decoded (fields added
	// in later versions are absent below it). Zero means "current" —
	// non-snapshot users of the decoder (op-log payloads) never
	// versioned their framing.
	ver uint32
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = errors.New(msg)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("short varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fail("short float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[:8]))
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.buf)) < n {
		d.fail("short string")
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// count reads a collection length and sanity-bounds it against the
// remaining payload (at least min bytes per element must follow), so
// slice pre-allocation is always covered by real bytes.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if min > 0 && n > uint64(len(d.buf)/min) {
		d.fail("count exceeds payload")
		return 0
	}
	return int(n)
}

func (d *decoder) state() *ir.IndexState {
	st := &ir.IndexState{
		Lambda:    d.f64(),
		Epoch:     d.uvarint(),
		NextOID:   bat.OID(d.uvarint()),
		MemBudget: int(d.uvarint()),
	}
	d.uvarint() // legacy fragmentation granularity
	if d.ver != 1 {
		// Version 2 added the op-log position. A v1 snapshot predates
		// the op log entirely, so "position 0 = no log prefix covered"
		// is exactly its meaning — the next save writes version 2.
		st.LogPos = d.uvarint()
	}
	st.Docs = make([]ir.DocState, d.count(3))
	for i := range st.Docs {
		st.Docs[i] = ir.DocState{
			OID: bat.OID(d.uvarint()),
			Len: int32(d.uvarint()),
			URL: d.str(),
		}
	}
	st.Terms = make([]ir.TermState, d.count(4))
	for i := range st.Terms {
		t := ir.TermState{OID: bat.OID(d.uvarint()), Stem: d.str()}
		t.Postings = make([]ir.Posting, d.count(2))
		doc := uint64(0)
		for j := range t.Postings {
			doc += d.uvarint()
			t.Postings[j] = ir.Posting{Doc: bat.OID(doc), TF: int(d.uvarint())}
		}
		st.Terms[i] = t
	}
	if d.uvarint() == 1 {
		// A legacy fragment placement: decoded to its bounds and dropped,
		// since the cut-off derives every term's fragment from its df.
		for range d.count(18) {
			d.f64()
			d.f64()
			d.uvarint()
			for range d.count(1) {
				d.uvarint()
			}
		}
	}
	return st
}
