// The op log is the crash-safety half of the durability layer: an
// append-only file of checksummed ingest records that is written —
// and fsynced — BEFORE a document is applied to the in-memory index.
// Recovery on boot is the last snapshot plus a replay of the log
// suffix past the snapshot's recorded position; because ingest is
// idempotent per document oid at the node boundary, replaying an
// over-long suffix is safe by construction.
//
// The log is also the replication delta stream: a lagging replica
// resyncs by shipping only the records past its own position
// (Cluster.ResyncReplica), instead of the whole fragment.
//
// File format (all integers little-endian / unsigned varint):
//
//	magic    [8]byte  "DLOPLG\x00\x01"
//	version  uint32   format version (currently 1)
//	base     uint64   position of the file's first record
//	record*:
//	  length   uvarint  payload length in bytes
//	  checksum [32]byte SHA-256 of the payload
//	  payload  [length]byte  — one Op: doc uvarint, url str, text str
//
// A record's POSITION is base plus its index in the file: position p
// means "p operations precede this one in this node's history".
// Compaction (a snapshot at position p) rewrites the file with
// base = p, dropping the records a snapshot now covers. Creation,
// compaction and reset all write a whole new file through replaceFile
// (temp file, fsync, rename), so a crash mid-rewrite leaves the
// previous log intact, and a file cut inside its header can only be
// corruption.
//
// Failure semantics mirror the snapshot format's, with one deliberate
// asymmetry: a record cut short by the end of the file — the torn
// tail a kill -9 mid-append leaves — is truncated away on open
// (fail-safe: the operation never acknowledged, so dropping it is
// correct), while a record whose bytes are all present but whose
// checksum disagrees is interior corruption and fails closed with
// ErrCorrupt, exactly like a corrupt snapshot. A length field that
// exceeds MaxOpBytes also fails closed: it cannot be a torn tail of a
// record this log could have written.
package persist

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dlsearch/internal/bat"
	"dlsearch/internal/obs"
)

// OpLogVersion is the current op-log format version.
const OpLogVersion = 1

// OpLogFile is the canonical op-log name inside a node data dir.
const OpLogFile = "ops.log"

// MaxOpBytes bounds one record's payload. A length above it cannot
// have been written by this code, so it is corruption, not a torn
// tail — failing closed beats silently truncating every record that
// happens to follow a flipped length bit.
const MaxOpBytes = 1 << 30

// oplogMagic identifies a dlsearch op-log file.
var oplogMagic = [8]byte{'D', 'L', 'O', 'P', 'L', 'G', 0, 1}

// logHeaderSize is the magic/version/base header that opens both a log
// file and a delta stream.
const logHeaderSize = 8 + 4 + 8

// putLogHeader encodes the header for base into hdr.
func putLogHeader(hdr []byte, base uint64) {
	copy(hdr[:8], oplogMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], OpLogVersion)
	binary.LittleEndian.PutUint64(hdr[12:20], base)
}

// readLogHeader reads and checks the header, returning its base; what
// ("oplog" or "delta") names the stream in errors. A short, foreign or
// damaged header is ErrCorrupt; an unknown version is not.
func readLogHeader(r io.Reader, what string) (uint64, error) {
	var hdr [logHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("%w: %s header truncated: %v", ErrCorrupt, what, err)
	}
	if !bytes.Equal(hdr[:8], oplogMagic[:]) {
		return 0, fmt.Errorf("%w: bad %s magic", ErrCorrupt, what)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != OpLogVersion {
		return 0, fmt.Errorf("persist: unsupported %s version %d (this build reads %d)", what, v, OpLogVersion)
	}
	return binary.LittleEndian.Uint64(hdr[12:20]), nil
}

// ErrLogGap reports a read below the log's base position: the
// requested suffix was compacted away and only a full snapshot can
// cover it.
var ErrLogGap = errors.New("persist: position compacted out of the op log")

// OpLogPath returns the canonical op-log path for a data dir.
func OpLogPath(dir string) string { return filepath.Join(dir, OpLogFile) }

// Op is one logged ingest operation: index one document. Replay is
// idempotent per document oid (the node boundary treats oids as
// write-once), which is what makes over-replay after a crash or a
// duplicated delta safe.
type Op struct {
	Doc  bat.OID
	URL  string
	Text string
}

// OpLog is a crash-safe append-only operation log. All methods are
// safe for concurrent use; Append is atomic with respect to readers
// of the same OpLog (OpsSince never observes a half-written record).
type OpLog struct {
	mu   sync.Mutex
	f    *os.File
	path string
	base uint64 // position of the file's first record
	pos  uint64 // position after the last record (base + record count)
	size int64  // byte offset just past the last acknowledged record
	// truncated reports how many torn-tail bytes the last Open dropped.
	truncated int64
	// failed, once set, poisons the log: a failed append left bytes in
	// the file that could not be truncated away, so further appends
	// would land after garbage and turn it into interior corruption.
	failed error
	// appendH and fsyncH, when set, observe append (whole call) and
	// fsync durations in seconds. Observing is nil-safe, so the hot
	// path records unconditionally.
	appendH *obs.Histogram
	fsyncH  *obs.Histogram
}

// Instrument attaches duration histograms to the log: appendH observes
// every durable Append end to end, fsyncH just the fsync inside it.
// Attach at boot, before the log is shared; either may be nil.
func (l *OpLog) Instrument(appendH, fsyncH *obs.Histogram) {
	l.mu.Lock()
	l.appendH = appendH
	l.fsyncH = fsyncH
	l.mu.Unlock()
}

// OpenOpLog opens (or creates) the op log in dir, verifying every
// record: a torn tail is truncated away (the write never acknowledged)
// and the log opens at the last intact record, while interior
// corruption — a checksum mismatch on a fully present record, or an
// impossible length — fails closed with ErrCorrupt.
func OpenOpLog(dir string) (*OpLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: oplog dir: %w", err)
	}
	path := OpLogPath(dir)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: open oplog: %w", err)
	}
	l := &OpLog{f: f, path: path}
	if err := l.recover(); err != nil {
		l.f.Close()
		return nil, err
	}
	return l, nil
}

// recover scans the freshly opened file, establishing base/pos and
// truncating a torn tail. The caller holds no lock yet (construction).
func (l *OpLog) recover() error {
	fi, err := l.f.Stat()
	if err != nil {
		return fmt.Errorf("persist: oplog stat: %w", err)
	}
	if fi.Size() == 0 {
		// Fresh log: replace it with a header for base 0.
		return l.rewrite(0, 0)
	}
	r := bufio.NewReader(io.NewSectionReader(l.f, 0, fi.Size()))
	if l.base, err = readLogHeader(r, "oplog"); err != nil {
		return err
	}
	l.pos = l.base
	good := int64(logHeaderSize) // offset past the last intact record
	for {
		_, n, err := readRecord(r)
		if err == nil {
			good += n
			l.pos++
			continue
		}
		if errors.Is(err, io.EOF) && n == 0 {
			break // clean end of log
		}
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// Torn tail: the record ran out of file. The operation it
			// framed was never acknowledged — drop it.
			l.truncated = fi.Size() - good
			if err := l.f.Truncate(good); err != nil {
				return fmt.Errorf("persist: truncate torn oplog tail: %w", err)
			}
			if err := l.f.Sync(); err != nil {
				return fmt.Errorf("persist: sync truncated oplog: %w", err)
			}
			break
		}
		return err // interior corruption: fail closed
	}
	l.size = good
	if _, err := l.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("persist: oplog seek: %w", err)
	}
	return nil
}

// Base returns the position of the first record still in the log:
// deltas from positions below it were compacted into a snapshot.
func (l *OpLog) Base() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// Pos returns the position after the last appended record — the
// node's log position, recorded in snapshots and compared by the
// delta-resync path.
func (l *OpLog) Pos() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pos
}

// TruncatedBytes reports how many torn-tail bytes the open dropped
// (0 when the log was intact) — surfaced so boot logs can say a crash
// was recovered from rather than silently absorbing it.
func (l *OpLog) TruncatedBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncated
}

// Path returns the log file's path.
func (l *OpLog) Path() string { return l.path }

// Append durably appends ops as one write followed by one fsync and
// advances the position by len(ops). It returns only after the
// records are on stable storage — the write-ahead contract: callers
// apply to the in-memory index strictly after Append returns nil. On
// error nothing is acknowledged, and any bytes the failed write left
// behind are truncated away immediately: the process keeps running, so
// leaving them for the next Open's torn-tail recovery would let the
// NEXT successful append land after the garbage and turn it into
// interior corruption. If that truncation itself fails the log is
// poisoned — every later Append refuses rather than gamble.
func (l *OpLog) Append(ops ...Op) error {
	if len(ops) == 0 {
		return nil
	}
	var buf bytes.Buffer
	for i := range ops {
		appendRecord(&buf, &ops[i])
	}
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return fmt.Errorf("persist: oplog failed, refusing append: %w", l.failed)
	}
	if _, err := l.f.Write(buf.Bytes()); err != nil {
		l.rollback(err)
		return fmt.Errorf("persist: oplog append: %w", err)
	}
	syncStart := time.Now()
	if err := l.f.Sync(); err != nil {
		// After a failed fsync the kernel may have dropped the dirty
		// pages: what is on disk past the last acknowledged record is
		// unknowable, so those bytes are unacknowledged garbage either
		// way — truncate them like a failed write.
		l.rollback(err)
		return fmt.Errorf("persist: oplog sync: %w", err)
	}
	l.fsyncH.ObserveSince(syncStart)
	l.pos += uint64(len(ops))
	l.size += int64(buf.Len())
	l.appendH.ObserveSince(start)
	return nil
}

// rollback restores the file to end exactly at the last acknowledged
// record after a failed append (caller holds l.mu). A rollback that
// cannot complete poisons the log instead of leaving interior garbage
// for future appends to bury.
func (l *OpLog) rollback(cause error) {
	if err := l.f.Truncate(l.size); err != nil {
		l.failed = fmt.Errorf("append failed (%v), truncate to last good offset %d also failed: %w", cause, l.size, err)
		return
	}
	if _, err := l.f.Seek(l.size, io.SeekStart); err != nil {
		l.failed = fmt.Errorf("append failed (%v), seek to last good offset %d also failed: %w", cause, l.size, err)
		return
	}
	// Best-effort: persist the truncation. If this sync fails the torn
	// bytes are gone from the file's logical size anyway, which is what
	// protects later appends.
	l.f.Sync()
}

// OpsSince returns every op from position from (inclusive) to the
// current position — the delta a replica at position from is missing.
// A from below the log's base reports ErrLogGap (the suffix was
// compacted away; only a full snapshot covers it); a from at or past
// the current position returns an empty delta.
func (l *OpLog) OpsSince(from uint64) ([]Op, error) {
	var out []Op
	if err := l.Replay(from, func(op Op) error {
		out = append(out, op)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Replay streams every op from position from to fn in order, one
// record at a time as it is read, stopping at fn's first error: memory
// is one record, not the suffix, so boot recovery folds a large log
// into the index without holding the log beside it. It fails like
// OpsSince (ErrLogGap, or a record that no longer verifies), after
// handing fn every op before the failing record. fn runs under the
// log's lock and must not call back into the log.
func (l *OpLog) Replay(from uint64, fn func(Op) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records(from, fn)
}

// records is Replay with l.mu held: it verifies every record from base
// and hands fn those at or past from.
func (l *OpLog) records(from uint64, fn func(Op) error) error {
	if from < l.base {
		return fmt.Errorf("%w: want %d, log starts at %d", ErrLogGap, from, l.base)
	}
	if from >= l.pos {
		return nil
	}
	r := bufio.NewReader(io.NewSectionReader(l.f, logHeaderSize, l.size-logHeaderSize))
	for p := l.base; p < l.pos; p++ {
		op, _, err := readRecord(r)
		if err != nil {
			return fmt.Errorf("persist: oplog read at position %d: %w", p, err)
		}
		if p < from {
			continue // verified, then skipped: records have no index
		}
		if err := fn(op); err != nil {
			return err
		}
	}
	return nil
}

// Compact drops every record below keepFrom — typically the position
// a just-written snapshot recorded, which now covers them. Records at
// or past keepFrom (appended after the snapshot's cut) are kept, and
// the log is rewritten atomically (rewrite), so a crash mid-compaction
// leaves the previous log intact. A keepFrom past the current position
// is clamped; one at or below base is a no-op (already compacted).
func (l *OpLog) Compact(keepFrom uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	keepFrom = min(keepFrom, l.pos)
	if keepFrom <= l.base {
		return nil
	}
	return l.rewrite(keepFrom, keepFrom)
}

// Reset replaces the log with an empty one starting at base — the
// position of the full snapshot that just replaced this node's whole
// state (RestoreState): every logged record is subsumed by it. Like
// Compact it rewrites atomically, so a crash mid-reset leaves the old
// log whole.
func (l *OpLog) Reset(base uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rewrite(base, l.pos)
}

// rewrite is the only code that writes a log file's header: it
// replaces the file (replaceFile) with one based at base that holds the
// records from position from to pos, then reopens it. The records are
// streamed one at a time, so memory is one record, not the surviving
// suffix. The caller holds l.mu (or owns l, during recover).
func (l *OpLog) rewrite(base, from uint64) error {
	size := int64(logHeaderSize)
	err := replaceFile(l.path, func(f io.Writer) error {
		w := bufio.NewWriterSize(f, 1<<16)
		var hdr [logHeaderSize]byte
		putLogHeader(hdr[:], base)
		w.Write(hdr[:]) // a bufio.Writer's error sticks until Flush
		var rec bytes.Buffer
		if err := l.records(from, func(op Op) error {
			rec.Reset()
			appendRecord(&rec, &op)
			size += int64(rec.Len())
			_, err := w.Write(rec.Bytes())
			return err
		}); err != nil {
			return err
		}
		return w.Flush()
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(l.path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("persist: oplog reopen: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("persist: oplog seek: %w", err)
	}
	l.f.Close()
	l.f = f
	l.pos = base + (l.pos - from)
	l.base = base
	l.size = size
	return nil
}

// Close closes the log file. Appends after Close fail.
func (l *OpLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// appendRecord encodes one framed record into buf.
func appendRecord(buf *bytes.Buffer, op *Op) {
	var payload bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) { payload.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	str := func(s string) { put(uint64(len(s))); payload.WriteString(s) }
	put(uint64(op.Doc))
	str(op.URL)
	str(op.Text)
	sum := sha256.Sum256(payload.Bytes())
	buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(payload.Len()))])
	buf.Write(sum[:])
	buf.Write(payload.Bytes())
}

// recordSize returns the framed size of one op — how many log bytes a
// delta of these ops ships.
func recordSize(op *Op) int64 {
	payload := binary.PutUvarint(make([]byte, binary.MaxVarintLen64), uint64(op.Doc)) +
		uvarintLen(uint64(len(op.URL))) + len(op.URL) +
		uvarintLen(uint64(len(op.Text))) + len(op.Text)
	return int64(uvarintLen(uint64(payload)) + sha256.Size + payload)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// OpsSize returns the framed size of a delta in bytes — the transfer
// cost a delta resync reports against a full snapshot's size.
func OpsSize(ops []Op) int64 {
	var n int64
	for i := range ops {
		n += recordSize(&ops[i])
	}
	return n
}

// readRecord decodes one framed record from r, returning the op and
// how many bytes the record occupied. io.EOF with n == 0 is a clean
// end; io.EOF / io.ErrUnexpectedEOF with n > 0 marks a torn record
// (callers decide whether to truncate); any other error wraps
// ErrCorrupt.
func readRecord(r *bufio.Reader) (Op, int64, error) {
	length, err := binary.ReadUvarint(r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			// Not a single byte of this record exists: clean end of log.
			return Op{}, 0, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			// ReadUvarint reports io.ErrUnexpectedEOF once the file ends
			// after ≥1 byte of the varint — a write torn mid-length (any
			// payload ≥128 bytes has a multi-byte length varint). That is
			// a torn tail, not corruption: the record was never
			// acknowledged.
			return Op{}, 1, io.ErrUnexpectedEOF
		}
		return Op{}, 0, fmt.Errorf("%w: oplog record length: %v", ErrCorrupt, err)
	}
	if length > MaxOpBytes {
		return Op{}, 1, fmt.Errorf("%w: oplog record length %d exceeds limit", ErrCorrupt, length)
	}
	var sum [sha256.Size]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return Op{}, 1, fmt.Errorf("torn oplog checksum: %w", io.ErrUnexpectedEOF)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Op{}, 1, fmt.Errorf("torn oplog payload: %w", io.ErrUnexpectedEOF)
	}
	if got := sha256.Sum256(payload); !bytes.Equal(got[:], sum[:]) {
		return Op{}, 1, fmt.Errorf("%w: oplog record checksum mismatch", ErrCorrupt)
	}
	op, err := decodeOpPayload(payload)
	if err != nil {
		return Op{}, 1, err
	}
	n := int64(uvarintLen(length)) + sha256.Size + int64(length)
	return op, n, nil
}

// decodeOpPayload decodes one op payload (checksum already verified).
func decodeOpPayload(payload []byte) (Op, error) {
	d := &decoder{buf: payload}
	op := Op{Doc: bat.OID(d.uvarint()), URL: d.str(), Text: d.str()}
	if d.err != nil {
		return Op{}, fmt.Errorf("%w: oplog op decode: %v", ErrCorrupt, d.err)
	}
	if len(d.buf) != 0 {
		return Op{}, fmt.Errorf("%w: oplog op: %d trailing bytes", ErrCorrupt, len(d.buf))
	}
	return op, nil
}

// The delta wire format ships a log suffix between nodes
// (GET/POST /node/oplog): a header naming the starting position and
// record count, then the records in the log's own framing — the
// per-record checksums travel with the data, so a corrupted transfer
// fails closed on the receiving side.
//
//	magic    [8]byte  "DLOPLG\x00\x01"
//	version  uint32
//	from     uint64   position of the first shipped record
//	count    uint64   records that follow
//	record*  (log record framing)

// EncodeOps writes a delta stream to w.
func EncodeOps(w io.Writer, from uint64, ops []Op) error {
	var hdr [logHeaderSize + 8]byte
	putLogHeader(hdr[:], from)
	binary.LittleEndian.PutUint64(hdr[logHeaderSize:], uint64(len(ops)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("persist: delta header: %w", err)
	}
	var buf bytes.Buffer
	for i := range ops {
		buf.Reset()
		appendRecord(&buf, &ops[i])
		if _, err := w.Write(buf.Bytes()); err != nil {
			return fmt.Errorf("persist: delta record: %w", err)
		}
	}
	return nil
}

// DecodeOps reads a delta stream from r, failing closed on any
// truncation or corruption — a delta is a transfer, not a local log,
// so a torn tail here means the transfer broke and nothing of it is
// trustworthy as "applied".
func DecodeOps(r io.Reader) (from uint64, ops []Op, err error) {
	br := bufio.NewReader(r)
	if from, err = readLogHeader(br, "delta"); err != nil {
		return 0, nil, err
	}
	var cnt [8]byte
	if _, err := io.ReadFull(br, cnt[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: delta header truncated: %v", ErrCorrupt, err)
	}
	count := binary.LittleEndian.Uint64(cnt[:])
	if count > 1<<32 {
		return 0, nil, fmt.Errorf("%w: absurd delta record count %d", ErrCorrupt, count)
	}
	ops = make([]Op, 0, min(count, 1<<16))
	for i := uint64(0); i < count; i++ {
		op, _, err := readRecord(br)
		if err != nil {
			return 0, nil, fmt.Errorf("%w: delta record %d: %v", ErrCorrupt, i, err)
		}
		ops = append(ops, op)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return 0, nil, fmt.Errorf("%w: trailing bytes after delta", ErrCorrupt)
	}
	return from, ops, nil
}
