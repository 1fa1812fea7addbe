package persist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"dlsearch/internal/bat"
)

func logOps(n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{
			Doc:  bat.OID(i + 1),
			URL:  fmt.Sprintf("d%d", i+1),
			Text: fmt.Sprintf("champion trophy melbourne doc %d", i+1),
		}
	}
	return ops
}

func sameOps(t *testing.T, ctx string, got, want []Op) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ops, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: op %d = %+v, want %+v", ctx, i, got[i], want[i])
		}
	}
}

// TestOpLogRoundTrip: append across two handles, read back every
// suffix; position and base survive reopen.
func TestOpLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ops := logOps(20)
	l, err := OpenOpLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(ops[:12]...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = OpenOpLog(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	if l.Pos() != 12 || l.Base() != 0 {
		t.Fatalf("reopen: pos=%d base=%d, want 12/0", l.Pos(), l.Base())
	}
	if err := l.Append(ops[12:]...); err != nil {
		t.Fatal(err)
	}
	for _, from := range []uint64{0, 7, 19, 20} {
		got, err := l.OpsSince(from)
		if err != nil {
			t.Fatalf("OpsSince(%d): %v", from, err)
		}
		sameOps(t, fmt.Sprintf("OpsSince(%d)", from), got, ops[from:])
	}
	if _, err := l.OpsSince(21); err != nil {
		t.Fatalf("OpsSince past end: %v", err)
	}
	var replayed []Op
	if err := l.Replay(5, func(op Op) error {
		replayed = append(replayed, op)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sameOps(t, "Replay(5)", replayed, ops[5:])
}

// TestOpLogTornTailTruncated: a crash mid-append leaves a partial
// record at the tail. Reopen at EVERY possible truncation point must
// succeed, recover exactly the fully-written prefix, and stay
// appendable — a torn write was never acknowledged, so dropping it is
// the fail-safe direction.
func TestOpLogTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	ops := logOps(6)
	l, err := OpenOpLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(ops...); err != nil {
		t.Fatal(err)
	}
	path := l.Path()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr := int64(20) // magic + version + base
	// Record byte offsets: replaying prefix lengths tells us how many
	// whole records each truncation point preserves.
	var bounds []int64
	off := hdr
	for i := range ops {
		off += recordSize(&ops[i])
		bounds = append(bounds, off)
	}
	if bounds[len(bounds)-1] != int64(len(whole)) {
		t.Fatalf("size accounting: records end at %d, file is %d", bounds[len(bounds)-1], len(whole))
	}
	for cut := hdr + 1; cut < int64(len(whole)); cut++ {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenOpLog(dir)
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		want := 0
		for _, b := range bounds {
			if b <= cut {
				want++
			}
		}
		if int(l.Pos()) != want {
			t.Fatalf("cut=%d: pos=%d, want %d whole records", cut, l.Pos(), want)
		}
		torn := cut - (hdr + OpsSize(ops[:want]))
		if l.TruncatedBytes() != torn {
			t.Fatalf("cut=%d: truncated %d bytes, want %d", cut, l.TruncatedBytes(), torn)
		}
		// The log must stay appendable after recovery.
		if err := l.Append(Op{Doc: 99, URL: "x", Text: "after crash"}); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		got, err := l.OpsSince(0)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		sameOps(t, fmt.Sprintf("cut=%d", cut), got, append(append([]Op{}, ops[:want]...), Op{Doc: 99, URL: "x", Text: "after crash"}))
		l.Close()
	}
}

// TestOpLogTornLengthVarint: a payload of 128 bytes or more has a
// multi-byte length varint, and a kill -9 can tear the write INSIDE
// that varint (binary.ReadUvarint then reports io.ErrUnexpectedEOF,
// not io.EOF). Every cut point — including mid-varint — must recover
// as a truncated torn tail, never fail closed: the record was not
// acknowledged, and refusing to boot over it would be exactly the
// crash the log exists to survive.
func TestOpLogTornLengthVarint(t *testing.T) {
	dir := t.TempDir()
	big := Op{Doc: 1, URL: "big", Text: strings.Repeat("melbourne champion trophy ", 10)}
	if len(big.Text) < 128 {
		t.Fatalf("test payload must force a multi-byte length varint, got %d bytes", len(big.Text))
	}
	small := Op{Doc: 2, URL: "d2", Text: "tail"}
	l, err := OpenOpLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(big, small); err != nil {
		t.Fatal(err)
	}
	path := l.Path()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr := int64(20) // magic + version + base
	bounds := []int64{hdr + recordSize(&big), hdr + recordSize(&big) + recordSize(&small)}
	for cut := hdr; cut < int64(len(whole)); cut++ {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenOpLog(dir)
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		want := 0
		for _, b := range bounds {
			if b <= cut {
				want++
			}
		}
		if int(l.Pos()) != want {
			t.Fatalf("cut=%d: pos=%d, want %d whole records", cut, l.Pos(), want)
		}
		if err := l.Append(Op{Doc: 9, URL: "x", Text: "post crash"}); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		l.Close()
	}
}

// TestOpLogAppendRollback: a failed append (transient ENOSPC, say) may
// leave partial bytes in the file while the process keeps running. They
// must be truncated away immediately — otherwise the next successful
// append lands after them and the torn record becomes interior
// corruption that fails the next boot closed, taking acknowledged
// writes with it.
func TestOpLogAppendRollback(t *testing.T) {
	dir := t.TempDir()
	ops := logOps(4)
	l, err := OpenOpLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(ops[:2]...); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn write Append's error path sees: partial garbage
	// reached the file, then the write errored before acknowledging.
	l.mu.Lock()
	if _, err := l.f.Write([]byte{0x85, 0xee, 0x07}); err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	l.rollback(errors.New("injected write failure"))
	l.mu.Unlock()
	// The log stays usable and the next append lands cleanly after the
	// last acknowledged record.
	if err := l.Append(ops[2:]...); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	got, err := l.OpsSince(0)
	if err != nil {
		t.Fatal(err)
	}
	sameOps(t, "after rollback", got, ops)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The file on disk is fully intact: reopen finds every record and
	// nothing to truncate.
	l2, err := OpenOpLog(dir)
	if err != nil {
		t.Fatalf("reopen after rollback: %v", err)
	}
	defer l2.Close()
	if l2.Pos() != 4 || l2.TruncatedBytes() != 0 {
		t.Fatalf("reopen: pos=%d truncated=%d, want 4/0", l2.Pos(), l2.TruncatedBytes())
	}
}

// TestOpLogAppendPoisonedAfterFailedRollback: when the rollback itself
// fails, torn bytes may still sit in the file — further appends must
// refuse rather than bury them under acknowledged records.
func TestOpLogAppendPoisonedAfterFailedRollback(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenOpLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(logOps(2)...); err != nil {
		t.Fatal(err)
	}
	// Closing the handle makes the write AND the rollback's truncate
	// fail, which must poison the log.
	l.f.Close()
	if err := l.Append(Op{Doc: 9, URL: "x", Text: "y"}); err == nil {
		t.Fatal("append on closed file: want error")
	}
	err = l.Append(Op{Doc: 10, URL: "x", Text: "y"})
	if err == nil || !strings.Contains(err.Error(), "refusing append") {
		t.Fatalf("append on poisoned log = %v, want refusal", err)
	}
}

// TestOpLogInteriorCorruptionFailsClosed: a bit flip in a fully
// present record is not a torn tail — it means acknowledged history
// is damaged, and the log must refuse to open rather than silently
// replay wrong state.
func TestOpLogInteriorCorruptionFailsClosed(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenOpLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(logOps(8)...); err != nil {
		t.Fatal(err)
	}
	path := l.Path()
	l.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the file (inside record data,
	// well before the tail).
	mid := len(whole) / 2
	corrupt := append([]byte{}, whole...)
	corrupt[mid] ^= 0x40
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenOpLog(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with interior bit flip: %v, want ErrCorrupt", err)
	}
	// Bad magic fails closed too.
	corrupt = append([]byte{}, whole...)
	corrupt[0] = 'X'
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenOpLog(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with bad magic: %v, want ErrCorrupt", err)
	}
}

// TestOpLogReplayStreams: Replay hands fn every record of an N-record
// log once, in order, and stops at fn's first error; a record that no
// longer verifies fails Replay and OpsSince with the same error, Replay
// having streamed exactly the records before it.
func TestOpLogReplayStreams(t *testing.T) {
	const n = 10
	ops := logOps(n)
	l, err := OpenOpLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(ops...); err != nil {
		t.Fatal(err)
	}
	var got []Op
	if err := l.Replay(0, func(op Op) error {
		got = append(got, op)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sameOps(t, "Replay(0)", got, ops)

	stop := errors.New("stop")
	calls := 0
	if err := l.Replay(0, func(Op) error {
		if calls++; calls == 4 {
			return stop
		}
		return nil
	}); err != stop || calls != 4 {
		t.Fatalf("Replay after fn's error at call 4: err %v, %d calls", err, calls)
	}

	// Flip the last payload byte of record k on disk, under the open log.
	const k = 6
	off := int64(8 + 4 + 8)
	for i := range ops[:k+1] {
		off += recordSize(&ops[i])
	}
	f, err := os.OpenFile(l.Path(), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off-1); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b, off-1); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, sinceErr := l.OpsSince(0)
	got = got[:0]
	replayErr := l.Replay(0, func(op Op) error {
		got = append(got, op)
		return nil
	})
	if !errors.Is(sinceErr, ErrCorrupt) || replayErr == nil || replayErr.Error() != sinceErr.Error() {
		t.Fatalf("corrupt record %d: OpsSince %v, Replay %v; want the same ErrCorrupt", k, sinceErr, replayErr)
	}
	sameOps(t, "Replay up to the corrupt record", got, ops[:k])
}

// holdOld opens a second read handle on the log file at path and
// returns a check that the handle still reads every byte the file held
// now. Called after a rewrite, it shows the rewrite replaced the file
// instead of truncating it under its readers: until the rename, a
// crash leaves the old log whole.
func holdOld(t *testing.T, path string) func() {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { old.Close() })
	return func() {
		t.Helper()
		if got, err := io.ReadAll(old); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("the old handle reads %d bytes (err %v), want the %d the log held before the rewrite", len(got), err, len(want))
		}
	}
}

// TestOpLogCompact: compaction drops the prefix, keeps the suffix,
// and survives reopen; reads below the new base report ErrLogGap so
// callers fall back to a full snapshot instead of assuming an empty
// delta.
func TestOpLogCompact(t *testing.T) {
	dir := t.TempDir()
	ops := logOps(30)
	l, err := OpenOpLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(ops...); err != nil {
		t.Fatal(err)
	}
	checkOld := holdOld(t, l.Path())
	if err := l.Compact(20); err != nil {
		t.Fatal(err)
	}
	checkOld()
	if l.Base() != 20 || l.Pos() != 30 {
		t.Fatalf("after compact: base=%d pos=%d, want 20/30", l.Base(), l.Pos())
	}
	if _, err := l.OpsSince(19); !errors.Is(err, ErrLogGap) {
		t.Fatalf("OpsSince below base: %v, want ErrLogGap", err)
	}
	got, err := l.OpsSince(20)
	if err != nil {
		t.Fatal(err)
	}
	sameOps(t, "post-compact suffix", got, ops[20:])
	// The log stays appendable and the compaction survives reopen.
	if err := l.Append(Op{Doc: 31, URL: "d31", Text: "late"}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := OpenOpLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Base() != 20 || l2.Pos() != 31 {
		t.Fatalf("reopen after compact: base=%d pos=%d, want 20/31", l2.Base(), l2.Pos())
	}
	// Compacting everything empties the log at the current position.
	if err := l2.Compact(31); err != nil {
		t.Fatal(err)
	}
	if got, err := l2.OpsSince(31); err != nil || len(got) != 0 {
		t.Fatalf("empty suffix: %v ops, err %v", got, err)
	}
	// Compact beyond pos clamps rather than inventing history.
	if err := l2.Compact(99); err != nil {
		t.Fatal(err)
	}
	if l2.Base() != 31 || l2.Pos() != 31 {
		t.Fatalf("over-compact: base=%d pos=%d, want 31/31", l2.Base(), l2.Pos())
	}
}

// TestOpLogReset: Reset discards all records and rebases — the
// snapshot-restore path where the pulled state subsumes the log. It
// replaces the file rather than truncating it in place, so the old log
// stays whole until the new one is durable, and the rebase survives a
// reopen.
func TestOpLogReset(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenOpLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(logOps(5)...); err != nil {
		t.Fatal(err)
	}
	checkOld := holdOld(t, l.Path())
	if err := l.Reset(42); err != nil {
		t.Fatal(err)
	}
	checkOld()
	if l.Base() != 42 || l.Pos() != 42 {
		t.Fatalf("after reset: base=%d pos=%d, want 42/42", l.Base(), l.Pos())
	}
	l.Close()
	if l, err = OpenOpLog(dir); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Base() != 42 || l.Pos() != 42 {
		t.Fatalf("reopen after reset: base=%d pos=%d, want 42/42", l.Base(), l.Pos())
	}
	if _, err := l.OpsSince(0); !errors.Is(err, ErrLogGap) {
		t.Fatalf("OpsSince(0) after reset: %v, want ErrLogGap", err)
	}
	if err := l.Append(Op{Doc: 43, URL: "d43", Text: "post reset"}); err != nil {
		t.Fatal(err)
	}
	if l.Pos() != 43 {
		t.Fatalf("pos after post-reset append: %d, want 43", l.Pos())
	}
}

// TestOpsWireRoundTrip: the /node/oplog delta framing round-trips and
// fails closed on every truncation — a cut transfer must never apply
// a partial delta.
func TestOpsWireRoundTrip(t *testing.T) {
	ops := logOps(9)
	var buf bytes.Buffer
	if err := EncodeOps(&buf, 17, ops); err != nil {
		t.Fatal(err)
	}
	from, got, err := DecodeOps(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if from != 17 {
		t.Fatalf("from=%d, want 17", from)
	}
	sameOps(t, "wire", got, ops)
	// Empty delta is legal (replica already caught up).
	var empty bytes.Buffer
	if err := EncodeOps(&empty, 5, nil); err != nil {
		t.Fatal(err)
	}
	if from, got, err := DecodeOps(bytes.NewReader(empty.Bytes())); err != nil || from != 5 || len(got) != 0 {
		t.Fatalf("empty delta: from=%d ops=%d err=%v", from, len(got), err)
	}
	// Any truncation fails closed.
	wire := buf.Bytes()
	for cut := 0; cut < len(wire); cut++ {
		if _, _, err := DecodeOps(bytes.NewReader(wire[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut=%d: %v, want ErrCorrupt", cut, err)
		}
	}
	// Trailing garbage fails closed too.
	if _, _, err := DecodeOps(bytes.NewReader(append(append([]byte{}, wire...), 0xee))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: %v, want ErrCorrupt", err)
	}
	// A flipped bit inside a record fails the checksum.
	flip := append([]byte{}, wire...)
	flip[len(flip)/2] ^= 0x01
	if _, _, err := DecodeOps(bytes.NewReader(flip)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip: %v, want ErrCorrupt", err)
	}
}

// FuzzDecodeOps: DecodeOps reads untrusted request bodies (a node's
// POST /node/oplog), so no input may panic it. A delta it accepts
// re-encodes to one that decodes to the same (from, ops); one it
// rejects fails with ErrCorrupt or as an unsupported version.
func FuzzDecodeOps(f *testing.F) {
	for _, ops := range [][]Op{nil, logOps(1), logOps(12)} {
		var buf bytes.Buffer
		if err := EncodeOps(&buf, uint64(len(ops))*7+3, ops); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		from, ops, err := DecodeOps(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !strings.HasPrefix(err.Error(), "persist: unsupported delta version") {
				t.Fatalf("rejected with %v, want ErrCorrupt or an unsupported version", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := EncodeOps(&buf, from, ops); err != nil {
			t.Fatal(err)
		}
		from2, ops2, err := DecodeOps(&buf)
		if err != nil {
			t.Fatalf("re-encoded delta rejected: %v", err)
		}
		if from2 != from {
			t.Fatalf("re-decoded from=%d, want %d", from2, from)
		}
		sameOps(t, "re-decoded", ops2, ops)
	})
}

// FuzzOpLogRecover damages a log the way a crash or a failing disk
// would and holds OpenOpLog to its recovery contract. The fuzz bytes
// choose the batches appended (texts long enough for a multi-byte
// length varint among them), then either cut the file at one byte or
// flip one byte. No input may panic the open. A cut at or past the
// 20-byte header never fails closed: the log opens at the last whole
// record, and TruncatedBytes is the remainder. (A cut inside the
// header, left only by a crash while the log is created or reset,
// names no base and fails closed; a cut at 0 is a fresh log.) A flip
// may fail the open, with ErrCorrupt or as an unsupported version.
// Whatever opens replays a prefix of the appended ops, unaltered and
// in order.
func FuzzOpLogRecover(f *testing.F) {
	f.Add([]byte{2, 1, 3, 0, 9, 0, 0, 40})
	f.Add([]byte{3, 3, 9, 2, 1, 8, 0, 1, 7, 1, 0, 90, 0x10})
	f.Add([]byte{1, 2, 9, 9, 1, 0, 21, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := data
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b)
		}
		dir := t.TempDir()
		l, err := OpenOpLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		var ops []Op
		for batches := 1 + next()%4; batches > 0; batches-- {
			batch := make([]Op, 1+next()%4)
			for i := range batch {
				doc := len(ops) + i + 1
				batch[i] = Op{Doc: bat.OID(doc), URL: fmt.Sprintf("d%d", doc),
					Text: strings.Repeat("melbourne champion ", next()%10)}
			}
			if err := l.Append(batch...); err != nil {
				t.Fatal(err)
			}
			ops = append(ops, batch...)
		}
		path := l.Path()
		l.Close()
		whole, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		const hdr = 8 + 4 + 8
		at := next()<<8 | next()
		flip := next()%2 == 1
		damaged := bytes.Clone(whole)
		if flip {
			damaged[at%len(damaged)] ^= byte(1 + next()%255)
		} else {
			damaged = damaged[:at%(len(damaged)+1)]
		}
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err = OpenOpLog(dir)
		switch {
		case !flip && len(damaged) > 0 && len(damaged) < hdr:
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut at %d inside the header: %v, want ErrCorrupt", len(damaged), err)
			}
			return
		case !flip:
			if err != nil {
				t.Fatalf("cut at %d of %d: %v", len(damaged), len(whole), err)
			}
			kept := 0 // the records the cut left whole
			for off := int64(hdr); kept < len(ops) && off+recordSize(&ops[kept]) <= int64(len(damaged)); kept++ {
				off += recordSize(&ops[kept])
			}
			if l.Pos() != uint64(kept) {
				t.Fatalf("cut at %d: pos %d, want %d whole records", len(damaged), l.Pos(), kept)
			}
			if rest := max(0, int64(len(damaged))-hdr-OpsSize(ops[:kept])); l.TruncatedBytes() != rest {
				t.Fatalf("cut at %d: truncated %d bytes, want %d", len(damaged), l.TruncatedBytes(), rest)
			}
		case err != nil:
			if !errors.Is(err, ErrCorrupt) && !strings.HasPrefix(err.Error(), "persist: unsupported oplog version") {
				t.Fatalf("flip rejected with %v, want ErrCorrupt or an unsupported version", err)
			}
			return
		}
		defer l.Close()
		var replayed []Op
		if err := l.Replay(l.Base(), func(op Op) error {
			replayed = append(replayed, op)
			return nil
		}); err != nil {
			t.Fatalf("replay of an opened log: %v", err)
		}
		if uint64(len(replayed)) != l.Pos()-l.Base() || len(replayed) > len(ops) {
			t.Fatalf("replayed %d ops between positions %d and %d, appended %d", len(replayed), l.Base(), l.Pos(), len(ops))
		}
		sameOps(t, "replayed prefix", replayed, ops[:len(replayed)])
	})
}

// FuzzOpLogRewrite holds the position arithmetic of the log's rewrites
// to a model of (base, ops). The fuzz bytes drive a sequence of
// Append(n), Compact(k) with k below, inside and past the log,
// Reset(b) with b below, at and above Pos, and close-and-reopen; after
// every step Base, Pos and OpsSince(Base()) must equal the model's.
func FuzzOpLogRewrite(f *testing.F) {
	f.Add([]byte{0, 3, 1, 3, 3, 0, 2, 1, 2, 4, 0, 1})
	f.Add([]byte{0, 4, 0, 2, 1, 5, 1, 0, 3, 2, 0, 0, 1, 1})
	f.Add([]byte{2, 9, 0, 1, 3, 1, 2, 2, 0, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := data
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b)
		}
		dir := t.TempDir()
		l, err := OpenOpLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { l.Close() }()
		var base uint64 // the model: the log holds ops, the first at base
		var ops []Op
		doc := 0
		// around picks a position from two below base to two past pos.
		around := func() uint64 {
			lo := base - min(base, 2)
			return lo + uint64(next())%(base+uint64(len(ops))+3-lo)
		}
		for step := 0; step < 24 && len(in) > 0; step++ {
			var what string
			switch next() % 4 {
			case 0:
				batch := make([]Op, 1+next()%4)
				for i := range batch {
					doc++
					batch[i] = Op{Doc: bat.OID(doc), URL: fmt.Sprintf("d%d", doc), Text: strings.Repeat("court ", doc%5)}
				}
				what = fmt.Sprintf("Append(%d)", len(batch))
				if err := l.Append(batch...); err != nil {
					t.Fatal(err)
				}
				ops = append(ops, batch...)
			case 1:
				k := around()
				what = fmt.Sprintf("Compact(%d)", k)
				if err := l.Compact(k); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if k = min(k, base+uint64(len(ops))); k > base {
					ops = ops[k-base:]
					base = k
				}
			case 2:
				b := around()
				what = fmt.Sprintf("Reset(%d)", b)
				if err := l.Reset(b); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				base, ops = b, nil
			case 3:
				what = "reopen"
				l.Close()
				if l, err = OpenOpLog(dir); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
			if l.Base() != base || l.Pos() != base+uint64(len(ops)) {
				t.Fatalf("step %d %s: base=%d pos=%d, model %d/%d", step, what, l.Base(), l.Pos(), base, base+uint64(len(ops)))
			}
			got, err := l.OpsSince(base)
			if err != nil {
				t.Fatalf("step %d %s: OpsSince(%d): %v", step, what, base, err)
			}
			sameOps(t, fmt.Sprintf("step %d %s", step, what), got, ops)
		}
	})
}

// TestSnapshotCarriesLogPos: the v2 snapshot format persists the
// op-log position so boot knows where replay starts.
func TestSnapshotCarriesLogPos(t *testing.T) {
	ix := snapCorpus(50, 7)
	st := ix.ExportState()
	st.LogPos = 1234
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.LogPos != 1234 {
		t.Fatalf("LogPos=%d, want 1234", got.LogPos)
	}
	if n, err := SizeOf(st); err != nil || n != int64(buf.Len()) {
		t.Fatalf("SizeOf=%d err=%v, want %d", n, err, buf.Len())
	}
}

// TestOpLogCompactLargeSuffix: compaction streams the kept records to
// the replacement file (memory stays one record deep, not the whole
// suffix) — this exercises that path at a size where buffering bugs
// and size-accounting drift would show: the compacted log must carry
// the exact suffix, keep appending at the right offsets, and reopen
// cleanly.
func TestOpLogCompactLargeSuffix(t *testing.T) {
	dir := t.TempDir()
	const total, keepFrom = 5000, 1500
	ops := make([]Op, total)
	filler := strings.Repeat("lorem ipsum fragment evaluation ", 8)
	for i := range ops {
		ops[i] = Op{Doc: bat.OID(i + 1), URL: fmt.Sprintf("u%d", i), Text: filler}
	}
	l, err := OpenOpLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(ops...); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(keepFrom); err != nil {
		t.Fatal(err)
	}
	got, err := l.OpsSince(keepFrom)
	if err != nil {
		t.Fatal(err)
	}
	sameOps(t, "large compacted suffix", got, ops[keepFrom:])
	// Appends continue against the streamed file's true size.
	if err := l.Append(Op{Doc: total + 1, URL: "late", Text: "late"}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := OpenOpLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Base() != keepFrom || l2.Pos() != total+1 {
		t.Fatalf("reopen: base=%d pos=%d, want %d/%d", l2.Base(), l2.Pos(), keepFrom, total+1)
	}
	got, err = l2.OpsSince(keepFrom)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != total-keepFrom+1 || got[len(got)-1].Doc != total+1 {
		t.Fatalf("reopened suffix: %d ops, last doc %d", len(got), got[len(got)-1].Doc)
	}
}
