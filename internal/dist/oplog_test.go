package dist

import (
	"context"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"dlsearch/internal/bat"
	"dlsearch/internal/ir"
	"dlsearch/internal/obs"
	"dlsearch/internal/persist"
)

// loggedNode builds a LocalNode whose ingest is write-ahead logged to
// its own temp dir.
func loggedNode(t *testing.T) *LocalNode {
	t.Helper()
	l, err := persist.OpenOpLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	n := NewLocalNode(ir.NewIndex())
	n.SetOpLog(l)
	return n
}

func checksumOf(t *testing.T, n Node) string {
	t.Helper()
	l, err := n.LoadChecksum(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return l.Checksum
}

// TestCrashReplayByteIdentical is the tentpole's core durability
// claim in process form: ingest write-ahead-logged documents, crash
// without any snapshot (the process just vanishes, plus a torn
// partial append at the log tail), recover a fresh node from the log
// alone — rankings and content checksum must be byte-identical, and
// the torn tail (never acknowledged) silently truncated.
func TestCrashReplayByteIdentical(t *testing.T) {
	dir := t.TempDir()
	l, err := persist.OpenOpLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := NewLocalNode(ir.NewIndex())
	n.SetOpLog(l)
	docs := make([]Doc, 0, 50)
	for i, text := range corpus(50, 31) {
		docs = append(docs, Doc{OID: bat.OID(i + 1), URL: fmt.Sprintf("d%d", i+1), Text: text})
	}
	if err := n.AddBatch(context.Background(), docs[:30]); err != nil {
		t.Fatal(err)
	}
	for _, d := range docs[30:] {
		if err := n.AddBatch(context.Background(), []Doc{d}); err != nil {
			t.Fatal(err)
		}
	}
	queries := []string{"champion winner serve", "seles", "melbourne trophy"}
	want := make([][]ir.Result, len(queries))
	for i, q := range queries {
		want[i] = n.Index().TopN(q, 10)
	}
	wantSum := checksumOf(t, n)
	if n.LogPos() != 50 {
		t.Fatalf("log position %d, want 50", n.LogPos())
	}
	// Crash: drop the node, leave a torn partial append at the tail —
	// the first bytes of a record whose fsync never completed.
	l.Close()
	f, err := os.OpenFile(l.Path(), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// Recovery: open the log, fold it into a fresh index (the dlserve
	// boot path with no snapshot at all).
	l2, err := persist.OpenOpLog(dir)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer l2.Close()
	if l2.TruncatedBytes() == 0 {
		t.Fatal("torn tail not truncated")
	}
	ix2 := ir.NewIndex()
	if err := l2.Replay(l2.Base(), func(op persist.Op) error {
		if !ix2.HasDoc(op.Doc) {
			ix2.Add(op.Doc, op.URL, op.Text)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	n2 := NewLocalNode(ix2)
	n2.SetOpLog(l2)
	if n2.LogPos() != 50 {
		t.Fatalf("recovered log position %d, want 50", n2.LogPos())
	}
	if got := checksumOf(t, n2); got != wantSum {
		t.Fatalf("recovered checksum %s, want %s", got, wantSum)
	}
	for i, q := range queries {
		sameRanking(t, "recovered "+q, ix2.TopN(q, 10), want[i])
	}
}

// TestSnapshotCompactionBoundsReplay: a snapshot taken mid-stream
// records its log position and compacts the log; recovery is then
// snapshot + short suffix replay, identical to a node that never
// crashed.
func TestSnapshotCompactionBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := persist.OpenOpLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := NewLocalNode(ir.NewIndex())
	n.SetOpLog(l)
	docs := make([]Doc, 0, 60)
	for i, text := range corpus(60, 37) {
		docs = append(docs, Doc{OID: bat.OID(i + 1), URL: "u", Text: text})
	}
	if err := n.AddBatch(context.Background(), docs[:40]); err != nil {
		t.Fatal(err)
	}
	// Snapshot at position 40 (ExportState stamps the position), then
	// compact the log to it — the paper's incremental snapshot.
	st, err := n.SnapshotState(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.LogPos != 40 {
		t.Fatalf("snapshot stamped position %d, want 40", st.LogPos)
	}
	if err := l.Compact(st.LogPos); err != nil {
		t.Fatal(err)
	}
	if err := n.AddBatch(context.Background(), docs[40:]); err != nil {
		t.Fatal(err)
	}
	wantSum := checksumOf(t, n)
	l.Close()
	// Recovery: import the snapshot, replay only the 20-op suffix.
	l2, err := persist.OpenOpLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Base() != 40 || l2.Pos() != 60 {
		t.Fatalf("recovered log base=%d pos=%d, want 40/60", l2.Base(), l2.Pos())
	}
	ix2, err := ir.ImportState(st)
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	if err := l2.Replay(l2.Base(), func(op persist.Op) error {
		if !ix2.HasDoc(op.Doc) {
			ix2.Add(op.Doc, op.URL, op.Text)
			replayed++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if replayed != 20 {
		t.Fatalf("replayed %d ops, want 20", replayed)
	}
	n2 := NewLocalNode(ix2)
	n2.SetOpLog(l2)
	if got := checksumOf(t, n2); got != wantSum {
		t.Fatalf("recovered checksum %s, want %s", got, wantSum)
	}
}

// TestDeltaResyncShipsSuffixOnly: a replica that missed the last
// writes is healed by shipping just the op-log suffix, not the full
// snapshot; the delta is checksum-verified, counted in telemetry, and
// orders of magnitude smaller than the full state.
func TestDeltaResyncShipsSuffixOnly(t *testing.T) {
	a, b := loggedNode(t), loggedNode(t)
	c := NewReplicatedClusterOf([][]Node{{a, b}}, nil)
	for i, text := range corpus(60, 43) {
		if err := c.AddContext(context.Background(), bat.OID(i+1), "u", text); err != nil {
			t.Fatal(err)
		}
	}
	// B goes dark; A alone accepts 5 more documents. B is now a lagging
	// replica whose state is a strict prefix of A's log.
	for i := 60; i < 65; i++ {
		if err := a.AddBatch(context.Background(), []Doc{{OID: bat.OID(i + 1), URL: "u", Text: fmt.Sprintf("capriati rally doc%d", i+1)}}); err != nil {
			t.Fatal(err)
		}
	}
	if a.LogPos() != 65 || b.LogPos() != 60 {
		t.Fatalf("positions a=%d b=%d, want 65/60", a.LogPos(), b.LogPos())
	}
	fullBytes, err := persist.SizeOf(a.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	// One anti-entropy pass: divergence detected, B healed by delta.
	rep := c.CheckReplicas(context.Background(), true)
	if rep.Detected != 1 || rep.Resynced != 1 {
		t.Fatalf("pass = %+v", rep)
	}
	tel := c.Telemetry()
	if tel.ResyncsDelta != 1 || tel.ResyncsFull != 0 {
		t.Fatalf("telemetry = %+v, want exactly one delta resync", tel)
	}
	if tel.ResyncBytes == 0 || int64(tel.ResyncBytes) >= fullBytes {
		t.Fatalf("delta shipped %d bytes, full snapshot is %d — no savings", tel.ResyncBytes, fullBytes)
	}
	if b.LogPos() != 65 {
		t.Fatalf("healed replica position %d, want 65", b.LogPos())
	}
	if ca, cb := checksumOf(t, a), checksumOf(t, b); ca != cb {
		t.Fatalf("checksums differ after delta resync: %s vs %s", ca, cb)
	}
	sameRanking(t, "post-delta", b.Index().TopN("capriati rally", 10), a.Index().TopN("capriati rally", 10))
}

// TestDeltaAndFullResyncConverge: healing the same lagging replica by
// delta or by full snapshot must land on the same content checksum —
// the delta path is an optimisation, not a different consistency
// model.
func TestDeltaAndFullResyncConverge(t *testing.T) {
	run := func(t *testing.T, compactFirst bool) (string, *Cluster) {
		a, b := loggedNode(t), loggedNode(t)
		c := NewReplicatedClusterOf([][]Node{{a, b}}, nil)
		for i, text := range corpus(40, 53) {
			if err := c.AddContext(context.Background(), bat.OID(i+1), "u", text); err != nil {
				t.Fatal(err)
			}
		}
		for i := 40; i < 48; i++ {
			if err := a.AddBatch(context.Background(), []Doc{{OID: bat.OID(i + 1), URL: "u", Text: fmt.Sprintf("hingis smash doc%d", i+1)}}); err != nil {
				t.Fatal(err)
			}
		}
		if compactFirst {
			// Compact A's log past B's position: the suffix B needs is
			// gone, so resync MUST fall back to the full snapshot.
			if err := a.OpLog().Compact(a.LogPos()); err != nil {
				t.Fatal(err)
			}
		}
		if rep := c.CheckReplicas(context.Background(), true); rep.Resynced != 1 {
			t.Fatalf("pass = %+v", rep)
		}
		if ca, cb := checksumOf(t, a), checksumOf(t, b); ca != cb {
			t.Fatalf("checksums differ: %s vs %s", ca, cb)
		}
		return checksumOf(t, b), c
	}
	deltaSum, dc := run(t, false)
	fullSum, fc := run(t, true)
	if deltaSum != fullSum {
		t.Fatalf("delta resync converged to %s, full to %s", deltaSum, fullSum)
	}
	if tel := dc.Telemetry(); tel.ResyncsDelta != 1 || tel.ResyncsFull != 0 {
		t.Fatalf("uncompacted run telemetry = %+v, want delta path", tel)
	}
	if tel := fc.Telemetry(); tel.ResyncsDelta != 0 || tel.ResyncsFull != 1 {
		t.Fatalf("compacted run telemetry = %+v, want full-snapshot fallback", tel)
	}
}

// TestApplyOpsPositionExact: a delta that does not start exactly at
// the target's position is rejected — applying it would silently skip
// or duplicate history.
func TestApplyOpsPositionExact(t *testing.T) {
	n := loggedNode(t)
	ops := []persist.Op{{Doc: 1, URL: "u", Text: "champion"}}
	if err := n.ApplyOps(context.Background(), 3, ops); !errors.Is(err, ErrPosMismatch) {
		t.Fatalf("ahead-of-position delta: %v, want ErrPosMismatch", err)
	}
	if err := n.ApplyOps(context.Background(), 0, ops); err != nil {
		t.Fatal(err)
	}
	if err := n.ApplyOps(context.Background(), 0, ops); !errors.Is(err, ErrPosMismatch) {
		t.Fatalf("stale delta: %v, want ErrPosMismatch", err)
	}
	if n.LogPos() != 1 {
		t.Fatalf("position %d, want 1", n.LogPos())
	}
	// A duplicate op inside an aligned delta advances the position but
	// not the index — replicas stay position- and content-converged.
	if err := n.ApplyOps(context.Background(), 1, ops); err != nil {
		t.Fatal(err)
	}
	if n.LogPos() != 2 || n.Index().DocCount() != 1 {
		t.Fatalf("pos=%d docs=%d, want 2/1", n.LogPos(), n.Index().DocCount())
	}
	// A node with no op log cannot serve deltas.
	bare := NewLocalNode(ir.NewIndex())
	if _, err := bare.OpsSince(context.Background(), 0); !errors.Is(err, ErrDeltaUnavailable) {
		t.Fatalf("log-less OpsSince: %v, want ErrDeltaUnavailable", err)
	}
}

// TestNodeLockWait: each operation that takes the node's lock observes
// its wait once, under its own kind, and a search queued behind a held
// write lock (an ingest's fsync, say) observes at least the hold.
func TestNodeLockWait(t *testing.T) {
	n := loggedNode(t)
	w := LockWait{Search: obs.NewHistogram(obs.LatencyBounds()),
		Add: obs.NewHistogram(obs.LatencyBounds()), Stats: obs.NewHistogram(obs.LatencyBounds())}
	n.SetMetrics(&NodeMetrics{LockWait: w})
	ctx := context.Background()
	if err := n.AddBatch(ctx, []Doc{{OID: 1, URL: "u", Text: "champion trophy"}}); err != nil {
		t.Fatal(err)
	}
	if err := n.ApplyOps(ctx, 1, []persist.Op{{Doc: 2, URL: "u", Text: "champion"}}); err != nil {
		t.Fatal(err)
	}
	global, _ := n.Stats(ctx)
	if _, _, err := n.SearchPlan(ctx, "champion", ir.EvalPlan{N: 5}, global); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		op   string
		h    *obs.Histogram
		want uint64
	}{{"search", w.Search, 1}, {"add", w.Add, 2}, {"stats", w.Stats, 1}} {
		if got := c.h.Snapshot().Count; got != c.want {
			t.Errorf("%s: %d waits observed, want %d", c.op, got, c.want)
		}
	}

	const hold = 50 * time.Millisecond
	n.mu.Lock()
	started, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		close(started)
		n.SearchPlan(ctx, "champion", ir.EvalPlan{N: 5}, global)
	}()
	<-started
	time.Sleep(hold)
	n.mu.Unlock()
	<-done
	// Half the hold: the search may start waiting a little after it
	// signalled.
	if s := w.Search.Snapshot(); s.Count != 2 || s.Sum < hold.Seconds()/2 {
		t.Fatalf("a search behind a %s write lock: %d waits, %.4f s in all", hold, s.Count, s.Sum)
	}
}

// corruptingSink wraps a LocalNode whose restore silently lands on
// the wrong state — the failure the checksum-verified rejoin
// satellite exists to catch.
type corruptingSink struct {
	*LocalNode
}

func (n *corruptingSink) RestoreState(ctx context.Context, st *ir.IndexState) error {
	if err := n.LocalNode.RestoreState(ctx, st); err != nil {
		return err
	}
	// The restore "succeeds" but the replica's state drifts — a bad
	// disk, a racing writer, a bug.
	return n.LocalNode.AddBatch(ctx, []Doc{{OID: 9999, URL: "u", Text: "rogue divergent document"}})
}

// blindSink wraps a LocalNode that restores faithfully but cannot
// report a fresh checksum afterwards — the rejoin cannot be verified.
type blindSink struct {
	*LocalNode
}

var errNoChecksum = errors.New("checksum probe failed")

func (n *blindSink) LoadChecksum(context.Context) (NodeLoad, error) {
	return NodeLoad{}, errNoChecksum
}

// TestRejoinVerificationQuarantinesBadRestore: a replica whose resync
// lands on a state that does NOT checksum-match the shipped snapshot —
// or whose post-restore checksum cannot be probed at all — must stay
// quarantined instead of rejoining with unverified rankings, and the
// resync must not be counted.
func TestRejoinVerificationQuarantinesBadRestore(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  func(*LocalNode) Node
	}{
		{"restore drifts", func(n *LocalNode) Node { return &corruptingSink{LocalNode: n} }},
		{"checksum probe errors", func(n *LocalNode) Node { return &blindSink{LocalNode: n} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			good := NewLocalNode(ir.NewIndex())
			inner := NewLocalNode(ir.NewIndex())
			c := NewReplicatedClusterOf([][]Node{{good, tc.bad(inner)}}, nil)
			for i, text := range corpus(30, 59) {
				if err := c.AddContext(context.Background(), bat.OID(i+1), "u", text); err != nil {
					t.Fatal(err)
				}
			}
			// Neither fake misbehaves during ingest. Force a wipe + resync.
			if err := inner.RestoreState(context.Background(), ir.NewIndex().ExportState()); err != nil {
				t.Fatal(err)
			}
			c.markDiverged(0, 1)
			if err := c.ResyncReplica(context.Background(), 0, 1); err == nil {
				t.Fatal("unverifiable resync reported success")
			}
			if h := c.ReplicaHealth()[0][1]; !h.Diverged {
				t.Fatal("unverified rejoin was not quarantined")
			}
			if tel := c.Telemetry(); tel.Resyncs != 0 || tel.ResyncsFull != 0 || tel.ResyncsDelta != 0 {
				t.Fatalf("unverified rejoin counted as a resync: %+v", tel)
			}
		})
	}
}

// TestBackoffBounds: delays grow exponentially, stay within the
// jitter envelope, and cap; jittered intervals stay within ±50%.
func TestBackoffBounds(t *testing.T) {
	const base, max = 50 * time.Millisecond, 5 * time.Second
	for attempt := 0; attempt < 12; attempt++ {
		exp := base << attempt
		if exp > max || exp <= 0 {
			exp = max
		}
		for i := 0; i < 50; i++ {
			d := backoffDelay(attempt, base, max)
			if d < exp/2 || d > exp+exp/2 {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, exp/2, exp+exp/2)
			}
		}
	}
	for i := 0; i < 200; i++ {
		d := jitterInterval(time.Second)
		if d < 500*time.Millisecond || d >= 1500*time.Millisecond {
			t.Fatalf("jittered interval %v outside [0.5s, 1.5s)", d)
		}
	}
}
