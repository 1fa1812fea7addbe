package server

import (
	"context"
	"fmt"
	"testing"

	"dlsearch/internal/bat"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/persist"
)

// TestCoordinatorOpLogStats: /stats surfaces the op-log machinery —
// per-replica log positions, a lagging replica's log_lag against the
// group maximum — and its metrics view the delta/full resync split
// with shipped bytes: everything the CI delta-resync job asserts on.
func TestCoordinatorOpLogStats(t *testing.T) {
	mkNode := func() *dist.LocalNode {
		l, err := persist.OpenOpLog(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		n := dist.NewLocalNode(ir.NewIndex())
		n.SetOpLog(l)
		return n
	}
	a, b := mkNode(), mkNode()
	cluster := dist.NewReplicatedClusterOf([][]dist.Node{{a, b}}, nil)
	co := NewCoordinator(map[string]*dist.Cluster{"a": cluster}, nil)
	h := co.Handler()
	for i := 0; i < 20; i++ {
		if err := cluster.AddContext(context.Background(), bat.OID(i+1), "u", fmt.Sprintf("melbourne champion doc%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	// B misses a tail of writes.
	for i := 20; i < 25; i++ {
		if err := a.AddBatch(context.Background(), []dist.Doc{{OID: bat.OID(i + 1), URL: "u", Text: fmt.Sprintf("trophy winner doc%d", i+1)}}); err != nil {
			t.Fatal(err)
		}
	}
	stats := func() (IndexStats, [3]float64) {
		cluster.InvalidateStats()
		st := getStats(t, h)
		return st.Indexes["a"], [3]float64{
			statsValue(t, st, "dl_cluster_resyncs_total", "index", "a", "kind", "delta"),
			statsValue(t, st, "dl_cluster_resyncs_total", "index", "a", "kind", "full"),
			statsValue(t, st, "dl_cluster_resync_bytes_total", "index", "a"),
		}
	}
	ixst, resyncs := stats()
	r0, r1 := ixst.Groups[0].Replicas[0], ixst.Groups[0].Replicas[1]
	if r0.LogPos != 25 || r1.LogPos != 20 {
		t.Fatalf("log positions = %d/%d, want 25/20", r0.LogPos, r1.LogPos)
	}
	if r0.LogLag != 0 || r1.LogLag != 5 {
		t.Fatalf("log lag = %d/%d, want 0/5", r0.LogLag, r1.LogLag)
	}
	if resyncs != [3]float64{} {
		t.Fatalf("resync counters (delta, full, bytes) = %v, moved before any resync", resyncs)
	}
	// Heal: the lagging replica catches up by delta, and the counters
	// split accordingly.
	if rep := cluster.CheckReplicas(context.Background(), true); rep.Resynced != 1 {
		t.Fatalf("anti-entropy pass = %+v", rep)
	}
	ixst, resyncs = stats()
	if resyncs[0] != 1 || resyncs[1] != 0 || resyncs[2] == 0 {
		t.Fatalf("post-heal counters = delta %v full %v bytes %v, want 1/0/>0",
			resyncs[0], resyncs[1], resyncs[2])
	}
	r0, r1 = ixst.Groups[0].Replicas[0], ixst.Groups[0].Replicas[1]
	if r0.LogPos != 25 || r1.LogPos != 25 || r0.LogLag != 0 || r1.LogLag != 0 {
		t.Fatalf("post-heal positions = %+v %+v, want both at 25 with zero lag", r0, r1)
	}
}
