package server

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"dlsearch/internal/bat"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/persist"
)

// TestCoordinatorOpLogStats: /stats surfaces the op-log machinery —
// per-replica log positions, a lagging replica's log_lag against the
// group maximum, and the delta/full resync split with shipped bytes —
// everything the CI delta-resync job asserts on.
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
	stats := func() IndexStats {
		cluster.InvalidateStats()
		var st StatsResponse
		if err := json.Unmarshal(get(t, h, "/stats").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st.Indexes["a"]
	}
	ixst := stats()
	r0, r1 := ixst.Groups[0].Replicas[0], ixst.Groups[0].Replicas[1]
	if r0.LogPos != 25 || r1.LogPos != 20 {
		t.Fatalf("log positions = %d/%d, want 25/20", r0.LogPos, r1.LogPos)
	}
	if r0.LogLag != 0 || r1.LogLag != 5 {
		t.Fatalf("log lag = %d/%d, want 0/5", r0.LogLag, r1.LogLag)
	}
	if ixst.ResyncsDelta != 0 || ixst.ResyncsFull != 0 || ixst.ResyncBytes != 0 {
		t.Fatalf("resync counters moved before any resync: %+v", ixst)
	}
	// Heal: the lagging replica catches up by delta, and the counters
	// split accordingly.
	if rep := cluster.CheckReplicas(context.Background(), true); rep.Resynced != 1 {
		t.Fatalf("anti-entropy pass = %+v", rep)
	}
	ixst = stats()
	if ixst.ResyncsDelta != 1 || ixst.ResyncsFull != 0 || ixst.ResyncBytes == 0 {
		t.Fatalf("post-heal counters = delta %d full %d bytes %d, want 1/0/>0",
			ixst.ResyncsDelta, ixst.ResyncsFull, ixst.ResyncBytes)
	}
	r0, r1 = ixst.Groups[0].Replicas[0], ixst.Groups[0].Replicas[1]
	if r0.LogPos != 25 || r1.LogPos != 25 || r0.LogLag != 0 || r1.LogLag != 0 {
		t.Fatalf("post-heal positions = %+v %+v, want both at 25 with zero lag", r0, r1)
	}
}
