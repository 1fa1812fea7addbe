package dist_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"dlsearch/internal/bat"
	"dlsearch/internal/core"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/server"
)

// remoteCorpus mirrors the dist test corpus (duplicated here: this is
// an external test package, required to close the dist ← server ←
// dist import cycle through test code).
func remoteCorpus(n int, seed int64) []string {
	common := []string{"match", "play", "game", "set", "court", "ball"}
	rare := []string{"seles", "hingis", "capriati", "melbourne", "trophy",
		"champion", "winner", "ace", "volley", "smash", "rally", "serve"}
	rng := rand.New(rand.NewSource(seed))
	docs := make([]string, n)
	for i := range docs {
		var sb strings.Builder
		for w := 0; w < 30; w++ {
			if rng.Intn(4) == 0 {
				sb.WriteString(rare[rng.Intn(len(rare))])
			} else {
				sb.WriteString(common[rng.Intn(len(common))])
			}
			sb.WriteByte(' ')
		}
		docs[i] = sb.String()
	}
	return docs
}

// startRemoteCluster spins up k httptest node servers and returns a
// cluster of RemoteNodes over them.
func startRemoteCluster(t testing.TB, k int, withCache bool, opts *dist.Options) *dist.Cluster {
	t.Helper()
	nodes := make([]dist.Node, k)
	for i := 0; i < k; i++ {
		cfg := &server.NodeConfig{}
		if withCache {
			cfg.Cache = core.NewQueryCache(64)
		}
		srv := httptest.NewServer(server.NewNodeHandler(ir.NewIndex(), cfg))
		t.Cleanup(srv.Close)
		nodes[i] = dist.NewRemoteNode(srv.URL, srv.Client())
	}
	return dist.NewClusterOf(nodes, opts)
}

// TestRemoteClusterEqualsSingle is the acceptance guarantee of the
// networked subsystem: a cluster of HTTP-backed remote nodes returns
// a ranking byte-identical — documents AND scores, which travel as raw
// float64 bits — to a single in-process index over the whole
// collection, for k ∈ {1, 2, 4, 8}, with and without the node-side
// query cache.
func TestRemoteClusterEqualsSingle(t *testing.T) {
	docs := remoteCorpus(400, 7)
	single := ir.NewIndex()
	for i, d := range docs {
		single.Add(bat.OID(i+1), "u", d)
	}
	queries := []string{
		"champion winner serve",
		"seles",
		"melbourne trophy volley match",
		"quetzalcoatl", // unknown term
	}
	for _, withCache := range []bool{false, true} {
		for _, k := range []int{1, 2, 4, 8} {
			c := startRemoteCluster(t, k, withCache, nil)
			for i, d := range docs {
				if err := c.AddContext(context.Background(), bat.OID(i+1), "u", d); err != nil {
					t.Fatalf("k=%d add: %v", k, err)
				}
			}
			for _, q := range queries {
				for _, n := range []int{1, 10, 50} {
					want := single.TopN(q, n)
					sr, err := c.Search(context.Background(), q, n)
					if err != nil {
						t.Fatalf("k=%d q=%q: %v", k, q, err)
					}
					if !sr.Complete() {
						t.Fatalf("k=%d q=%q: dropped %v", k, q, sr.Dropped)
					}
					ctx := fmt.Sprintf("cache=%v k=%d q=%q n=%d", withCache, k, q, n)
					if len(sr.Results) != len(want) {
						t.Fatalf("%s: %d results, want %d", ctx, len(sr.Results), len(want))
					}
					for i := range want {
						if sr.Results[i].Doc != want[i].Doc || sr.Results[i].Score != want[i].Score {
							t.Fatalf("%s: rank %d = %+v, want %+v", ctx, i, sr.Results[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestRemoteMixedWithLocal: a cluster mixing in-process and remote
// nodes behaves exactly like an all-local one.
func TestRemoteMixedWithLocal(t *testing.T) {
	docs := remoteCorpus(200, 3)
	srv := httptest.NewServer(server.NewNodeHandler(ir.NewIndex(), nil))
	t.Cleanup(srv.Close)
	mixed := dist.NewClusterOf([]dist.Node{
		dist.NewLocalNode(ir.NewIndex()),
		dist.NewRemoteNode(srv.URL, srv.Client()),
	}, nil)
	single := ir.NewIndex()
	for i, d := range docs {
		single.Add(bat.OID(i+1), "u", d)
		if err := mixed.AddContext(context.Background(), bat.OID(i+1), "u", d); err != nil {
			t.Fatal(err)
		}
	}
	want := single.TopN("champion winner serve", 10)
	sr, err := mixed.Search(context.Background(), "champion winner serve", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(sr.Results), len(want))
	}
	for i := range want {
		if sr.Results[i] != want[i] {
			t.Fatalf("rank %d = %+v, want %+v", i, sr.Results[i], want[i])
		}
	}
	if loads := mixed.NodeLoads(); loads[0]+loads[1] != len(docs) {
		t.Fatalf("loads = %v, want sum %d", loads, len(docs))
	}
}

// TestRemoteNodeDown: a cold cluster (no stats ever aggregated)
// pointed at a dead server fails the search outright; a warm cluster
// degrades instead — it falls back to the last aggregated statistics,
// drops the dead node and still answers.
func TestRemoteNodeDown(t *testing.T) {
	srv := httptest.NewServer(server.NewNodeHandler(ir.NewIndex(), nil))
	dead := dist.NewRemoteNode(srv.URL, srv.Client())
	srv.Close()
	cold := dist.NewClusterOf([]dist.Node{dist.NewLocalNode(ir.NewIndex()), dead}, nil)
	if _, err := cold.Search(context.Background(), "champion", 5); err == nil {
		t.Fatal("cold Search over a dead node's unaggregated stats succeeded")
	}

	srv2 := httptest.NewServer(server.NewNodeHandler(ir.NewIndex(), nil))
	dying := dist.NewRemoteNode(srv2.URL, srv2.Client())
	local := ir.NewIndex()
	warm := dist.NewClusterOf([]dist.Node{dist.NewLocalNode(local), dying}, nil)
	for i, d := range remoteCorpus(40, 21) {
		if err := warm.AddContext(context.Background(), bat.OID(i+1), "u", d); err != nil {
			t.Fatal(err)
		}
	}
	if sr, err := warm.Search(context.Background(), "champion", 5); err != nil || !sr.Complete() {
		t.Fatalf("healthy warm search: %v / %+v", err, sr)
	}
	srv2.Close()
	warm.InvalidateStats() // as if documents kept arriving
	sr, err := warm.Search(context.Background(), "champion", 5)
	if err != nil {
		t.Fatalf("warm cluster with dead node failed outright: %v", err)
	}
	if !sr.StaleStats {
		t.Fatal("StaleStats not reported after failed re-aggregation")
	}
	if len(sr.Dropped) != 1 || sr.Dropped[0] != 1 {
		t.Fatalf("dropped = %v, want [1]", sr.Dropped)
	}
	if len(sr.Results) == 0 {
		t.Fatal("no results from the surviving node")
	}
}
