package dist_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"

	"dlsearch/internal/bat"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/server"
)

// countingNode counts the searches that reach the node it wraps.
type countingNode struct {
	dist.Node
	searches atomic.Int64
}

func (n *countingNode) SearchPlan(ctx context.Context, q string, p ir.EvalPlan, g ir.Stats) ([]ir.Result, ir.QualityEstimate, error) {
	n.searches.Add(1)
	return n.Node.SearchPlan(ctx, q, p, g)
}

// admittedGroups derives, from a single index over the whole corpus and
// each partition's own statistics, which partitions hold a posting of a
// stem the plan admits: every stem with a df under an exact plan, the
// stems in the leading fragments of the collection's cut-off table
// under a budgeted one.
func admittedGroups(t *testing.T, c *dist.Cluster, single *ir.Index, query string, plan ir.EvalPlan) []bool {
	t.Helper()
	whole := single.StatsLocal()
	stems := ir.QueryStems(nil, query)
	dfs := make([]int, len(stems))
	admitted := make([]bool, len(stems))
	for i, s := range stems {
		dfs[i] = whole.DF[s]
		admitted[i] = dfs[i] > 0
	}
	if !plan.Exact() {
		hist := whole.Histogram()
		k := plan.Frags
		if k <= 0 {
			k = ir.DefaultFragments
		}
		frag, est := ir.Cutoff(nil, hist.Table(min(k, hist.Classes())), dfs, plan)
		for i := range stems {
			admitted[i] = admitted[i] && int(frag[i]) < est.FragsUsed
		}
	}
	held := make([]bool, c.Size())
	for g := range held {
		local, err := c.NodeAt(g).Stats(context.Background())
		if err != nil {
			t.Fatalf("partition %d stats: %v", g, err)
		}
		for i, s := range stems {
			held[g] = held[g] || (admitted[i] && local.DF[s] > 0)
		}
	}
	return held
}

// TestSearchAsksOnlyAdmittedGroups: a search reaches exactly the
// partitions that hold a posting of a stem its cut-off admits, and its
// answer is still the single index's, for in-process and remote nodes
// alike. A query the cut admits nothing of reaches no node at all.
func TestSearchAsksOnlyAdmittedGroups(t *testing.T) {
	// One document carries a term no other has, so for k > 1 exactly one
	// partition knows its stem.
	docs := append(remoteCorpus(300, 23), "zanzibar champion serve")
	queries := []string{
		"zanzibar",                     // a rare stem, on one partition
		"match game ball",              // common stems only
		"quetzalcoatl",                 // a word no partition knows
		"zanzibar match quetzalcoatl",  // all of the above at once
		"seles melbourne trophy court", // rare and common stems on every partition
	}
	plans := []ir.EvalPlan{
		{N: 10},
		{N: 10, Frags: 8, Budget: 1},
		{N: 10, Frags: 8, Budget: 2},
		{N: 10, Frags: 8, Budget: 4},
		{N: 10, Frags: 8, Budget: 8},
	}
	single := ir.NewIndex()
	for i, d := range docs {
		single.Add(bat.OID(i+1), "u", d)
	}
	single.Freeze()
	ctx := context.Background()
	var none, some int // searches that asked no partition, and a strict subset
	for _, k := range []int{1, 2, 4, 8} {
		for _, remote := range []bool{false, true} {
			var inner []dist.Node
			if remote {
				for range k {
					srv := httptest.NewServer(server.NewNodeHandler(ir.NewIndex(), nil))
					t.Cleanup(srv.Close)
					inner = append(inner, dist.NewRemoteNode(srv.URL, srv.Client()))
				}
			} else {
				for range k {
					inner = append(inner, dist.NewLocalNode(ir.NewIndex()))
				}
			}
			counted := make([]*countingNode, k)
			nodes := make([]dist.Node, k)
			for g := range nodes {
				counted[g] = &countingNode{Node: inner[g]}
				nodes[g] = counted[g]
			}
			c := dist.NewClusterOf(nodes, nil)
			for i, d := range docs {
				if err := c.AddContext(ctx, bat.OID(i+1), "u", d); err != nil {
					t.Fatal(err)
				}
			}
			for _, q := range queries {
				for _, plan := range plans {
					label := fmt.Sprintf("k=%d remote=%v q=%q budget=%d", k, remote, q, plan.Budget)
					want := admittedGroups(t, c, single, q, plan)
					for _, n := range counted {
						n.searches.Store(0)
					}
					got, err := c.SearchPlan(ctx, q, plan)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					res, est := single.Evaluate(ir.Request{Query: q, Plan: plan})
					sameSearch(t, label, got, &dist.SearchResult{Results: res, Quality: est})
					called := make([]bool, k)
					for g, n := range counted {
						switch calls := n.searches.Load(); calls {
						case 0, 1:
							called[g] = calls == 1
						default:
							t.Fatalf("%s: partition %d searched %d times", label, g, calls)
						}
					}
					if !slices.Equal(called, want) {
						t.Fatalf("%s: asked partitions %v, want those holding an admitted stem %v", label, called, want)
					}
					switch asked := countTrue(called); {
					case asked == 0:
						none++
					case asked < k:
						some++
					}
				}
			}
		}
	}
	if none == 0 || some == 0 {
		t.Fatalf("%d searches asked no partition and %d a strict subset; the corpus must exercise both", none, some)
	}
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}
