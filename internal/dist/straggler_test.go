package dist

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dlsearch/internal/bat"
	"dlsearch/internal/ir"
)

// blockingNode wraps an inner node but never answers queries until its
// context is cancelled — a deterministic straggler: it ALWAYS misses
// any deadline, so which node gets dropped never depends on timing.
type blockingNode struct {
	Node
}

func (n *blockingNode) SearchPlan(ctx context.Context, query string, plan ir.EvalPlan, global ir.Stats) ([]ir.Result, ir.QualityEstimate, error) {
	<-ctx.Done()
	return nil, ir.QualityEstimate{}, ctx.Err()
}

// failingNode errors immediately on queries.
type failingNode struct {
	Node
}

var errNodeDown = errors.New("node down")

func (n *failingNode) SearchPlan(context.Context, string, ir.EvalPlan, ir.Stats) ([]ir.Result, ir.QualityEstimate, error) {
	return nil, ir.QualityEstimate{}, errNodeDown
}

// buildMixedCluster returns a 4-node cluster whose node `special`
// (index 2) is wrapped by wrap, plus a plain all-local control cluster
// over the same documents and partitioning.
func buildMixedCluster(t *testing.T, wrap func(Node) Node, opts *Options) (c, control *Cluster) {
	t.Helper()
	const k, special = 4, 2
	docs := corpus(200, 5)
	mixed := make([]Node, k)
	plain := make([]Node, k)
	for i := 0; i < k; i++ {
		mixed[i] = NewLocalNode(ir.NewIndex())
		plain[i] = NewLocalNode(ir.NewIndex())
	}
	mixed[special] = wrap(mixed[special])
	c = NewClusterOf(mixed, opts)
	control = NewClusterOf(plain, opts2noTimeout(opts))
	for i, d := range docs {
		c.Add(bat.OID(i+1), "u", d)
		control.Add(bat.OID(i+1), "u", d)
	}
	return c, control
}

func opts2noTimeout(opts *Options) *Options {
	if opts == nil {
		return nil
	}
	o := *opts
	o.NodeTimeout = 0
	return &o
}

// TestStragglerDropped: with a per-node timeout, a node that cannot
// answer is dropped, the query still completes within the deadline,
// and the merged ranking deterministically equals the merge over the
// responsive nodes.
func TestStragglerDropped(t *testing.T) {
	const timeout = 100 * time.Millisecond
	c, control := buildMixedCluster(t, func(n Node) Node { return &blockingNode{Node: n} },
		&Options{NodeTimeout: timeout})

	// The expected partial ranking: the control cluster with node 2's
	// RES set removed. Compute it by querying the control's nodes
	// directly and merging all but index 2.
	global := control.GlobalStats()
	var partial [][]ir.Result
	for i := 0; i < control.Size(); i++ {
		if i == 2 {
			continue
		}
		res, _, err := control.NodeAt(i).SearchPlan(context.Background(), "champion winner serve", ir.EvalPlan{N: 10}, global)
		if err != nil {
			t.Fatal(err)
		}
		partial = append(partial, res)
	}
	want := ir.Merge(10, partial...)

	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		sr, err := c.Search(context.Background(), "champion winner serve", 10)
		if err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed > 10*timeout {
			t.Fatalf("query took %v, deadline is %v", elapsed, timeout)
		}
		if len(sr.Dropped) != 1 || sr.Dropped[0] != 2 {
			t.Fatalf("dropped = %v, want [2]", sr.Dropped)
		}
		if sr.Complete() {
			t.Fatal("Complete() = true with a dropped node")
		}
		if !errors.Is(sr.Errs[2], context.DeadlineExceeded) {
			t.Fatalf("drop reason = %v, want deadline exceeded", sr.Errs[2])
		}
		sameRanking(t, "partial merge", sr.Results, want)
	}
}

// TestOverallDeadline: an expired caller context drops every node that
// has not answered, rather than hanging.
func TestOverallDeadline(t *testing.T) {
	c, _ := buildMixedCluster(t, func(n Node) Node { return &blockingNode{Node: n} }, nil)
	c.GlobalStats() // warm stats so only the query phase races the deadline
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	sr, err := c.Search(ctx, "champion", 10)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, i := range sr.Dropped {
		if i == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("dropped = %v, want node 2 included", sr.Dropped)
	}
}

// TestFailedNodeDropped: a node erroring outright is reported like a
// straggler and the merge proceeds without it.
func TestFailedNodeDropped(t *testing.T) {
	c, _ := buildMixedCluster(t, func(n Node) Node { return &failingNode{Node: n} }, nil)
	sr, err := c.Search(context.Background(), "champion winner", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Dropped) != 1 || sr.Dropped[0] != 2 {
		t.Fatalf("dropped = %v, want [2]", sr.Dropped)
	}
	if !errors.Is(sr.Errs[2], errNodeDown) {
		t.Fatalf("drop reason = %v, want %v", sr.Errs[2], errNodeDown)
	}
	if len(sr.Results) == 0 {
		t.Fatal("no results from responsive nodes")
	}
}

// TestNoTimeoutComplete: without deadlines nothing is ever dropped and
// Search equals TopN equals the single-index ranking.
func TestNoTimeoutComplete(t *testing.T) {
	docs := corpus(150, 13)
	single := ir.NewIndex()
	c := NewCluster(4, nil)
	for i, d := range docs {
		single.Add(bat.OID(i+1), "u", d)
		c.Add(bat.OID(i+1), "u", d)
	}
	sr, err := c.Search(context.Background(), "champion winner serve", 10)
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Complete() || len(sr.Dropped) != 0 {
		t.Fatalf("dropped = %v on a healthy cluster", sr.Dropped)
	}
	sameRanking(t, "search vs single", sr.Results, single.TopN("champion winner serve", 10))
}

// TestLocalNodeResolver: a LocalNode with the cached resolver injected
// returns exactly the uncached ranking.
func TestLocalNodeResolver(t *testing.T) {
	docs := corpus(150, 17)
	var resolved atomic.Int64
	resolver := func(ix *ir.Index, q string) ([]string, []bat.OID) {
		resolved.Add(1)
		return ix.ResolveQuery(q)
	}
	plain := make([]Node, 2)
	cached := make([]Node, 2)
	for i := range plain {
		plain[i] = NewLocalNode(ir.NewIndex())
		ln := NewLocalNode(ir.NewIndex())
		ln.SetResolver(resolver)
		cached[i] = ln
	}
	cp := NewClusterOf(plain, nil)
	cc := NewClusterOf(cached, nil)
	for i, d := range docs {
		cp.Add(bat.OID(i+1), "u", d)
		cc.Add(bat.OID(i+1), "u", d)
	}
	want := cp.TopN("melbourne trophy volley", 10)
	sameRanking(t, "resolver path", cc.TopN("melbourne trophy volley", 10), want)
	if resolved.Load() == 0 {
		t.Fatal("resolver never invoked")
	}
}

// switchableNode answers like the node it wraps until killed; from then
// on searches and statistics pulls hang until their deadline and
// ingest fails. It counts the searches that reach it, dead or alive.
type switchableNode struct {
	Node
	dead     atomic.Bool
	searches atomic.Int64
}

func (n *switchableNode) SearchPlan(ctx context.Context, q string, p ir.EvalPlan, g ir.Stats) ([]ir.Result, ir.QualityEstimate, error) {
	n.searches.Add(1)
	if n.dead.Load() {
		<-ctx.Done()
		return nil, ir.QualityEstimate{}, ctx.Err()
	}
	return n.Node.SearchPlan(ctx, q, p, g)
}

func (n *switchableNode) Stats(ctx context.Context) (ir.Stats, error) {
	if n.dead.Load() {
		<-ctx.Done()
		return ir.Stats{}, ctx.Err()
	}
	return n.Node.Stats(ctx)
}

func (n *switchableNode) AddBatch(ctx context.Context, docs []Doc) error {
	if n.dead.Load() {
		return errNodeDown
	}
	return n.Node.AddBatch(ctx, docs)
}

// TestUnaskedPartitionCannotDrop: a search asks only the partitions
// holding a posting its cut-off admits, so a dead partition drops only
// from the searches that needed it. Once an ingest made its statistics
// stale and their refresh failed, the dead partition is asked whatever
// its last statistics said, and drops.
func TestUnaskedPartitionCannotDrop(t *testing.T) {
	live := NewLocalNode(ir.NewIndex())
	dead := &switchableNode{Node: NewLocalNode(ir.NewIndex())}
	c := NewClusterOf([]Node{live, dead}, &Options{NodeTimeout: 50 * time.Millisecond})
	// Round-robin: odd oids land on partition 0, even ones on 1. Only
	// partition 0 holds "zanzibar"; both hold "match".
	for i, d := range []string{"zanzibar match", "match ball", "match court", "ball court", "match game", "game ball"} {
		c.Add(bat.OID(i+1), "u", d)
	}
	ctx := context.Background()
	budgeted := ir.EvalPlan{N: 10, Frags: 8, Budget: 1}
	if sr, err := c.SearchPlan(ctx, "zanzibar", budgeted); err != nil || !sr.Complete() || len(sr.Results) != 1 {
		t.Fatalf("healthy search: %+v, %v", sr, err)
	}
	if n := dead.searches.Load(); n != 0 {
		t.Fatalf("partition 1 holds no admitted stem but was searched %d times", n)
	}
	dead.dead.Store(true)

	sr, err := c.SearchPlan(ctx, "zanzibar", budgeted)
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Complete() || len(sr.Dropped) != 0 || len(sr.Results) != 1 {
		t.Fatalf("search admitting nothing on the dead partition: dropped %v stale %v, %d results", sr.Dropped, sr.StaleStats, len(sr.Results))
	}
	if n := dead.searches.Load(); n != 0 {
		t.Fatalf("the dead partition was searched %d times", n)
	}

	sr, err = c.SearchPlan(ctx, "match", ir.EvalPlan{N: 10, Frags: 8, Budget: 8})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Complete() || !slices.Equal(sr.Dropped, []int{1}) || !errors.Is(sr.Errs[1], context.DeadlineExceeded) {
		t.Fatalf("search admitting a posting on the dead partition: dropped %v (%v), want [1]", sr.Dropped, sr.Errs)
	}
	if n := dead.searches.Load(); n != 1 {
		t.Fatalf("the dead partition was searched %d times, want 1", n)
	}

	// An ingest routed to the dead partition fails, but leaves its
	// statistics stale; their refresh fails too.
	if err := c.AddContext(ctx, 8, "u", "zanzibar"); err == nil {
		t.Fatal("ingest into the dead partition succeeded")
	}
	sr, err = c.SearchPlan(ctx, "zanzibar", budgeted)
	if err != nil {
		t.Fatal(err)
	}
	if !sr.StaleStats || !slices.Equal(sr.Dropped, []int{1}) {
		t.Fatalf("search over stale statistics: stale %v dropped %v, want stale and [1]", sr.StaleStats, sr.Dropped)
	}
	if n := dead.searches.Load(); n != 2 {
		t.Fatalf("the dead partition was searched %d times, want 2", n)
	}
	if len(sr.Results) != 1 {
		t.Fatalf("%d results, want partition 0's document", len(sr.Results))
	}
}
