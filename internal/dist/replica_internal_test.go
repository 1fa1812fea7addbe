package dist

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"dlsearch/internal/bat"
	"dlsearch/internal/ir"
)

// addFailNode wraps an inner node but rejects every write — the
// deterministic write-failure case of the batch-outcome contract.
type addFailNode struct {
	Node
}

var errAddRejected = errors.New("add rejected")

func (n *addFailNode) AddBatch(context.Context, []Doc) error {
	return errAddRejected
}

// TestNewReplicaGroupsValidation: the node count must divide into
// groups of r; r < 1 is clamped to 1.
func TestNewReplicaGroupsValidation(t *testing.T) {
	nodes := make([]Node, 6)
	for i := range nodes {
		nodes[i] = NewLocalNode(ir.NewIndex())
	}
	if _, err := NewReplicaGroups(nodes[:5], 2); err == nil {
		t.Fatal("5 nodes sliced into groups of 2 without error")
	}
	if _, err := NewReplicaGroups(nil, 2); err == nil {
		t.Fatal("empty node list accepted")
	}
	groups, err := NewReplicaGroups(nodes, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || len(groups[0]) != 3 {
		t.Fatalf("groups = %dx%d, want 2x3", len(groups), len(groups[0]))
	}
	if groups[1][0] != nodes[3] {
		t.Fatal("groups are not consecutive slices")
	}
	clamped, err := NewReplicaGroups(nodes[:2], 0)
	if err != nil || len(clamped) != 2 {
		t.Fatalf("r=0 clamp: %v, %d groups", err, len(clamped))
	}
}

// TestAddBatchResultsFailedPartition: a partition whose only replica
// rejects writes reports Committed 0 — the retry-safe failure — while
// the healthy partition commits, and AddBatchContext folds the
// partition errors into one.
func TestAddBatchResultsFailedPartition(t *testing.T) {
	good := NewLocalNode(ir.NewIndex())
	bad := &addFailNode{Node: NewLocalNode(ir.NewIndex())}
	c := NewClusterOf([]Node{good, bad}, nil)
	docs := []Doc{
		{OID: 1, Text: "champion trophy"}, // partition 0 (good)
		{OID: 2, Text: "winner serve"},    // partition 1 (bad)
		{OID: 3, Text: "melbourne ace"},   // partition 0 (good)
	}
	results := c.AddBatchResults(context.Background(), docs)
	if len(results) != 2 {
		t.Fatalf("%d partition results, want 2", len(results))
	}
	p0, p1 := results[0], results[1]
	if p0.Partition != 0 || p1.Partition != 1 {
		t.Fatalf("partition order %d,%d, want 0,1", p0.Partition, p1.Partition)
	}
	if p0.Err != nil || p0.Committed != 1 || p0.Failed() {
		t.Fatalf("healthy partition: %+v", p0)
	}
	if want := []bat.OID{1, 3}; len(p0.Docs) != 2 || p0.Docs[0] != want[0] || p0.Docs[1] != want[1] {
		t.Fatalf("partition 0 docs = %v, want %v", p0.Docs, want)
	}
	if !p1.Failed() || p1.Committed != 0 || !errors.Is(p1.Err, errAddRejected) {
		t.Fatalf("failing partition: %+v", p1)
	}
	if len(p1.Docs) != 1 || p1.Docs[0] != 2 {
		t.Fatalf("partition 1 docs = %v, want [2]", p1.Docs)
	}
	if err := c.AddBatchContext(context.Background(), docs); !errors.Is(err, errAddRejected) {
		t.Fatalf("AddBatchContext err = %v", err)
	}
}

// TestAddBatchResultsDegradedPartition: with one of two replicas
// rejecting writes the partition is DEGRADED — committed on the
// survivor (documents searchable) but not retry-safe, so Failed()
// must be false while Err names the lagging replica.
func TestAddBatchResultsDegradedPartition(t *testing.T) {
	healthy := NewLocalNode(ir.NewIndex())
	lagging := &addFailNode{Node: NewLocalNode(ir.NewIndex())}
	c := NewReplicatedClusterOf([][]Node{{healthy, lagging}}, nil)
	results := c.AddBatchResults(context.Background(), []Doc{
		{OID: 1, Text: "champion trophy"},
		{OID: 2, Text: "winner serve"},
	})
	if len(results) != 1 {
		t.Fatalf("%d partition results, want 1", len(results))
	}
	p := results[0]
	if p.Replicas != 2 || p.Committed != 1 {
		t.Fatalf("committed %d/%d, want 1/2", p.Committed, p.Replicas)
	}
	if p.Failed() {
		t.Fatal("degraded partition misreported as retry-safe failed")
	}
	if !errors.Is(p.Err, errAddRejected) {
		t.Fatalf("err = %v, want the replica failure", p.Err)
	}
	// The committed documents are searchable through the survivor.
	sr, err := c.Search(context.Background(), "champion", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != 1 || sr.Results[0].Doc != 1 {
		t.Fatalf("degraded partition lost its committed docs: %+v", sr.Results)
	}
	// And the lagging replica's health reflects the write failure.
	if h := c.ReplicaHealth()[0][1]; h.Healthy() || h.Fails == 0 {
		t.Fatalf("lagging replica reported healthy: %+v", h)
	}
}

// TestReplicatedLocalEqualsUnreplicated: an in-process replicated
// cluster ranks exactly like the unreplicated cluster with the same
// partition count — replication must be invisible to the ranking.
func TestReplicatedLocalEqualsUnreplicated(t *testing.T) {
	docs := corpus(200, 71)
	nodes := make([]Node, 4)
	for i := range nodes {
		nodes[i] = NewLocalNode(ir.NewIndex())
	}
	rc, err := NewReplicatedCluster(nodes, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain := NewCluster(2, nil)
	for i, d := range docs {
		rc.Add(bat.OID(i+1), "u", d)
		plain.Add(bat.OID(i+1), "u", d)
	}
	if rc.Size() != 2 || rc.Replicas(0) != 2 {
		t.Fatalf("shape = %d partitions x %d replicas", rc.Size(), rc.Replicas(0))
	}
	for _, q := range []string{"champion winner serve", "seles"} {
		sameRanking(t, q, rc.TopN(q, 10), plain.TopN(q, 10))
	}
	// Both replicas of each partition must hold identical copies.
	for g := 0; g < rc.Size(); g++ {
		a := rc.ReplicaAt(g, 0).(*LocalNode).Index()
		b := rc.ReplicaAt(g, 1).(*LocalNode).Index()
		if a.DocCount() != b.DocCount() || a.TermCount() != b.TermCount() {
			t.Fatalf("partition %d replicas diverged: %d/%d docs", g, a.DocCount(), b.DocCount())
		}
	}
}

// readFailNode wraps an inner node; reads fail while broken is set.
// Stats keeps working so statistics aggregation stays healthy and the
// test isolates the query routing path, unless statsBroken is set too.
type readFailNode struct {
	Node
	broken      atomic.Bool
	statsBroken atomic.Bool
}

func (n *readFailNode) Stats(ctx context.Context) (ir.Stats, error) {
	if n.statsBroken.Load() {
		return ir.Stats{}, errReadBroken
	}
	return n.Node.Stats(ctx)
}

var errReadBroken = errors.New("read broken")

func (n *readFailNode) SearchPlan(ctx context.Context, q string, p ir.EvalPlan, g ir.Stats) ([]ir.Result, ir.QualityEstimate, error) {
	if n.broken.Load() {
		return nil, ir.QualityEstimate{}, errReadBroken
	}
	return n.Node.SearchPlan(ctx, q, p, g)
}

// TestDivergedReplicaQuarantinedAndFlagged: a replica that failed a
// write its group committed is (1) routed last even after it answers
// probes again, and (2) when it DOES end up serving — every other
// replica down — the search reports the partition in Diverged and
// Complete() turns false, instead of passing a ranking that may miss
// committed documents as complete.
func TestDivergedReplicaQuarantinedAndFlagged(t *testing.T) {
	primary := &readFailNode{Node: NewLocalNode(ir.NewIndex())}
	lagging := &addFailNode{Node: NewLocalNode(ir.NewIndex())}
	c := NewReplicatedClusterOf([][]Node{{primary, lagging}}, nil)
	// The degraded write: commits on primary, fails on lagging.
	if err := c.AddContext(context.Background(), 1, "u", "champion trophy"); err == nil {
		t.Fatal("degraded write reported no error")
	}
	if h := c.ReplicaHealth()[0][1]; !h.Diverged || h.Healthy() {
		t.Fatalf("lagging replica not marked diverged: %+v", h)
	}
	// Healthy primary serves: complete, nothing diverged in the result.
	sr, err := c.Search(context.Background(), "champion", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Complete() || len(sr.Diverged) != 0 || len(sr.Results) != 1 {
		t.Fatalf("healthy-primary search = %+v", sr)
	}
	// A load probe succeeding on the lagging replica must NOT restore
	// its routing rank: fails reset, diverged stays.
	if _, err := c.groups[0][1].Load(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.record(0, 1, nil, 0) // simulate the probe success reaching health
	if h := c.ReplicaHealth()[0][1]; !h.Diverged || h.Healthy() {
		t.Fatalf("probe success cleared the divergence mark: %+v", h)
	}
	// Primary breaks: the diverged replica is the only option — the
	// search still answers but flags the partition.
	primary.broken.Store(true)
	sr, err = c.Search(context.Background(), "champion", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Dropped) != 0 {
		t.Fatalf("partition dropped despite a serving (diverged) replica: %+v", sr)
	}
	if len(sr.Diverged) != 1 || sr.Diverged[0] != 0 {
		t.Fatalf("diverged service not reported: %+v", sr)
	}
	if sr.Complete() {
		t.Fatal("Complete() = true for a ranking served by a diverged replica")
	}
	if len(sr.Results) != 0 {
		// The diverged replica never got doc 1 (its Add was rejected),
		// so its RES set is empty — exactly the silent-miss the flag
		// exists to expose.
		t.Fatalf("diverged replica returned %+v", sr.Results)
	}
	// The primary's statistics die too, and an invalidation makes the
	// next pull fail over to the diverged replica, whose df for
	// "champion" is 0: neither plan admits a stem. Statistics from a
	// replica that may miss committed postings cannot rule its
	// partition out, so the partition is still asked and flagged.
	primary.statsBroken.Store(true)
	for _, plan := range []ir.EvalPlan{{N: 5}, {N: 5, Frags: 8, Budget: 1}} {
		c.InvalidateStats()
		sr, err = c.SearchPlan(context.Background(), "champion", plan)
		if err != nil {
			t.Fatal(err)
		}
		if sr.StaleStats || len(sr.Dropped) != 0 || len(sr.Results) != 0 {
			t.Fatalf("plan %+v: search over diverged statistics = %+v", plan, sr)
		}
		if len(sr.Diverged) != 1 || sr.Diverged[0] != 0 || sr.Complete() {
			t.Fatalf("plan %+v: partition with diverged statistics not asked and flagged: %+v", plan, sr)
		}
	}
}

// TestBudgetedFailoverAcrossHistories: replicas holding the same
// documents by different histories — added in another order, or
// restored from a snapshot and then fed the rest — give identical
// budgeted answers, before and after the primaries die: the cut-off is
// the coordinator's, under global df, so no replica's past can move
// it. Both equal the same plan on a single index over the corpus.
func TestBudgetedFailoverAcrossHistories(t *testing.T) {
	ctx := context.Background()
	texts := corpus(400, 71)
	single := ir.NewIndex()
	for i, text := range texts {
		single.Add(bat.OID(i+1), "u", text)
	}
	single.Freeze()
	const parts = 2
	// part returns partition g's documents in the given oid order.
	part := func(g int, oids []int) []Doc {
		var docs []Doc
		for _, oid := range oids {
			if roundRobin(bat.OID(oid), parts) == g {
				docs = append(docs, Doc{OID: bat.OID(oid), URL: "u", Text: texts[oid-1]})
			}
		}
		return docs
	}
	ascending := make([]int, len(texts))
	for i := range ascending {
		ascending[i] = i + 1
	}
	reversed := make([]int, len(texts))
	for i := range reversed {
		reversed[i] = len(texts) - i
	}
	plans := []ir.EvalPlan{
		{N: 10, Frags: 8, Budget: 1},
		{N: 10, Frags: 8, Budget: 2},
		{N: 10, Frags: 8, Budget: 4},
		{N: 10, Frags: 8, Budget: 8},
		{N: 10, Budget: 1, MinQuality: 0.9},
	}
	queries := []string{"seles match ball", "champion winner serve melbourne", "court game set trophy"}
	for _, history := range []string{"reordered", "restored"} {
		groups := make([][]Node, parts)
		primaries := make([]*readFailNode, parts)
		for g := range groups {
			primaries[g] = &readFailNode{Node: NewLocalNode(ir.NewIndex())}
			if err := primaries[g].AddBatch(ctx, part(g, ascending)); err != nil {
				t.Fatal(err)
			}
			replica := NewLocalNode(ir.NewIndex())
			switch history {
			case "reordered":
				if err := replica.AddBatch(ctx, part(g, reversed)); err != nil {
					t.Fatal(err)
				}
			case "restored":
				donor := NewLocalNode(ir.NewIndex())
				if err := donor.AddBatch(ctx, part(g, reversed[:200])); err != nil {
					t.Fatal(err)
				}
				if err := replica.RestoreState(ctx, donor.ExportState()); err != nil {
					t.Fatal(err)
				}
				if err := replica.AddBatch(ctx, part(g, reversed[200:])); err != nil {
					t.Fatal(err)
				}
			}
			groups[g] = []Node{primaries[g], replica}
		}
		c := NewReplicatedClusterOf(groups, nil)
		check := func(phase string) {
			for _, q := range queries {
				for _, plan := range plans {
					label := fmt.Sprintf("%s %s q=%q plan=%+v", history, phase, q, plan)
					want, wantEst := single.Evaluate(ir.Request{Query: q, Plan: plan})
					sr, err := c.SearchPlan(ctx, q, plan)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !sr.Complete() {
						t.Fatalf("%s: incomplete: %+v", label, sr)
					}
					sameRanking(t, label, sr.Results, want)
					if sr.Quality != wantEst {
						t.Fatalf("%s: quality %+v, want %+v", label, sr.Quality, wantEst)
					}
				}
			}
		}
		check("primaries up")
		for _, p := range primaries {
			p.broken.Store(true)
		}
		c.InvalidateStats()
		check("primaries down")
		if c.Telemetry().Failovers < parts {
			t.Fatalf("%s: %d failovers, want every partition served by its replica", history, c.Telemetry().Failovers)
		}
	}
}
