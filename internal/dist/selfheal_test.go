package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dlsearch/internal/bat"
	"dlsearch/internal/ir"
)

// epochTermCache is a one-entry term-resolution cache with the same
// validation rule as the serving layer's real cache (core.QueryCache):
// an entry is served only while the index's freeze epoch still matches
// the one it was stored under. It keys on the query alone — stricter
// than core.QueryCache, which also keys on the index — so only the
// epoch stands between a restored index and a pre-restore resolution.
// Defined here because dist cannot import core (core's engine backend
// imports dist).
type epochTermCache struct {
	key   string
	epoch uint64
	stems []string
	oids  []bat.OID
	hits  int
}

func (c *epochTermCache) resolve(ix *ir.Index, query string) ([]string, []bat.OID) {
	if c.oids != nil && c.key == query && c.epoch == ix.Epoch() {
		c.hits++
		return c.stems, c.oids
	}
	c.key, c.epoch = query, ix.Epoch()
	c.stems, c.oids = ix.ResolveQuery(query)
	return c.stems, c.oids
}

// groupChecksums probes every replica of partition g for a FRESH
// content checksum.
func groupChecksums(t *testing.T, c *Cluster, g int) []string {
	t.Helper()
	out := make([]string, len(c.groups[g]))
	for r, node := range c.groups[g] {
		l, err := node.LoadChecksum(context.Background())
		if err != nil {
			t.Fatalf("load %d/%d: %v", g, r, err)
		}
		out[r] = l.Checksum
	}
	return out
}

// TestIdempotentIngestReplay is the headline-bugfix regression: a
// batch whose acknowledgement was lost is re-posted verbatim, and the
// replay must be a complete no-op — scores byte-identical, no tf
// double-fold, replicas still checksum-equal.
func TestIdempotentIngestReplay(t *testing.T) {
	nodes := make([]Node, 4)
	for i := range nodes {
		nodes[i] = NewLocalNode(ir.NewIndex())
	}
	c, err := NewReplicatedCluster(nodes, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]Doc, 0, 40)
	for i, text := range corpus(40, 17) {
		docs = append(docs, Doc{OID: bat.OID(i + 1), URL: "u", Text: text})
	}
	if err := c.AddBatchContext(context.Background(), docs); err != nil {
		t.Fatal(err)
	}
	queries := []string{"champion winner serve", "seles", "match play"}
	before := make([][]ir.Result, len(queries))
	for i, q := range queries {
		before[i] = c.TopN(q, 10)
	}
	sums := groupChecksums(t, c, 0)
	// The replay: every partition must fully (re-)commit without error.
	results := c.AddBatchResults(context.Background(), docs)
	for _, p := range results {
		if p.Err != nil || p.Committed != p.Replicas {
			t.Fatalf("replayed partition %d: committed %d/%d, err %v",
				p.Partition, p.Committed, p.Replicas, p.Err)
		}
	}
	for i, q := range queries {
		sameRanking(t, "replay "+q, c.TopN(q, 10), before[i])
	}
	for g := 0; g < c.Size(); g++ {
		post := groupChecksums(t, c, g)
		if post[0] != post[1] {
			t.Fatalf("partition %d replicas diverged after replay: %v", g, post)
		}
	}
	if g0 := groupChecksums(t, c, 0); g0[0] != sums[0] {
		t.Fatalf("replay changed partition 0 content: %s -> %s", sums[0], g0[0])
	}
	// Single-document replay through Add is equally inert.
	if err := c.AddContext(context.Background(), docs[0].OID, "u", docs[0].Text); err != nil {
		t.Fatal(err)
	}
	sameRanking(t, "re-add", c.TopN(queries[0], 10), before[0])
}

// ackLostNode applies writes on its LocalNode but loses the
// acknowledgement while `lossy` is set — the timed-out-after-applying
// replica that made retries unsafe before idempotent ingest.
type ackLostNode struct {
	*LocalNode
	lossy atomic.Bool
}

var errAckLost = errors.New("deadline exceeded (ack lost)")

func (n *ackLostNode) AddBatch(ctx context.Context, docs []Doc) error {
	err := n.LocalNode.AddBatch(ctx, docs)
	if n.lossy.Load() {
		return errAckLost
	}
	return err
}

// TestAckLostRetryHealsGroup: a replica that APPLIES a batch but loses
// the acknowledgement leaves the partition degraded; retrying the same
// documents used to double-fold tf on that replica — with per-oid
// idempotent ingest the retry skips the applied copies, converges the
// group, and the anti-entropy check then lifts the stale quarantine
// because the checksums match.
func TestAckLostRetryHealsGroup(t *testing.T) {
	flaky := &ackLostNode{LocalNode: NewLocalNode(ir.NewIndex())}
	healthy := NewLocalNode(ir.NewIndex())
	c := NewReplicatedClusterOf([][]Node{{healthy, flaky}}, nil)
	flaky.lossy.Store(true)
	docs := []Doc{
		{OID: 1, URL: "u", Text: "champion trophy melbourne"},
		{OID: 2, URL: "u", Text: "winner serve ace"},
	}
	results := c.AddBatchResults(context.Background(), docs)
	p := results[0]
	if p.Committed != 1 || p.Err == nil || p.Failed() {
		t.Fatalf("lost-ack outcome: %+v", p)
	}
	if h := c.ReplicaHealth()[0][1]; !h.Diverged {
		t.Fatal("ack-losing replica not quarantined")
	}
	// The replica HAS the documents — contents already equal — but the
	// cluster cannot know that yet.
	want := c.TopN("champion winner", 10)
	// Retry after the fault clears: skipped on both replicas, full commit.
	flaky.lossy.Store(false)
	retry := c.AddBatchResults(context.Background(), docs)
	if p := retry[0]; p.Err != nil || p.Committed != 2 {
		t.Fatalf("retry outcome: %+v", p)
	}
	sameRanking(t, "after retry", c.TopN("champion winner", 10), want)
	sums := groupChecksums(t, c, 0)
	if sums[0] != sums[1] {
		t.Fatalf("replicas differ after retry: %v", sums)
	}
	// Anti-entropy observes matching checksums and clears the stale
	// quarantine — no resync needed, nothing detected.
	rep := c.CheckReplicas(context.Background(), true)
	if rep.Cleared != 1 || rep.Detected != 0 || rep.Resynced != 0 {
		t.Fatalf("anti-entropy pass = %+v", rep)
	}
	if h := c.ReplicaHealth()[0][1]; h.Diverged {
		t.Fatal("quarantine not lifted despite matching checksums")
	}
	sr, err := c.Search(context.Background(), "champion winner", 10)
	if err != nil || !sr.Complete() {
		t.Fatalf("post-heal search: %v / %+v", err, sr)
	}
}

// breakableNode is a LocalNode whose QUERY path can be switched off;
// it still acts as a resync source while its reads are broken.
type breakableNode struct {
	*LocalNode
	broken atomic.Bool
}

func (n *breakableNode) SearchPlan(ctx context.Context, q string, p ir.EvalPlan, g ir.Stats) ([]ir.Result, ir.QualityEstimate, error) {
	if n.broken.Load() {
		return nil, ir.QualityEstimate{}, errReadBroken
	}
	return n.LocalNode.SearchPlan(ctx, q, p, g)
}

// TestResyncReplicaHealsWipedReplica is the tentpole's core loop in
// process form: wipe one replica of a live R=2 cluster, let
// CheckReplicas detect the divergence and resync it from the group,
// then force the healed replica to serve and require the ranking
// byte-identical and complete — zero operator action.
func TestResyncReplicaHealsWipedReplica(t *testing.T) {
	primary := &breakableNode{LocalNode: NewLocalNode(ir.NewIndex())}
	secondary := NewLocalNode(ir.NewIndex())
	c := NewReplicatedClusterOf([][]Node{{primary, secondary}}, nil)
	for i, d := range corpus(60, 5) {
		if err := c.AddContext(context.Background(), bat.OID(i+1), "u", d); err != nil {
			t.Fatal(err)
		}
	}
	want, err := c.Search(context.Background(), "champion winner serve", 10)
	if err != nil || !want.Complete() {
		t.Fatalf("pre-fault search: %v / %+v", err, want)
	}
	// Wipe the secondary: its whole fragment state is replaced by an
	// empty one (the in-process equivalent of a node restarted with a
	// wiped data dir).
	if err := secondary.RestoreState(context.Background(), ir.NewIndex().ExportState()); err != nil {
		t.Fatal(err)
	}
	// Detection only: the empty replica is flagged, not yet healed.
	rep := c.CheckReplicas(context.Background(), false)
	if rep.Detected != 1 || rep.Resynced != 0 {
		t.Fatalf("detection pass = %+v", rep)
	}
	if h := c.ReplicaHealth()[0][1]; !h.Diverged {
		t.Fatal("wiped replica not flagged diverged")
	}
	if c.Telemetry().DivergenceDetected != 1 {
		t.Fatalf("telemetry = %+v", c.Telemetry())
	}
	// Repair pass: resync from the surviving member.
	rep = c.CheckReplicas(context.Background(), true)
	if rep.Resynced != 1 {
		t.Fatalf("repair pass = %+v", rep)
	}
	if h := c.ReplicaHealth()[0][1]; h.Diverged || h.LastResyncUnix == 0 {
		t.Fatalf("healed replica health = %+v", h)
	}
	if tel := c.Telemetry(); tel.Resyncs != 1 {
		t.Fatalf("telemetry = %+v", tel)
	}
	sums := groupChecksums(t, c, 0)
	if sums[0] != sums[1] {
		t.Fatalf("checksums differ after resync: %v", sums)
	}
	// Force the healed replica to serve: break the primary.
	primary.broken.Store(true)
	got, err := c.Search(context.Background(), "champion winner serve", 10)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Complete() {
		t.Fatalf("post-resync search degraded: %+v", got)
	}
	sameRanking(t, "served by healed replica", got.Results, want.Results)
}

// TestAntiEntropyForeignFragmentCannotBeReference: "most documents
// wins" must never elect a replica holding a FOREIGN fragment (wrong
// -resync peer, copied data dir) as the group's truth — repair would
// erase the partition's committed documents from the correct replicas.
// The tripwire: a correct replica's documents all satisfy
// partition(doc) == g, so a bigger replica whose MaxDoc maps elsewhere
// is disqualified, flagged, and healed FROM the correct member.
func TestAntiEntropyForeignFragmentCannotBeReference(t *testing.T) {
	nodes := make([]Node, 4)
	for i := range nodes {
		nodes[i] = NewLocalNode(ir.NewIndex())
	}
	c, err := NewReplicatedCluster(nodes, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for oid := bat.OID(1); oid <= 8; oid++ {
		if err := c.AddContext(context.Background(), oid, "u", fmt.Sprintf("champion doc%d", oid)); err != nil {
			t.Fatal(err)
		}
	}
	correct := groupChecksums(t, c, 0)[0]
	// Wrongly seed replica (0,1) with partition 1's oid pattern (even
	// oids → partition 1 under round-robin) and MORE documents than the
	// correct replica holds.
	foreign := ir.NewIndex()
	for oid := bat.OID(2); oid <= 20; oid += 2 {
		foreign.Add(oid, "u", fmt.Sprintf("foreign doc%d", oid))
	}
	if err := nodes[1].(*LocalNode).RestoreState(context.Background(), foreign.ExportState()); err != nil {
		t.Fatal(err)
	}
	rep := c.CheckReplicas(context.Background(), true)
	if rep.Detected != 1 || rep.Resynced != 1 {
		t.Fatalf("pass = %+v", rep)
	}
	sums := groupChecksums(t, c, 0)
	if sums[0] != correct || sums[1] != correct {
		t.Fatalf("repair erased the committed fragment: want %s, got %v", correct, sums)
	}
}

// TestResyncReplicaNoSource: a single-replica partition has nothing to
// heal from, and a group whose only other member is quarantined
// refuses to copy divergence around.
func TestResyncReplicaNoSource(t *testing.T) {
	solo := NewClusterOf([]Node{NewLocalNode(ir.NewIndex())}, nil)
	if err := solo.ResyncReplica(context.Background(), 0, 0); err == nil {
		t.Fatal("single-replica resync did not fail")
	}
	a, b := NewLocalNode(ir.NewIndex()), NewLocalNode(ir.NewIndex())
	c := NewReplicatedClusterOf([][]Node{{a, b}}, nil)
	c.markDiverged(0, 0)
	if err := c.ResyncReplica(context.Background(), 0, 1); err == nil {
		t.Fatal("resync from an all-diverged group did not fail")
	}
}

// TestResyncRacingAddsLosesNothing is the satellite race guarantee:
// adds racing pull-snapshot imports must neither deadlock nor lose
// committed documents. Writers hammer the cluster while resyncs run in
// a loop; afterwards both replicas must hold every committed document
// and digest identically. Run under -race in CI.
func TestResyncRacingAddsLosesNothing(t *testing.T) {
	a, b := NewLocalNode(ir.NewIndex()), NewLocalNode(ir.NewIndex())
	c := NewReplicatedClusterOf([][]Node{{a, b}}, nil)
	const writers, perWriter = 4, 50
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.ResyncReplica(context.Background(), 0, 1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				oid := bat.OID(w*perWriter + i + 1)
				text := fmt.Sprintf("champion doc%d trophy", oid)
				if err := c.AddContext(context.Background(), oid, "u", text); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	la, _ := a.LoadChecksum(context.Background())
	lb, _ := b.LoadChecksum(context.Background())
	if la.Docs != writers*perWriter || lb.Docs != writers*perWriter {
		t.Fatalf("docs after churn: %d / %d, want %d", la.Docs, lb.Docs, writers*perWriter)
	}
	if la.Checksum != lb.Checksum {
		t.Fatalf("replicas diverged under churn:\n a %s\n b %s", la.Checksum, lb.Checksum)
	}
}

// TestRestoreInvalidatesRankingCache is the cache-poisoning satellite
// regression for the term-resolution cache on the node's ranking path:
// a restore that swaps in content with the SAME freeze epoch as the
// content it replaces, but different term oids, must not let a
// pre-restore resolution serve — the epoch advances strictly past the
// pre-restore epoch, and the ranking served afterwards reflects the
// restored content.
func TestRestoreInvalidatesRankingCache(t *testing.T) {
	mk := func(first, second string) *ir.Index {
		ix := ir.NewIndex()
		ix.Add(1, "u", first)
		ix.Add(2, "u", second)
		ix.Freeze()
		return ix
	}
	// Same epoch, swapped contents: under content A doc 1 wins
	// "melbourne" and the stem is the first term oid, under content B
	// doc 2 wins and the first term oid is "trophy" (doc 1's).
	ixA := mk("melbourne melbourne", "trophy")
	ixB := mk("trophy", "melbourne melbourne")
	if ixA.Epoch() != ixB.Epoch() {
		t.Fatalf("fixture: epochs differ (%d vs %d)", ixA.Epoch(), ixB.Epoch())
	}
	global := ir.MergeStats(ixA.StatsLocal())
	node := NewLocalNode(ixA)
	qc := &epochTermCache{}
	node.SetResolver(qc.resolve)
	plan := ir.EvalPlan{N: 5}
	res, _, err := node.SearchPlan(context.Background(), "melbourne", plan, global)
	if err != nil || len(res) == 0 || res[0].Doc != 1 {
		t.Fatalf("pre-restore ranking: %v %+v", err, res)
	}
	// The second call is served from the cached resolution.
	if res, _, _ = node.SearchPlan(context.Background(), "melbourne", plan, global); res[0].Doc != 1 || qc.hits != 1 {
		t.Fatalf("cached ranking: %+v after %d hits, want doc 1 after 1", res, qc.hits)
	}
	preEpoch := node.Index().Epoch()
	if err := node.RestoreState(context.Background(), ixB.ExportState()); err != nil {
		t.Fatal(err)
	}
	if e := node.Index().Epoch(); e <= preEpoch {
		t.Fatalf("restore did not advance the epoch: %d -> %d", preEpoch, e)
	}
	res, _, err = node.SearchPlan(context.Background(), "melbourne", plan, global)
	if err != nil || len(res) == 0 {
		t.Fatalf("post-restore ranking: %v %+v", err, res)
	}
	if res[0].Doc != 2 || qc.hits != 1 {
		t.Fatalf("a pre-restore resolution served: %+v after %d cache hits", res, qc.hits)
	}
}

// TestRestoreStateFailsClosed: an inconsistent state leaves the node
// serving its previous fragment untouched.
func TestRestoreStateFailsClosed(t *testing.T) {
	ix := ir.NewIndex()
	ix.Add(1, "u", "champion trophy")
	node := NewLocalNode(ix)
	bad := ix.ExportState()
	bad.Terms[0].Postings = []ir.Posting{{Doc: 999, TF: 1}} // unknown document
	if err := node.RestoreState(context.Background(), bad); err == nil {
		t.Fatal("inconsistent state accepted")
	}
	res, _, err := node.SearchPlan(context.Background(), "champion", ir.EvalPlan{N: 5}, ir.MergeStats(ix.StatsLocal()))
	if err != nil || len(res) != 1 || res[0].Doc != 1 {
		t.Fatalf("previous fragment lost after rejected restore: %v %+v", err, res)
	}
}
