package dist_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"dlsearch/internal/bat"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/obs"
	"dlsearch/internal/persist"
	"dlsearch/internal/server"
)

// restartableNode stands in for one durable dlserve node process: a
// stable URL whose NodeServer can be thrown away and booted again from
// the same data dir (snapshot + op-log replay), like a kill and restart.
type restartableNode struct {
	t   *testing.T
	dir string
	url string
	h   atomic.Pointer[http.Handler]
	log *persist.OpLog
}

func newRestartableNode(t *testing.T) *restartableNode {
	n := &restartableNode{t: t, dir: t.TempDir()}
	n.boot()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*n.h.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { n.log.Close() })
	n.url = srv.URL
	return n
}

// boot mirrors cmd/dlserve's node start: restore the snapshot if there
// is one, replay the op log over it, serve.
func (n *restartableNode) boot() {
	n.t.Helper()
	ix := ir.NewIndex()
	switch st, err := persist.LoadFile(persist.SnapshotPath(n.dir)); {
	case err == nil:
		if ix, err = ir.ImportState(st); err != nil {
			n.t.Fatal(err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		n.t.Fatal(err)
	}
	l, err := persist.OpenOpLog(n.dir)
	if err != nil {
		n.t.Fatal(err)
	}
	if err := l.Replay(l.Base(), func(op persist.Op) error {
		if !ix.HasDoc(op.Doc) {
			ix.Add(op.Doc, op.URL, op.Text)
		}
		return nil
	}); err != nil {
		n.t.Fatal(err)
	}
	n.log = l
	h := server.NewNodeServer(ix, &server.NodeConfig{DataDir: n.dir, OpLog: l}).Handler()
	n.h.Store(&h)
}

func (n *restartableNode) restart() {
	n.t.Helper()
	if err := n.log.Close(); err != nil {
		n.t.Fatal(err)
	}
	n.boot()
}

// pullCounters are the statistics-pull counters the RemoteNodes of a
// test share.
type pullCounters struct{ full, delta, bytes *obs.Counter }

func newPullCounters() (*pullCounters, *dist.RemoteMetrics) {
	p := &pullCounters{full: new(obs.Counter), delta: new(obs.Counter), bytes: new(obs.Counter)}
	return p, &dist.RemoteMetrics{StatsPullsFull: p.full, StatsPullsDelta: p.delta, StatsPullBytes: p.bytes}
}

// clusterOver builds a fresh cluster — fresh RemoteNodes, so no cached
// statistics — over the nodes, r replicas per group.
func clusterOver(t *testing.T, nodes []*restartableNode, r int, rm *dist.RemoteMetrics) *dist.Cluster {
	t.Helper()
	members := make([]dist.Node, len(nodes))
	for i, n := range nodes {
		rn := dist.NewRemoteNode(n.url, nil)
		rn.SetMetrics(rm)
		members[i] = rn
	}
	c, err := dist.NewReplicatedCluster(members, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStatsDeltaProperty is the write side's contract as a seeded
// property: whatever happens between two statistics pulls — batches,
// idempotent replays of whole batches, a replica's fragment restored
// from its peer, a node restarted on its own op log (a new incarnation
// whose epochs restart low), a second coordinator appearing, a wiped
// replica repaired by anti-entropy — the statistics a cluster maintains
// from deltas equal a fresh full pull, and a full-budget search equals
// the single index's TopN. One cluster is checked after every step, so
// its deltas span one step; a second is checked only now and then, so
// its deltas span many.
func TestStatsDeltaProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { statsDeltaProperty(t, seed) })
	}
}

func statsDeltaProperty(t *testing.T, seed int64) {
	const groups, replicas, steps = 2, 2, 60
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	nodes := make([]*restartableNode, groups*replicas)
	for i := range nodes {
		nodes[i] = newRestartableNode(t)
	}
	pulls, rm := newPullCounters()
	a := clusterOver(t, nodes, replicas, rm)
	b := clusterOver(t, nodes, replicas, rm)
	ref := ir.NewIndex()

	// Documents draw from a vocabulary that opens up as the run goes on,
	// so late batches bring both new stems and new df for old ones.
	word := func() string { return fmt.Sprintf("w%03d", rng.Intn(20+ref.DocCount())) }
	text := func() string {
		ws := make([]string, 4+rng.Intn(8))
		for i := range ws {
			ws[i] = word()
		}
		return strings.Join(ws, " ")
	}
	var batches [][]dist.Doc
	nextOID := bat.OID(1)

	check := func(c *dist.Cluster, label string) {
		t.Helper()
		// Restarts, restores and the other cluster's writes all happened
		// behind this cluster's back.
		c.InvalidateStats()
		got, err := c.GlobalStatsContext(ctx)
		if err != nil {
			t.Fatalf("%s: global stats: %v", label, err)
		}
		fresh, err := clusterOver(t, nodes, replicas, nil).GlobalStatsContext(ctx)
		if err != nil {
			t.Fatalf("%s: fresh full pull: %v", label, err)
		}
		if !reflect.DeepEqual(got, fresh) {
			t.Fatalf("%s: delta-maintained statistics differ from a fresh full pull\n got %d stems Σdf=%d docs=%d\nwant %d stems Σdf=%d docs=%d",
				label, len(got.DF), got.TotalDF, got.Docs, len(fresh.DF), fresh.TotalDF, fresh.Docs)
		}
		ref.Freeze()
		if want := ref.StatsLocal(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: cluster statistics differ from the single index's", label)
		}
		for i := 0; i < 3; i++ {
			q := word() + " " + word()
			want := ref.TopN(q, 10)
			for _, plan := range []ir.EvalPlan{{N: 10}, {N: 10, Frags: 4, Budget: 4}} {
				sr, err := c.SearchPlan(ctx, q, plan)
				if err != nil {
					t.Fatalf("%s: search %q: %v", label, q, err)
				}
				if !sr.Complete() || !reflect.DeepEqual(sr.Results, want) && (len(sr.Results) > 0 || len(want) > 0) {
					t.Fatalf("%s: search %q plan %+v = %+v (complete %v), want %+v", label, q, plan, sr.Results, sr.Complete(), want)
				}
			}
		}
	}

	for step := 0; step < steps; step++ {
		var what string
		switch op := rng.Intn(10); {
		case op < 4 || len(batches) == 0:
			batch := make([]dist.Doc, 1+rng.Intn(6))
			for i := range batch {
				batch[i] = dist.Doc{OID: nextOID, URL: "u", Text: text()}
				ref.Add(nextOID, "u", batch[i].Text)
				nextOID++
			}
			batches = append(batches, batch)
			what = fmt.Sprintf("add %d docs", len(batch))
			if err := a.AddBatchContext(ctx, batch); err != nil {
				t.Fatalf("step %d %s: %v", step, what, err)
			}
		case op < 6:
			what = "replay a whole batch"
			if err := a.AddBatchContext(ctx, batches[rng.Intn(len(batches))]); err != nil {
				t.Fatalf("step %d %s: %v", step, what, err)
			}
		case op < 7:
			// A replica's fragment is replaced by its peer's: the same
			// content under a new incarnation.
			g, r := rng.Intn(groups), rng.Intn(replicas)
			what = fmt.Sprintf("restore %d/%d from its peer", g, r)
			st, err := a.ReplicaAt(g, 1-r).SnapshotState(ctx)
			if err == nil {
				err = a.ReplicaAt(g, r).RestoreState(ctx, st)
			}
			if err != nil {
				t.Fatalf("step %d %s: %v", step, what, err)
			}
		case op < 8:
			i := rng.Intn(len(nodes))
			what = fmt.Sprintf("restart node %d", i)
			nodes[i].restart()
		case op < 9:
			what = "second coordinator"
			b = clusterOver(t, nodes, replicas, rm)
		default:
			// A replica loses everything; anti-entropy finds and heals it.
			g, r := rng.Intn(groups), rng.Intn(replicas)
			what = fmt.Sprintf("wipe %d/%d and repair", g, r)
			if err := a.ReplicaAt(g, r).RestoreState(ctx, ir.NewIndex().ExportState()); err != nil {
				t.Fatalf("step %d %s: %v", step, what, err)
			}
			if rep := a.CheckReplicas(ctx, true); ref.DocCount() > 0 && rep.Resynced == 0 && rep.Detected > 0 {
				t.Fatalf("step %d %s: detected %d, resynced none", step, what, rep.Detected)
			}
		}
		check(a, fmt.Sprintf("step %d (%s) cluster A", step, what))
		if rng.Intn(4) == 0 {
			check(b, fmt.Sprintf("step %d (%s) cluster B", step, what))
		}
	}
	check(b, "final cluster B")
	if pulls.full.Value() == 0 || pulls.delta.Value() == 0 || pulls.bytes.Value() == 0 {
		t.Fatalf("the run must exercise both kinds of pull: full=%d delta=%d bytes=%d",
			pulls.full.Value(), pulls.delta.Value(), pulls.bytes.Value())
	}
	t.Logf("pulls: %d full, %d delta, %d bytes", pulls.full.Value(), pulls.delta.Value(), pulls.bytes.Value())
}

// TestStatsPullTrafficFollowsTheChange: once a coordinator holds a
// node's statistics, a pull after a small ingest is a delta whose body
// is a sliver of the vocabulary's, and a pull after no ingest at all
// carries no stems.
func TestStatsPullTrafficFollowsTheChange(t *testing.T) {
	ctx := context.Background()
	node := newRestartableNode(t)
	pulls, rm := newPullCounters()
	rn := dist.NewRemoteNode(node.url, nil)
	rn.SetMetrics(rm)
	if err := rn.AddBatch(ctx, vocabularyDocs(5000)); err != nil {
		t.Fatal(err)
	}
	first, err := rn.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fullBytes := pulls.bytes.Value()
	if pulls.full.Value() != 1 || pulls.delta.Value() != 0 || len(first.DF) < 5000 {
		t.Fatalf("first pull: full=%d delta=%d stems=%d", pulls.full.Value(), pulls.delta.Value(), len(first.DF))
	}
	if err := rn.AddBatch(ctx, []dist.Doc{{OID: 9001, Text: "t00001 t00002 brandnew"}}); err != nil {
		t.Fatal(err)
	}
	second, err := rn.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	deltaBytes := pulls.bytes.Value() - fullBytes
	if pulls.delta.Value() != 1 || deltaBytes*100 > fullBytes {
		t.Fatalf("pull after a 3-term ingest: delta pulls=%d, %d bytes against %d for the full block", pulls.delta.Value(), deltaBytes, fullBytes)
	}
	if second.DF["t00001"] != first.DF["t00001"]+1 || second.DF["brandnew"] != 1 || len(second.DF) != len(first.DF)+1 {
		t.Fatalf("delta not laid over the cached copy: t00001 %d->%d, brandnew %d, stems %d->%d",
			first.DF["t00001"], second.DF["t00001"], second.DF["brandnew"], len(first.DF), len(second.DF))
	}
	if _, had := first.DF["brandnew"]; had {
		t.Fatal("the delta was written into statistics handed out earlier")
	}
	third, err := rn.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pulls.delta.Value() != 2 || !reflect.DeepEqual(third, second) {
		t.Fatalf("idle pull: delta pulls=%d, statistics changed: %v", pulls.delta.Value(), !reflect.DeepEqual(third, second))
	}
}

// vocabularyDocs returns documents that between them hold n distinct
// terms t00000 … (50 per document).
func vocabularyDocs(n int) []dist.Doc {
	var docs []dist.Doc
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "t%05d ", i)
		if (i+1)%50 == 0 || i == n-1 {
			docs = append(docs, dist.Doc{OID: bat.OID(len(docs) + 1), Text: sb.String()})
			sb.Reset()
		}
	}
	return docs
}

// TestSearchRequestStaysSmall is the read side's regression guard: over
// a vocabulary of 5 000 terms, a search request costs under 1 KB per
// node RPC on every transport and under every plan, exact ones included
// — the query's share of the statistics, not the vocabulary.
func TestSearchRequestStaysSmall(t *testing.T) {
	ctx := context.Background()
	for _, codec := range []struct {
		name  string
		codec dist.Codec
	}{{"binary", dist.CodecBinary}, {"wire", dist.CodecWire}} {
		t.Run(codec.name, func(t *testing.T) {
			const k = 2
			out := new(obs.Counter)
			members := make([]dist.Node, k)
			for i := range members {
				srv := httptest.NewServer(server.NewNodeHandler(ir.NewIndex(), nil))
				t.Cleanup(srv.Close)
				rn := dist.NewRemoteNode(srv.URL, srv.Client())
				rn.SetCodec(codec.codec)
				rn.SetMetrics(&dist.RemoteMetrics{BytesOut: out})
				members[i] = rn
			}
			c := dist.NewClusterOf(members, nil)
			if err := c.AddBatchContext(ctx, vocabularyDocs(5000)); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Search(ctx, "t00001 t00049", 10); err != nil { // pays the statistics pull
				t.Fatal(err)
			}
			const searches = 20
			before := out.Value()
			for i := 0; i < searches; i++ {
				q := fmt.Sprintf("t%05d t%05d t%05d t04999", i, 100+i, 2000+i)
				if sr, err := c.SearchPlan(ctx, q, ir.EvalPlan{N: 10, Budget: i % 4}); err != nil || !sr.Complete() || len(sr.Results) == 0 {
					t.Fatalf("search %q: %v %+v", q, err, sr)
				}
			}
			if per := (out.Value() - before) / (searches * k); per == 0 || per >= 1024 {
				t.Fatalf("%d request bytes per node RPC, want under 1 KB", per)
			}
		})
	}
}

// TestNodeStatsSinceNeverFails: whatever a caller puts in since, the
// node answers 200 — with the full block unless the version is one its
// current incarnation issued — and a request without since gets the
// same full block, whose df/total_df/docs still read as the bare
// statistics an older coordinator expects.
func TestNodeStatsSinceNeverFails(t *testing.T) {
	ix := ir.NewIndex()
	ix.Add(1, "u", "melbourne champion")
	ix.Add(2, "u", "champion")
	srv := httptest.NewServer(server.NewNodeHandler(ix, nil))
	t.Cleanup(srv.Close)
	get := func(query string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + dist.PathNodeStats + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", query, resp.StatusCode, body)
		}
		return string(body)
	}
	const bare = `{"df":{"champion":2,"melbourn":1},"total_df":3,"docs":2`
	full := get("")
	if !strings.HasPrefix(full, bare+`,"version":"`) {
		t.Fatalf("GET without since:\n got %s\nwant the full block %s,\"version\":…}", full, bare)
	}
	var old dist.StatsJSON
	if err := json.Unmarshal([]byte(full), &old); err != nil || old.TotalDF != 3 || old.Docs != 2 || old.DF["champion"] != 2 {
		t.Fatalf("the full block does not read as bare statistics: %+v %v", old, err)
	}
	now := dist.ParseStatsVersion(full[len(bare+`,"version":"`):strings.LastIndex(full, `"`)])
	if now.Incarnation == 0 || now.Epoch == 0 {
		t.Fatalf("no version in %s", full)
	}
	future := dist.StatsVersion{Incarnation: now.Incarnation, Epoch: now.Epoch + 100}
	foreign := dist.StatsVersion{Incarnation: now.Incarnation + 1, Epoch: now.Epoch}
	for _, since := range []string{"", "garbage", "1.2.3", "zz.1", ".", "-1.-1", future.String(), foreign.String()} {
		if got := get("?since=" + since); got != full {
			t.Fatalf("since=%q must get the full block:\n got %s\nwant %s", since, got, full)
		}
	}
	delta := `{"df":{},"total_df":3,"docs":2,"version":"` + now.String() + `","delta":true}` + "\n"
	if got := get("?since=" + now.String()); got != delta {
		t.Fatalf("since=<current version>:\n got %s\nwant %s", got, delta)
	}
}

// TestSearchTraceStatsDetail: the stats span of a traced search says
// how many partitions it had to refresh, how many stems it shipped —
// the query's own that the cut-off admits — and how many partitions it
// asked: those holding a shipped stem.
func TestSearchTraceStatsDetail(t *testing.T) {
	c := dist.NewCluster(2, nil)
	c.Add(1, "u", "melbourne champion")
	c.Add(2, "u", "champion serve")
	for _, tc := range []struct {
		budget int
		want   string
	}{
		{1, "groups_refreshed=2 stems_shipped=1 groups_asked=1"}, // both partitions ingested; "champion" (df 2) is cut, "zanzibar" has no df to ship, only partition 1 holds "serve"
		{2, "groups_refreshed=0 stems_shipped=2 groups_asked=2"},
		{0, "groups_refreshed=0 stems_shipped=2 groups_asked=2"}, // an exact plan: the query's own, not melbourn
	} {
		want := tc.want
		tr := obs.NewTrace("")
		plan := ir.EvalPlan{N: 5, Budget: tc.budget}
		if _, err := c.SearchPlan(obs.NewContext(context.Background(), tr), "champion serve zanzibar", plan); err != nil {
			t.Fatal(err)
		}
		var got string
		for _, sp := range tr.Spans() {
			if sp.Name == "stats" {
				got = sp.Detail
			}
		}
		if got != want {
			t.Fatalf("stats span detail = %q, want %q", got, want)
		}
	}
}
