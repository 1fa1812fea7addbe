package dist

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"dlsearch/internal/bat"
	"dlsearch/internal/ir"
)

// corpus builds n pseudo-natural documents over a skewed vocabulary,
// the same shape the E11 experiment uses.
func corpus(n int, seed int64) []string {
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

func sameRanking(t *testing.T, ctx string, got, want []ir.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d\ngot  %v\nwant %v", ctx, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].Doc != want[i].Doc || got[i].Score != want[i].Score {
			t.Fatalf("%s: rank %d = %+v, want %+v", ctx, i, got[i], want[i])
		}
	}
}

// TestMergedEqualsSingle is the core transparency guarantee: for any
// node count, the merged cluster ranking is identical — documents AND
// scores — to the ranking of one index over the whole collection.
func TestMergedEqualsSingle(t *testing.T) {
	docs := corpus(600, 7)
	single := ir.NewIndex()
	for i, d := range docs {
		single.Add(bat.OID(i+1), "u", d)
	}
	queries := []string{
		"champion winner serve",
		"seles",
		"melbourne trophy volley match",
		"match play game set court ball",
		"quetzalcoatl", // unknown term
	}
	for _, k := range []int{1, 2, 4, 8} {
		c := NewCluster(k, nil)
		for i, d := range docs {
			c.Add(bat.OID(i+1), "u", d)
		}
		for _, q := range queries {
			for _, n := range []int{1, 10, 50, len(docs)} {
				want := single.TopN(q, n)
				sameRanking(t, fmt.Sprintf("k=%d q=%q n=%d", k, q, n), c.TopN(q, n), want)
			}
		}
	}
}

// TestDeterministicTieBreaks: identical documents score identically;
// the merged order must break ties by ascending doc oid, the same
// total order a single index uses, and repeated queries must agree.
func TestDeterministicTieBreaks(t *testing.T) {
	c := NewCluster(4, nil)
	for i := 1; i <= 12; i++ {
		c.Add(bat.OID(i), "u", "champion winner rally")
	}
	got := c.TopN("winner", 12)
	if len(got) != 12 {
		t.Fatalf("results = %d, want 12", len(got))
	}
	for i := range got {
		if got[i].Doc != bat.OID(i+1) {
			t.Fatalf("tie order broken at rank %d: %v", i, got)
		}
		if got[i].Score != got[0].Score {
			t.Fatalf("identical docs scored differently: %v", got)
		}
	}
	for rep := 0; rep < 5; rep++ {
		sameRanking(t, "repeat", c.TopN("winner", 12), got)
	}
}

// TestNodeLoads: the default partitioning is deterministic
// round-robin, so loads differ by at most one and sum to the
// collection size.
func TestNodeLoads(t *testing.T) {
	const n = 103
	c := NewCluster(4, nil)
	for i := 1; i <= n; i++ {
		c.Add(bat.OID(i), "u", "serve rally")
	}
	loads := c.NodeLoads()
	if len(loads) != 4 {
		t.Fatalf("loads = %v", loads)
	}
	sum, min, max := 0, loads[0], loads[0]
	for _, l := range loads {
		sum += l
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if sum != n {
		t.Fatalf("loads %v sum to %d, want %d", loads, sum, n)
	}
	if max-min > 1 {
		t.Fatalf("loads %v unbalanced", loads)
	}
	if c.DocCount() != n || c.Size() != 4 {
		t.Fatalf("DocCount=%d Size=%d", c.DocCount(), c.Size())
	}
}

// TestCustomPartition: a caller-supplied partition function routes
// every document where it says.
func TestCustomPartition(t *testing.T) {
	c := NewCluster(3, &Options{Partition: func(doc bat.OID, k int) int { return 1 }})
	for i := 1; i <= 5; i++ {
		c.Add(bat.OID(i), "u", "winner")
	}
	if loads := c.NodeLoads(); loads[0] != 0 || loads[1] != 5 || loads[2] != 0 {
		t.Fatalf("loads = %v, want [0 5 0]", loads)
	}
	if got := c.TopN("winner", 10); len(got) != 5 {
		t.Fatalf("results = %v", got)
	}
}

// TestAddAfterQuery: global statistics must refresh when documents
// arrive between queries, keeping the merged ranking identical to a
// single index at every point in the stream.
func TestAddAfterQuery(t *testing.T) {
	docs := corpus(120, 3)
	single := ir.NewIndex()
	c := NewCluster(4, nil)
	for i, d := range docs {
		single.Add(bat.OID(i+1), "u", d)
		c.Add(bat.OID(i+1), "u", d)
		if (i+1)%40 == 0 {
			want := single.TopN("champion serve", 10)
			sameRanking(t, fmt.Sprintf("after %d docs", i+1), c.TopN("champion serve", 10), want)
		}
	}
}

// TestParallelQueriesRace exercises the concurrent read path under
// the race detector: many goroutines query one shared cluster at
// once.
func TestParallelQueriesRace(t *testing.T) {
	docs := corpus(300, 11)
	c := NewCluster(4, nil)
	for i, d := range docs {
		c.Add(bat.OID(i+1), "u", d)
	}
	want := c.TopN("champion winner serve", 10) // freeze + warm stats
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got := c.TopN("champion winner serve", 10)
				if len(got) != len(want) || got[0] != want[0] {
					t.Errorf("g=%d i=%d: got %v, want %v", g, i, got, want)
					return
				}
				_ = c.NodeLoads()
				_ = c.GlobalStats()
			}
		}(g)
	}
	wg.Wait()
}

// TestGlobalStatsMatchSingle: the aggregated statistics equal the
// statistics of one index over the whole collection.
func TestGlobalStatsMatchSingle(t *testing.T) {
	docs := corpus(200, 9)
	single := ir.NewIndex()
	c := NewCluster(4, nil)
	for i, d := range docs {
		single.Add(bat.OID(i+1), "u", d)
		c.Add(bat.OID(i+1), "u", d)
	}
	want := single.StatsLocal()
	got := c.GlobalStats()
	if got.Docs != want.Docs || got.TotalDF != want.TotalDF {
		t.Fatalf("stats = {Docs:%d TotalDF:%d}, want {Docs:%d TotalDF:%d}",
			got.Docs, got.TotalDF, want.Docs, want.TotalDF)
	}
	for term, df := range want.DF {
		if got.DF[term] != df {
			t.Fatalf("df(%s) = %d, want %d", term, got.DF[term], df)
		}
	}
}
