package ir

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"dlsearch/internal/bat"
)

// TestHeapSelectionEqualsFullSort: the bounded-heap selection must
// return exactly the prefix of the full (score desc, doc asc) sort
// for every n, including n larger than the candidate set.
func TestHeapSelectionEqualsFullSort(t *testing.T) {
	words := []string{"tennis", "open", "winner", "net", "serve", "ace",
		"match", "court", "player", "champion", "rally", "set"}
	rng := rand.New(rand.NewSource(42))
	ix := NewIndex()
	for d := 1; d <= 200; d++ {
		var text string
		for w := 0; w < 5+rng.Intn(25); w++ {
			text += words[rng.Intn(len(words))] + " "
		}
		ix.Add(bat.OID(d), fmt.Sprintf("d%d", d), text)
	}
	for _, q := range []string{"winner", "champion serve", "tennis open net ace"} {
		full := ix.TopN(q, ix.DocCount())
		for _, n := range []int{0, 1, 3, 10, len(full), len(full) + 50} {
			got := ix.TopN(q, n)
			want := full
			if len(want) > n {
				want = want[:n]
			}
			if len(got) != len(want) {
				t.Fatalf("q=%q n=%d: %d results, want %d", q, n, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("q=%q n=%d rank %d: %+v, want %+v", q, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestIncrementalIDF: idf values stay correct as documents stream in
// and the IDF relation is updated in place rather than rebuilt — the
// relation holds exactly one row per term at all times.
func TestIncrementalIDF(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, "d1", "winner trophy")
	if got := ix.IDFOf(Stem("winner")); got != 1.0 {
		t.Fatalf("idf(winner) = %v, want 1", got)
	}
	ix.Add(2, "d2", "winner serve")
	ix.Add(3, "d3", "winner rally")
	if got := ix.IDFOf(Stem("winner")); got != 1.0/3.0 {
		t.Fatalf("idf(winner) = %v, want 1/3", got)
	}
	if got := ix.IDFOf(Stem("trophy")); got != 1.0 {
		t.Fatalf("idf(trophy) = %v, want 1", got)
	}
	if ix.IDF.Len() != ix.TermCount() {
		t.Fatalf("IDF has %d rows for %d terms", ix.IDF.Len(), ix.TermCount())
	}
}

// TestMultiAddSameDoc: re-adding text for an existing document folds
// its term frequencies into the existing postings — through the sorted
// (binary search) and the unsorted (reverse scan) lookup alike — keeps
// the first url, and appends postings for terms the document did not
// have. The independent reference is the same documents added once
// with their texts concatenated: rankings (documents and scores) and
// the content checksum must be identical, and so must the optimized
// and naive plans.
func TestMultiAddSameDoc(t *testing.T) {
	multi := NewIndex()
	multi.Add(1, "d1", "winner rally")
	multi.Add(2, "d2", "winner winner winner serve rally")
	multi.Add(1, "d1-again", "winner serve") // fold into sorted winner, append to serve
	multi.Add(1, "d1-again", "serve ace")    // fold into unsorted serve, new term ace
	multi.Add(3, "d3", "serve rally")
	ref := NewIndex()
	ref.Add(1, "d1", "winner rally winner serve serve ace")
	ref.Add(2, "d2", "winner winner winner serve rally")
	ref.Add(3, "d3", "serve rally")
	if multi.DocCount() != 3 {
		t.Fatalf("DocCount = %d, want 3", multi.DocCount())
	}
	for _, q := range []string{"winner serve rally", "ace serve", "winner"} {
		want := ref.TopN(q, 10)
		sameResults(t, q+" (TopN)", multi.TopN(q, 10), want)
		sameResults(t, q+" (TopNNaive)", multi.TopNNaive(q, 10), want)
		sameResults(t, q+" (reference TopNNaive)", ref.TopNNaive(q, 10), want)
	}
	if got, want := multi.Checksum(), ref.Checksum(); got != want {
		t.Fatalf("checksum %s, want %s", got, want)
	}
}

// TestIndexHeapPerPosting bounds the heap an index retains per posting,
// so a second copy of the postings cannot creep back in beside the
// columnar lists. The columns cost 8 bytes a posting; the bound leaves
// room for the per-term and per-document state of a realistic
// vocabulary.
func TestIndexHeapPerPosting(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(rng, 1.1, 1, 4999)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix := NewIndex()
	var text strings.Builder
	for d := 1; d <= 2000; d++ {
		text.Reset()
		for w := 0; w < 150; w++ {
			fmt.Fprintf(&text, "w%d ", zipf.Uint64())
		}
		ix.Add(bat.OID(d), fmt.Sprintf("http://lib.example/doc/%d", d), text.String())
	}
	ix.Freeze()
	runtime.GC()
	runtime.ReadMemStats(&after)
	postings := ix.totalDF
	perPosting := float64(after.HeapAlloc-before.HeapAlloc) / float64(postings)
	runtime.KeepAlive(ix)
	t.Logf("%d postings, %d terms: %.1f B of heap per posting", postings, ix.TermCount(), perPosting)
	if perPosting > 40 {
		t.Fatalf("index retains %.1f B per posting, want at most 40", perPosting)
	}
}

// TestUnsortedAddsGetSortedAtFreeze: documents added out of oid order
// must end up with posting lists sorted by doc oid after a freeze.
func TestUnsortedAddsGetSortedAtFreeze(t *testing.T) {
	ix := NewIndex()
	for _, d := range []bat.OID{5, 2, 9, 1, 7} {
		ix.Add(d, "u", "winner serve")
	}
	ix.Freeze()
	id, _ := ix.TermOID(Stem("winner"))
	ps := ix.PostingsOf(id)
	for i := 1; i < len(ps); i++ {
		if ps[i-1].Doc >= ps[i].Doc {
			t.Fatalf("postings not sorted by doc oid: %v", ps)
		}
	}
	// Ranking across the unsorted adds is still the full correct set.
	if got := ix.TopN("winner", 10); len(got) != 5 {
		t.Fatalf("results = %v", got)
	}
}

// BenchmarkTopNAllocs guards the per-query allocation budget of the
// rebuilt hot path: the reusable scorer must keep steady-state
// allocations to the tokenizer output and the result slice.
func BenchmarkTopNAllocs(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	words := []string{"tennis", "open", "winner", "net", "serve", "ace",
		"match", "court", "player", "champion", "rally", "set"}
	ix := NewIndex()
	for d := 1; d <= 2000; d++ {
		var text string
		for w := 0; w < 30; w++ {
			text += words[rng.Intn(len(words))] + " "
		}
		ix.Add(bat.OID(d), "u", text)
	}
	ix.Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.TopN("champion winner serve", 10)
	}
}
