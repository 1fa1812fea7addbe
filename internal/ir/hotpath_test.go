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

// TestFragmentsSurviveAdd: after Fragmentize, adding documents keeps
// the fragmentation valid through incremental placement — every term
// in exactly one fragment, idf descending across fragments, tuple
// counts exact — and the fragment cut-off path still answers.
func TestFragmentsSurviveAdd(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, "d1", "seles melbourne trophy")
	ix.Add(2, "d2", "winner winner serve")
	ix.Add(3, "d3", "winner rally serve")
	ix.Fragmentize(3)
	// Stream in documents: an unseen rare term, more mass on a common
	// term (moves it to a lower-idf fragment), and a repeat document.
	ix.Add(4, "d4", "quetzalcoatl winner")
	ix.Add(5, "d5", "winner serve rally melbourne")
	ix.Add(5, "d5", "winner again")
	frags := ix.Fragments()
	if frags == nil {
		t.Fatal("fragments discarded by Add")
	}
	for i := 1; i < len(frags); i++ {
		if frags[i].MaxIDF > frags[i-1].MinIDF+1e-12 {
			t.Fatalf("fragment %d idf ordering broken: %v after %v", i, frags[i].MaxIDF, frags[i-1].MinIDF)
		}
	}
	seen := make(map[bat.OID]bool)
	total, tuples := 0, 0
	for fi, f := range frags {
		for _, id := range f.Terms {
			if seen[id] {
				t.Fatalf("term %d in two fragments", id)
			}
			seen[id] = true
			total++
			idf := ix.IDFOf(termOfOID(t, ix, id))
			if idf > f.MaxIDF+1e-12 || idf < f.MinIDF-1e-12 {
				t.Fatalf("term %d idf %v outside fragment %d bounds [%v, %v]", id, idf, fi, f.MinIDF, f.MaxIDF)
			}
		}
		tuples += f.Tuples
		want := 0
		for _, id := range f.Terms {
			want += len(ix.PostingsOf(id))
		}
		if f.Tuples != want {
			t.Fatalf("fragment %d Tuples = %d, want %d", fi, f.Tuples, want)
		}
	}
	if total != ix.TermCount() {
		t.Fatalf("fragments cover %d terms, vocabulary has %d", total, ix.TermCount())
	}
	// Full-fragment evaluation still equals the exact ranking.
	ix.Freeze()
	res, q := ix.Evaluate(Request{Query: "winner melbourne quetzalcoatl", Plan: EvalPlan{N: 10, Budget: len(frags)}})
	if q.Value() != 1.0 {
		t.Fatalf("full evaluation quality = %v", q.Value())
	}
	exact := ix.TopN("winner melbourne quetzalcoatl", 10)
	if len(res) != len(exact) {
		t.Fatalf("fragment eval %v, exact %v", res, exact)
	}
	for i := range res {
		if res[i].Doc != exact[i].Doc {
			t.Fatalf("rank %d: fragment %+v, exact %+v", i, res[i], exact[i])
		}
	}
}

// termOfOID reverses the term oid to its stemmed string via the T
// relation.
func termOfOID(t *testing.T, ix *Index, id bat.OID) string {
	t.Helper()
	s, ok := ix.T.StringOfHead(id)
	if !ok {
		t.Fatalf("term oid %d not in T", id)
	}
	return s
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
