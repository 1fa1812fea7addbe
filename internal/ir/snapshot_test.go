package ir

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"dlsearch/internal/bat"
)

var snapQueries = []string{
	"champion winner serve",
	"seles",
	"melbourne trophy volley match",
	"match play game set court ball",
	"quetzalcoatl", // unknown term
}

// roundTrip exports ix and imports the state back, failing the test on
// any import error.
func roundTrip(t *testing.T, ix *Index) *Index {
	t.Helper()
	st := ix.ExportState()
	got, err := ImportState(st)
	if err != nil {
		t.Fatalf("ImportState: %v", err)
	}
	return got
}

// TestSnapshotRoundTripExact: save→load yields byte-identical TopN
// rankings — documents AND scores — plus identical statistics, epoch
// and vocabulary.
func TestSnapshotRoundTripExact(t *testing.T) {
	ix := planCorpus(300, 19)
	got := roundTrip(t, ix)
	if got.DocCount() != ix.DocCount() || got.TermCount() != ix.TermCount() {
		t.Fatalf("size: %d/%d docs, %d/%d terms",
			got.DocCount(), ix.DocCount(), got.TermCount(), ix.TermCount())
	}
	if got.MaxDoc() != ix.MaxDoc() {
		t.Fatalf("MaxDoc %d != %d", got.MaxDoc(), ix.MaxDoc())
	}
	if got.Epoch() != ix.Epoch() {
		t.Fatalf("epoch %d != %d", got.Epoch(), ix.Epoch())
	}
	if got.Dirty() {
		t.Fatal("imported index reports pending derived state")
	}
	for _, q := range snapQueries {
		for _, n := range []int{1, 10, 50} {
			sameResults(t, q, got.TopN(q, n), ix.TopN(q, n))
		}
	}
	// The naive plan materialises the rebuilt posting columns through
	// PostingsOf; it must agree too.
	sameResults(t, "naive", got.TopNNaive("champion winner", 10), ix.TopNNaive("champion winner", 10))
	// Global-statistics scoring (the distributed read path).
	global := ix.StatsLocal()
	withStats := Request{Query: "champion winner serve", Plan: EvalPlan{N: 10}, Stats: &global}
	gotRes, _ := got.Evaluate(withStats)
	wantRes, _ := ix.Evaluate(withStats)
	sameResults(t, "with stats", gotRes, wantRes)
}

// TestSnapshotRoundTripPlans: budgeted evaluation after restore is
// byte-identical — the restored df histogram cuts the same table, so
// the round-trip of the documents carries the cut-off with it.
func TestSnapshotRoundTripPlans(t *testing.T) {
	ix := planCorpus(300, 23)
	ix.Add(9001, "d9001", "champion serve volley extra melbourne")
	ix.Add(9002, "d9002", "seles hingis capriati trophy")
	ix.Freeze()
	got := roundTrip(t, ix)
	for _, q := range snapQueries {
		for _, plan := range []EvalPlan{
			{N: 10, Frags: 6, Budget: 1},
			{N: 10, Frags: 6, Budget: 3},
			{N: 10, Frags: 6, Budget: 6},
			{N: 10, Frags: 6, Budget: 2, MinQuality: 0.9},
		} {
			wantRes, wantEst := evalText(ix, q, plan)
			gotRes, gotEst := evalText(got, q, plan)
			sameResults(t, q, gotRes, wantRes)
			if gotEst != wantEst {
				t.Fatalf("%q plan %+v: estimate %+v, want %+v", q, plan, gotEst, wantEst)
			}
		}
	}
}

// TestSnapshotRoundTripMemoryBudget: a memory-budgeted index (cold
// lists compressed) round-trips to identical rankings, and the restored
// index re-applies the same budget.
func TestSnapshotRoundTripMemoryBudget(t *testing.T) {
	ix := planCorpus(300, 29)
	ix.SetMemoryBudget(2048)
	plainBefore, _, coldBefore := ix.MemoryFootprint()
	if coldBefore == 0 {
		t.Fatal("test corpus too small: no term was compressed")
	}
	got := roundTrip(t, ix)
	plainAfter, _, coldAfter := got.MemoryFootprint()
	if coldAfter != coldBefore || plainAfter != plainBefore {
		t.Fatalf("footprint: plain %d cold %d, want plain %d cold %d",
			plainAfter, coldAfter, plainBefore, coldBefore)
	}
	for _, q := range snapQueries {
		sameResults(t, q, got.TopN(q, 10), ix.TopN(q, 10))
	}
}

// TestSnapshotThenAdd: an imported index keeps indexing — documents
// added after restore rank exactly as they would on an index that
// never restarted, and freshly allocated oids never collide with
// restored ones.
func TestSnapshotThenAdd(t *testing.T) {
	live := planCorpus(200, 31)
	restored := roundTrip(t, live)
	extra := []string{
		"champion volley melbourne smash",
		"seles winner rally serve serve",
	}
	for i, text := range extra {
		oid := bat.OID(5000 + i)
		live.Add(oid, "u", text)
		restored.Add(oid, "u", text)
	}
	for _, q := range snapQueries {
		sameResults(t, q, restored.TopN(q, 20), live.TopN(q, 20))
	}
}

// TestImportStateFailsClosed: inconsistent states yield an error, not
// a partial index.
func TestImportStateFailsClosed(t *testing.T) {
	base := func() *IndexState {
		return planCorpus(20, 7).ExportState()
	}
	cases := []struct {
		name   string
		mutate func(*IndexState)
	}{
		{"unknown posting doc", func(st *IndexState) {
			st.Terms[0].Postings[0].Doc = 999999
		}},
		{"non-positive tf", func(st *IndexState) {
			st.Terms[0].Postings[0].TF = 0
		}},
		{"duplicate doc oid", func(st *IndexState) {
			st.Docs[1].OID = st.Docs[0].OID
		}},
		{"duplicate term oid", func(st *IndexState) {
			st.Terms[1].OID = st.Terms[0].OID
		}},
		{"duplicate stem", func(st *IndexState) {
			st.Terms[1].Stem = st.Terms[0].Stem
		}},
		{"sequence below term oids", func(st *IndexState) {
			// A forgotten/zeroed NextOID would let a post-restore Add
			// reissue a live term oid, silently merging two terms.
			st.NextOID = 0
		}},
		{"tf beyond int32", func(st *IndexState) {
			// Truncated to int32 it would restore a different index than
			// the state's checksum names.
			st.Terms[0].Postings[0].TF = 1 << 31
		}},
		{"negative document length", func(st *IndexState) {
			st.Docs[0].Len = -1
		}},
		{"lambda not below 1", func(st *IndexState) {
			st.Lambda = 1
		}},
		{"lambda +Inf", func(st *IndexState) {
			st.Lambda = math.Inf(1)
		}},
		{"lambda NaN", func(st *IndexState) {
			st.Lambda = math.NaN()
		}},
		{"unsorted postings", func(st *IndexState) {
			// Swap the first two postings of the longest list; the 20-doc
			// corpus guarantees common terms with many postings.
			widest := 0
			for i := range st.Terms {
				if len(st.Terms[i].Postings) > len(st.Terms[widest].Postings) {
					widest = i
				}
			}
			p := st.Terms[widest].Postings
			p[0], p[1] = p[1], p[0]
		}},
	}
	for _, tc := range cases {
		st := base()
		tc.mutate(st)
		if _, err := ImportState(st); err == nil {
			t.Fatalf("%s: import succeeded on inconsistent state", tc.name)
		}
	}
}

// TestImportSparseTermOIDs: a state whose term oids are sparse, the
// largest 2^40, and listed out of order imports with the dense oids of
// its ascending-oid order. Nothing is allocated in proportion to the
// oids, and the import ranks, checksums and re-exports exactly like
// the dense state it renumbers.
func TestImportSparseTermOIDs(t *testing.T) {
	dense := planCorpus(100, 37).ExportState()
	sparse := *dense
	sparse.Terms = slices.Clone(dense.Terms)
	for i := range sparse.Terms {
		sparse.Terms[i].OID = bat.OID(3*i + 2)
	}
	sparse.Terms[len(sparse.Terms)-1].OID = 1 << 40
	sparse.NextOID = 1<<40 + 1
	rand.New(rand.NewSource(5)).Shuffle(len(sparse.Terms), func(i, j int) {
		sparse.Terms[i], sparse.Terms[j] = sparse.Terms[j], sparse.Terms[i]
	})

	importAlloc := func(st *IndexState) (*Index, uint64) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix, err := ImportState(st)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("ImportState: %v", err)
		}
		return ix, after.TotalAlloc - before.TotalAlloc
	}
	want, denseBytes := importAlloc(dense)
	got, sparseBytes := importAlloc(&sparse)
	if sparseBytes > denseBytes+1<<20 {
		t.Fatalf("the sparse import allocated %d bytes, the dense one %d", sparseBytes, denseBytes)
	}
	if got.Checksum() != want.Checksum() {
		t.Fatal("the sparse import checksums unlike the dense one")
	}
	for _, q := range snapQueries {
		sameResults(t, q, got.TopN(q, 10), want.TopN(q, 10))
		plan := EvalPlan{N: 10, Frags: 6, Budget: 2}
		gotRes, gotEst := evalText(got, q, plan)
		wantRes, wantEst := evalText(want, q, plan)
		sameResults(t, q+" budgeted", gotRes, wantRes)
		if gotEst != wantEst {
			t.Fatalf("%q: estimate %+v, want %+v", q, gotEst, wantEst)
		}
	}
	if !reflect.DeepEqual(got.ExportState(), dense) {
		t.Fatal("the sparse import re-exports unlike the dense state")
	}
}
