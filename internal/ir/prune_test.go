package ir

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"dlsearch/internal/bat"
)

// fuzzVocab is FuzzEvaluate's vocabulary: six words, so documents
// share (tf, |d|) pairs and scores tie often.
var fuzzVocab = []string{"seles", "graf", "court", "volley", "trophy", "melbourne"}

// fuzzInput hands out the fuzz bytes one at a time, zeros once they
// run out.
type fuzzInput []byte

func (in *fuzzInput) next() int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b)
}

// FuzzEvaluate holds MaxScore to the scan that weighs every posting:
// on a tie-heavy index built from the fuzz bytes — at most six words,
// documents of 1–40 words, re-added documents whose postings fold,
// optionally a memory budget that holds some lists compressed, and a
// document added out of oid order and left unfrozen so one list is
// unsorted — a random query under local or shifted global statistics,
// with or without a candidate set, ranks under the exact plan and
// under every budget of 8 exactly as oracleRanking does, bit for bit,
// for n from 1 to 20.
func FuzzEvaluate(f *testing.F) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, 64+rng.Intn(960))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		// The header: vocabulary, switches, ranking size and query.
		vocab := fuzzVocab[:1+in.next()%len(fuzzVocab)]
		flags, n := in.next(), 1+in.next()%20
		words := make([]string, 1+in.next()%6)
		for i := range words {
			words[i] = vocab[in.next()%len(vocab)]
		}
		query := strings.Join(words, " ")
		text := func() string {
			words := make([]string, 1+in.next()%40)
			for i := range words {
				words[i] = vocab[in.next()%len(vocab)]
			}
			return strings.Join(words, " ")
		}
		// The documents, until the bytes run out. Even oids, so a late
		// odd one lands out of order.
		ix := NewIndex()
		docs := 0
		for d := 1; d == 1 || len(in) > 0; d++ {
			oid := bat.OID(2 * d)
			if d > 1 && in.next()%4 == 0 {
				oid = bat.OID(2 * (1 + in.next()%(d-1))) // a re-add: its postings fold
			} else {
				docs = d
			}
			ix.Add(oid, "u", text())
		}
		ix.Freeze()
		frags := 8
		if flags&1 != 0 {
			frags = 4
		}
		if flags&2 != 0 {
			full, _, _ := ix.MemoryFootprint()
			ix.SetMemoryBudget(max(1, full*(1+int(flags>>5)%4)/5))
		}
		if flags&4 != 0 {
			ix.Add(bat.OID(2*(int(flags>>3)%docs)+1), "u", strings.Repeat(query+" ", 1+n%3)) // left unfrozen
		}
		var cands map[bat.OID]bool
		if flags&8 != 0 {
			cands = map[bat.OID]bool{}
			for d := 1; d <= 2*docs+1; d++ {
				if (d*int(flags+1))%7 != 0 {
					cands[bat.OID(d)] = true
				}
			}
		}
		stems, oids := ix.ResolveQuery(query)
		dfs, totalDF := make([]int, len(oids)), ix.totalDF
		for i, id := range oids {
			dfs[i] = ix.postingLen(id)
		}
		var stats *Stats
		if flags&16 != 0 { // global statistics: other nodes hold more of each term
			stats = &Stats{DF: map[string]int{}, Docs: 2 * docs}
			for i := range oids {
				dfs[i] += (i + n) % 5
				stats.DF[stems[i]] = dfs[i]
				totalDF += (i + n) % 5
			}
			stats.TotalDF = totalDF + n
			totalDF = stats.TotalDF
		}
		table := ix.cutFor(frags).table
		for k := 0; k <= frags; k++ {
			got, _ := ix.Evaluate(Request{Query: query, Plan: EvalPlan{N: n, Frags: frags, Budget: k}, Stats: stats, Candidates: cands})
			want := oracleRanking(ix, oids, dfs, totalDF, func(i int) bool {
				return k == 0 || table.frag(dfs[i]) < k
			}, cands, n)
			sameResults(t, fmt.Sprintf("%q n=%d budget %d flags %#x", query, n, k, flags), got, want)
		}
	})
}

// TestEvaluateConcurrentPruning: goroutines sharing a frozen index,
// each with pooled scorers, rank exactly what a lone caller ranks, and
// PostingCounts adds up to every admitted posting of every evaluation.
func TestEvaluateConcurrentPruning(t *testing.T) {
	ix := planCorpus(2000, 11)
	ix.Freeze()
	full, _, _ := ix.MemoryFootprint()
	ix.SetMemoryBudget(full / 2) // the commonest lists are walked compressed
	queries := []string{"seles match ball", "champion court trophy volley", "ace game set serve rally", "winner smash"}
	want := make([][]Result, len(queries))
	admitted := 0
	for i, q := range queries {
		want[i], _ = ix.Evaluate(Request{Query: q, Plan: EvalPlan{N: 10}})
		_, oids := ix.ResolveQuery(q)
		for _, id := range oids {
			admitted += ix.postingLen(id)
		}
	}
	scored0, skipped0 := ix.PostingCounts()
	const workers, rounds = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, q := range queries {
					got, _ := ix.Evaluate(Request{Query: q, Plan: EvalPlan{N: 10}})
					if !slices.Equal(got, want[i]) {
						t.Errorf("%q: concurrent ranking %v, alone %v", q, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	scored, skipped := ix.PostingCounts()
	if got := (scored - scored0) + (skipped - skipped0); got != int64(workers*rounds*admitted) {
		t.Fatalf("scored+skipped moved by %d, want %d admitted postings", got, workers*rounds*admitted)
	}
	if skipped == skipped0 {
		t.Fatal("no posting skipped: the fixture does not prune")
	}
}
