package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dlsearch/internal/bat"
)

// variedCorpus returns a frozen index of n documents of 5–400 words.
// Each opens with 1–40 occurrences of "spread", so that one common term
// meets thousands of distinct (tf, |d|) pairs; Zipf words over a
// 2 000-word vocabulary fill the rest.
func variedCorpus(seed int64, n int) *Index {
	z := newZipfWords(2000)
	rng := rand.New(rand.NewSource(seed))
	ix := NewIndex()
	for d := 1; d <= n; d++ {
		words := make([]string, 5+rng.Intn(396))
		tf := 1 + rng.Intn(min(40, len(words)))
		for i := range words {
			if i < tf {
				words[i] = "spread"
			} else {
				words[i] = z.draw(rng)
			}
		}
		ix.Add(bat.OID(d), fmt.Sprintf("d%d", d), strings.Join(words, " "))
	}
	ix.Freeze()
	return ix
}

// distinctWeightKeys counts the distinct (tf, |d|) pairs in a term's
// posting list: the number of different weights the term can take.
func distinctWeightKeys(ix *Index, id bat.OID) int {
	keys := map[[2]int]bool{}
	for _, p := range ix.PostingsOf(id) {
		keys[[2]int{p.TF, ix.docLenOf(p.Doc)}] = true
	}
	return len(keys)
}

// oracleRanking is the naive plan over the admitted query terms under
// the given statistics: postings materialised, logWeight called on
// every one, scores accumulated per document in query-term order, the
// full ranking sorted and cut to n.
func oracleRanking(ix *Index, oids []bat.OID, dfs []int, totalDF int, admit func(i int) bool, cands map[bat.OID]bool, n int) []Result {
	scores := map[bat.OID]float64{}
	for i, id := range oids {
		if dfs[i] == 0 || !admit(i) {
			continue
		}
		for _, p := range ix.PostingsOf(id) {
			if cands == nil || cands[p.Doc] {
				scores[p.Doc] += logWeight(ix.lambda, p.TF, dfs[i], totalDF, ix.docLenOf(p.Doc))
			}
		}
	}
	return topNFromScores(scores, n)
}

// TestMemoVariedLengthsMatchesNaive: over documents of varied length,
// where one common term carries more distinct (tf, |d|) pairs than the
// weight memo has slots (so lookups collide and evict), every
// evaluation — plain and compressed cold lists, local and merged
// global statistics, with and without candidates, exact and at every
// budget of 8 — ranks byte-identically to the naive plan, which calls
// logWeight on every posting.
func TestMemoVariedLengthsMatchesNaive(t *testing.T) {
	const frags, docs, n = 8, 6000, 20
	ix := variedCorpus(41, docs)
	ix.Freeze()
	global := MergeStats(ix.StatsLocal(), variedCorpus(42, 300).StatsLocal())
	spread, _ := ix.TermOID(Stem("spread"))
	if k := distinctWeightKeys(ix, spread); k <= memoSlots {
		t.Fatalf("common term has %d distinct (tf, |d|) pairs, want more than the memo's %d slots", k, memoSlots)
	}

	rng := rand.New(rand.NewSource(43))
	z := newZipfWords(2000)
	queries := []string{"spread", "w00000 spread w00001", "w00002 nope spread"}
	for len(queries) < 10 {
		words := make([]string, 1+rng.Intn(4))
		for i := range words {
			words[i] = z.draw(rng)
		}
		queries = append(queries, strings.Join(words, " "))
	}
	candidates := map[bat.OID]bool{}
	for d := bat.OID(2); d <= docs; d += 3 {
		candidates[d] = true
	}
	full, _, _ := ix.MemoryFootprint()
	for _, budget := range []int{0, full / 2} {
		ix.SetMemoryBudget(budget)
		if cold := ix.termAt(spread).cold != nil; cold != (budget > 0) {
			t.Fatalf("memory budget %d: common term cold=%v", budget, cold)
		}
		for _, q := range queries {
			stems, oids := ix.ResolveQuery(q)
			sameResults(t, q+" naive", ix.TopN(q, n), ix.TopNNaive(q, n))
			for _, stats := range []*Stats{nil, &global} {
				dfs, totalDF := make([]int, len(oids)), ix.totalDF
				for i, id := range oids {
					dfs[i] = ix.postingLen(id)
					if stats != nil {
						dfs[i], totalDF = stats.DF[stems[i]], stats.TotalDF
					}
				}
				for _, cands := range []map[bat.OID]bool{nil, candidates} {
					cell := fmt.Sprintf("%q cold=%v global=%v restricted=%v", q, budget > 0, stats != nil, cands != nil)
					req := Request{Query: q, Stats: stats, Candidates: cands}
					table := ix.cutFor(frags).table
					for k := 0; k <= frags; k++ {
						req.Plan = EvalPlan{N: n, Frags: frags, Budget: k}
						got, _ := ix.Evaluate(req)
						want := oracleRanking(ix, oids, dfs, totalDF, func(i int) bool {
							return k == 0 || table.frag(dfs[i]) < k
						}, cands, n)
						sameResults(t, fmt.Sprintf("%s budget %d", cell, k), got, want)
					}
				}
			}
		}
	}
}

// logWeightGoldenDigest is the SHA-256 of logWeight's float64 bits
// over TestLogWeightGolden's grid, as amd64's math.Log computes them.
const logWeightGoldenDigest = "714ce56e3a97b14044a9f6ec567169074c310d7380fc5b366f5de164067c9b9a"

// TestLogWeightGolden pins logWeight's exact output over the scoring
// domain. Nodes and the coordinator's single-index reference must
// compute the same float64 for the same posting, or distributed
// rankings drift from single-index ones by an ulp. A build whose
// math.Log rounds differently (another architecture, another
// toolchain) fails here rather than in a byte-identity check in
// production.
func TestLogWeightGolden(t *testing.T) {
	const lambda = 0.15
	dfs := []int{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610,
		987, 1597, 2584, 4181, 6765, 10946, 17711, 28657, 46368}
	h := sha256.New()
	var buf [8]byte
	points := 0
	for _, totalDF := range []int{100000, 799000, 1600000} {
		for _, df := range dfs {
			for tf := 1; tf <= 40; tf++ {
				for docLen := 1; docLen <= 600; docLen++ {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(logWeight(lambda, tf, df, totalDF, docLen)))
					h.Write(buf[:])
					points++
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != logWeightGoldenDigest {
		t.Fatalf("logWeight over %d grid points hashes to %s, want %s: this build's math.Log rounds differently, so its scores would differ from other nodes' in the last bit", points, got, logWeightGoldenDigest)
	}
}

// BenchmarkEvaluateZipf times exact top-10 evaluation of 2–4-word Zipf
// queries on a 10 000-document index of a 20 000-word Zipf vocabulary,
// in two document-length shapes: lib20k's constant 80 words, and
// log-normal lengths around the same median (5–600 words), which give
// the weight memo many more distinct (tf, |d|) pairs per term. It
// reports the postings a query admits and, from PostingCounts, the
// share of them MaxScore weighed.
func BenchmarkEvaluateZipf(b *testing.B) {
	const docs, vocab = 10000, 20000
	for _, shape := range docShapes {
		ix := NewIndex()
		for d, text := range zipfTexts(1, docs, vocab, shape.docLen) {
			ix.Add(bat.OID(d+1), fmt.Sprintf("d%d", d+1), text)
		}
		ix.Freeze()
		rng, z := rand.New(rand.NewSource(2)), newZipfWords(vocab)
		queries := make([]string, 512)
		postings := make([]int, len(queries)) // postings the query admits
		for i := range queries {
			words := make([]string, 2+rng.Intn(3))
			for j := range words {
				words[j] = z.draw(rng)
			}
			queries[i] = strings.Join(words, " ")
			_, oids := ix.ResolveQuery(queries[i])
			for _, id := range oids {
				postings[i] += ix.postingLen(id)
			}
		}
		b.Run(shape.name, func(b *testing.B) {
			admitted := 0
			scored0, _ := ix.PostingCounts()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := i % len(queries)
				ix.Evaluate(Request{Query: queries[q], Plan: EvalPlan{N: 10}})
				admitted += postings[q]
			}
			scored, _ := ix.PostingCounts()
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/query")
			b.ReportMetric(float64(admitted)/float64(b.N), "postings/query")
			b.ReportMetric(float64(scored-scored0)/float64(b.N), "scored/query")
		})
	}
}
