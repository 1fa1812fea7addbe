package ir

import (
	"sort"
	"testing"

	"dlsearch/internal/bat"
)

// TopNNaive computes the same answer with the unoptimized plan: each
// query term's postings are materialised, every document's score is
// accumulated in a map, and the full ranking is sorted and cut to n.
// The reference the tests compare Evaluate against, and experiment
// E16's baseline; nothing outside the tests needs it.
func (ix *Index) TopNNaive(query string, n int) []Result {
	ix.Freeze()
	var stems [8]string // scratch; the naive plan needs only the oids
	_, qts := ix.resolveInto(stems[:0], nil, query)
	scores := make(map[bat.OID]float64)
	for _, id := range qts {
		for _, p := range ix.PostingsOf(id) {
			scores[p.Doc] += ix.weight(p.TF, ix.postingLen(id), ix.docLenOf(p.Doc))
		}
	}
	return topNFromScores(scores, n)
}

// topNFromScores selects the n best (score desc, doc asc) results
// from a score map: the naive plan's selection step.
func topNFromScores(scores map[bat.OID]float64, n int) []Result {
	res := make([]Result, 0, len(scores))
	for d, s := range scores {
		if s > 0 {
			res = append(res, Result{Doc: d, Score: s})
		}
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].Score != res[j].Score {
			return res[i].Score > res[j].Score
		}
		return res[i].Doc < res[j].Doc
	})
	if n < 0 {
		n = 0
	}
	if len(res) > n {
		res = res[:n]
	}
	return res
}

// weight is logWeight for one posting, zero for an absent term or
// document.
func (ix *Index) weight(tf, df, docLen int) float64 {
	if tf == 0 || df == 0 || docLen == 0 {
		return 0
	}
	return logWeight(ix.lambda, tf, df, ix.totalDF, docLen)
}

// docLenOf returns |d| for a document oid (0 if unknown).
func (ix *Index) docLenOf(doc bat.OID) int {
	if slot, ok := ix.docSlot[doc]; ok {
		return int(ix.docLens[slot])
	}
	return 0
}

// BenchmarkE16TopN is experiment E16: the optimized plan scans the
// posting columns into a score slice and selects the top n with a
// bounded heap; the naive plan scores every matching document in a map
// and sorts the full ranking.
func BenchmarkE16TopN(b *testing.B) {
	ix := planCorpus(5000, 6)
	const query = "seles trophy"
	b.Run("optimized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.TopN(query, 10)
		}
	})
	b.Run("naive-full-ranking", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.TopNNaive(query, 10)
		}
	})
}
