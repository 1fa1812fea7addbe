package ir

import (
	"slices"

	"dlsearch/internal/bat"
)

// scorer holds the reusable per-query buffers of the columnar hot
// path: a doc-slot-indexed score column, the list of slots touched by
// the current query (so only those are reset afterwards, not the
// whole column), the resolved query terms and the bounded top-N heap.
// Scorers live in the index's sync.Pool, which makes concurrent
// queries over a frozen index race-free without locking.
type scorer struct {
	scores  []float64
	touched []int32
	qstems  []string // resolved query: stems and, parallel, term oids
	qterms  []bat.OID
	heap    []Result
	dfs     []int   // per-query-term df the term is weighed with
	frag    []int32 // per-query-term fragment index (plan evaluation)
}

// getScorer fetches a scorer with an all-zero score column covering
// every document slot.
func (ix *Index) getScorer() *scorer {
	s, _ := ix.scorers.Get().(*scorer)
	if s == nil {
		s = &scorer{}
	}
	if len(s.scores) < len(ix.docIDs) {
		s.scores = make([]float64, len(ix.docIDs)+len(ix.docIDs)/4+16)
	}
	return s
}

// putScorer zeroes the touched score entries and returns the buffers
// to the pool.
func (ix *Index) putScorer(s *scorer) {
	for _, slot := range s.touched {
		s.scores[slot] = 0
	}
	s.touched = s.touched[:0]
	ix.scorers.Put(s)
}

// scoreTerm accumulates one query term's contributions into the score
// column: a single sequential scan over the term's slot/tf columns.
// Every contribution is strictly positive, so a zero score cell means
// "first touch" and the slot is recorded for reset and selection.
// Terms the memory budget holds compressed are walked in place — the
// same (doc, tf) sequence in the same doc order, so scores come out
// identical, just slower per posting.
func (ix *Index) scoreTerm(s *scorer, id bat.OID, df, totalDF int, candidates map[bat.OID]bool) {
	if df == 0 {
		return
	}
	pl := ix.plists[id]
	if pl == nil {
		if cp, ok := ix.cold[id]; ok {
			ix.scoreCompressed(s, cp, df, totalDF, candidates)
		}
		return
	}
	lambda := ix.lambda
	docIDs, docLens := ix.docIDs, ix.docLens
	for i, slot := range pl.slots {
		if candidates != nil && !candidates[docIDs[slot]] {
			continue
		}
		w := logWeight(lambda, int(pl.tfs[i]), df, totalDF, int(docLens[slot]))
		if s.scores[slot] == 0 {
			s.touched = append(s.touched, slot)
		}
		s.scores[slot] += w
	}
}

// scoreCompressed is scoreTerm's access path over a compressed posting
// list: decode-as-you-go via Walk, no materialised slice.
func (ix *Index) scoreCompressed(s *scorer, cp CompressedPostings, df, totalDF int, candidates map[bat.OID]bool) {
	lambda := ix.lambda
	cp.Walk(func(doc bat.OID, tf int) bool {
		if candidates != nil && !candidates[doc] {
			return true
		}
		slot, ok := ix.docSlot[doc]
		if !ok {
			return true
		}
		w := logWeight(lambda, tf, df, totalDF, int(ix.docLens[slot]))
		if s.scores[slot] == 0 {
			s.touched = append(s.touched, slot)
		}
		s.scores[slot] += w
		return true
	})
}

// worse reports whether a ranks strictly below b in the total result
// order (score desc, doc asc). Doc oids are unique, so the order is
// strict and bounded selection returns exactly the same top n as a
// full sort.
func worse(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Doc > b.Doc
}

// rankOrder is the total result order as a slices.SortFunc comparison,
// better results first. Unlike sort.Slice it sorts without allocating.
func rankOrder(a, b Result) int {
	switch {
	case worse(b, a):
		return -1
	case worse(a, b):
		return 1
	}
	return 0
}

// selectTopN picks the n best results from the touched slots with a
// bounded min-heap (the worst kept result at the root) instead of
// materialising and fully sorting the whole candidate ranking:
// O(m log n) for m candidates, and the only allocation is the result
// slice itself.
func (s *scorer) selectTopN(docIDs []bat.OID, n int) []Result {
	if n <= 0 {
		return nil
	}
	h := s.heap[:0]
	for _, slot := range s.touched {
		sc := s.scores[slot]
		if sc <= 0 {
			continue
		}
		r := Result{Doc: docIDs[slot], Score: sc}
		if len(h) < n {
			h = append(h, r)
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if !worse(h[i], h[p]) {
					break
				}
				h[i], h[p] = h[p], h[i]
				i = p
			}
		} else if worse(h[0], r) {
			h[0] = r
			for i := 0; ; {
				c := 2*i + 1
				if c >= len(h) {
					break
				}
				if c+1 < len(h) && worse(h[c+1], h[c]) {
					c++
				}
				if !worse(h[c], h[i]) {
					break
				}
				h[i], h[c] = h[c], h[i]
				i = c
			}
		}
	}
	s.heap = h
	out := make([]Result, len(h))
	copy(out, h)
	slices.SortFunc(out, rankOrder)
	return out
}
