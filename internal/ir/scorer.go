package ir

import (
	"slices"

	"dlsearch/internal/bat"
)

// scorer holds the reusable per-query buffers of the columnar hot
// path: a doc-slot-indexed score column, the list of slots touched by
// the current query (so only those are reset afterwards, not the
// whole column), the resolved query terms, the bounded top-N heap and
// the per-term weight memo. Scorers live in the index's sync.Pool,
// which makes concurrent queries over a frozen index race-free without
// locking.
type scorer struct {
	scores  []float64
	touched []int32
	qstems  []string // resolved query: stems and, parallel, term oids
	qterms  []bat.OID
	heap    []Result
	dfs     []int   // per-query-term df the term is weighed with
	frag    []int32 // per-query-term fragment index (plan evaluation)
	memo    weightMemo
}

// weightMemo caches logWeight for the term being scored. Within one
// term lambda, df and totalDF are fixed, so the weight depends only on
// (tf, |d|): far fewer distinct values than the list has postings. The
// table is direct-mapped on (tf, |d|). An entry counts only while it
// carries the current generation, which open bumps once per term, so
// nothing is cleared between terms.
type weightMemo struct {
	lambda      float64
	df, totalDF int
	gen         uint32
	slots       [memoSlots]memoEntry
}

// memoBits sizes the weight memo: 4 096 entries of 24 bytes (96 KiB).
// A term over constant-length documents needs a few dozen entries; a
// common term over varied lengths meets thousands of distinct pairs,
// and a smaller table would evict most of them.
const (
	memoBits  = 12
	memoSlots = 1 << memoBits
)

// memoEntry is one memoised weight: logWeight of the (tf, |d|) packed
// in key under the statistics of the term opened as generation gen.
type memoEntry struct {
	key uint64
	gen uint32
	w   float64
}

// open starts a memo generation for a term weighed with these
// statistics, which invalidates every entry at once. Only when the
// stamp wraps are the entries actually cleared.
func (m *weightMemo) open(lambda float64, df, totalDF int) {
	m.lambda, m.df, m.totalDF = lambda, df, totalDF
	m.gen++
	if m.gen == 0 {
		clear(m.slots[:])
		m.gen = 1
	}
}

// lookup returns the entry (tf, docLen) maps to, and whether it holds
// that pair's weight for the open term. On a miss the caller fills it.
// The hit path is small enough to inline into the scan loops.
func (m *weightMemo) lookup(tf, docLen int32) (e *memoEntry, hit bool) {
	key := memoKey(tf, docLen)
	e = &m.slots[key*0x9e3779b97f4a7c15>>(64-memoBits)]
	return e, e.key == key && e.gen == m.gen
}

// fill stores the weight of (tf, docLen) under the open term's
// statistics in e: logWeight with exactly these arguments, so a
// memoised weight has the same float64 bits as the unmemoised formula.
func (m *weightMemo) fill(e *memoEntry, tf, docLen int32) {
	*e = memoEntry{key: memoKey(tf, docLen), gen: m.gen, w: logWeight(m.lambda, int(tf), m.df, m.totalDF, int(docLen))}
}

// memoKey packs (tf, docLen). Both are int32 columns, so the key
// identifies the pair exactly.
func memoKey(tf, docLen int32) uint64 {
	return uint64(uint32(tf))<<32 | uint64(uint32(docLen))
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
// identical, just slower per posting. Both paths read weights through
// the scorer's memo, opened afresh for this term.
func (ix *Index) scoreTerm(s *scorer, id bat.OID, df, totalDF int, candidates map[bat.OID]bool) {
	if df == 0 {
		return
	}
	s.memo.open(ix.lambda, df, totalDF)
	pl := ix.plists[id]
	if pl == nil {
		if cp, ok := ix.cold[id]; ok {
			ix.scoreCompressed(s, cp, candidates)
		}
		return
	}
	docIDs, docLens := ix.docIDs, ix.docLens
	for i, slot := range pl.slots {
		if candidates != nil && !candidates[docIDs[slot]] {
			continue
		}
		e, hit := s.memo.lookup(pl.tfs[i], docLens[slot])
		if !hit {
			s.memo.fill(e, pl.tfs[i], docLens[slot])
		}
		if s.scores[slot] == 0 {
			s.touched = append(s.touched, slot)
		}
		s.scores[slot] += e.w
	}
}

// scoreCompressed is scoreTerm's access path over a compressed posting
// list: decode-as-you-go via Walk, no materialised slice. The list was
// compressed from the int32 tf column, so int32(tf) is exact.
func (ix *Index) scoreCompressed(s *scorer, cp CompressedPostings, candidates map[bat.OID]bool) {
	cp.Walk(func(doc bat.OID, tf int) bool {
		if candidates != nil && !candidates[doc] {
			return true
		}
		slot, ok := ix.docSlot[doc]
		if !ok {
			return true
		}
		e, hit := s.memo.lookup(int32(tf), ix.docLens[slot])
		if !hit {
			s.memo.fill(e, int32(tf), ix.docLens[slot])
		}
		if s.scores[slot] == 0 {
			s.touched = append(s.touched, slot)
		}
		s.scores[slot] += e.w
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
