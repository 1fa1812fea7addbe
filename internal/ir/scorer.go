package ir

import (
	"cmp"
	"math"
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
	dfs     []int      // per-query-term df the term is weighed with
	frag    []int32    // per-query-term fragment index (plan evaluation)
	scan    []scanList // the admitted lists, in scan order
	surv    []int32    // slots rescore recomputes
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

// pruneSlack is the relative margin every MaxScore comparison keeps:
// bounds are padded up by it and thresholds down by it. Two sums of
// the same few positive weights in different orders differ by a few
// ulps (~1e-16 relative), so a margin of 1e-9 keeps every cut on the
// safe side of rounding while costing nothing measurable in pruning.
const pruneSlack = 1e-9

// scanList is one admitted query term as the MaxScore scan sees it.
type scanList struct {
	q        int // position in the query
	id       bat.OID
	df       int     // df the term is weighed with
	postings int     // local list length
	bound    float64 // padded upper bound on any weight of the list
	rem      float64 // bound plus the bounds of every list scanned after it
}

// termBound returns the padded upper bound on the weights of term
// id's postings under these statistics, and the list's length (0 when
// the term has no postings here). A bound that is not a non-negative
// number (shipped statistics can carry any signed df or Σdf, and then
// logWeight need not increase with tf/|d|) becomes +Inf, which the
// scan never prunes across.
func (ix *Index) termBound(id bat.OID, df, totalDF int) (bound float64, postings int) {
	t := &ix.terms[id-1]
	if postings = t.postingLen(); postings == 0 {
		return 0, 0
	}
	w := logWeight(ix.lambda, int(t.bTF), df, totalDF, int(t.bLen)) * (1 + pruneSlack)
	if !(w >= 0) {
		return math.Inf(1), postings
	}
	return w, postings
}

// scoreLists scores the admitted lists in s.scan with MaxScore and
// returns the slots to select the top n from, each carrying the score
// the exact full scan in query order would give it, bit for bit.
//
// Lists are scanned in descending bound order. Each full scan weighs
// every candidate posting; after it θ, the n-th best partial score,
// is taken, and once θ·(1−pruneSlack) exceeds the sum of the bounds
// still to come, no unseen document can reach the top n: the
// remaining lists only filter. A posting whose document's score plus
// the bounds left (its own list's included) falls short of that cut
// is skipped unweighed, and such a document stays short for good, so
// it drops out of the ranking with a stale score below θ. Every other
// document has all its weights, in scan order. Float addition is
// commutative but not associative, so when scan and query order agree
// past their first two lists the scores already have the exact bits;
// otherwise rescore recomputes the few documents near the top in
// query order. A query no prefix of whose lists can hold n documents
// and outweigh the rest can never prune; it is scanned in query order.
func (ix *Index) scoreLists(s *scorer, totalDF int, candidates map[bat.OID]bool, n int) []int32 {
	scan := s.scan
	slices.SortStableFunc(scan, func(a, b scanList) int { return cmp.Compare(b.bound, a.bound) })
	rem := 0.0
	for j := len(scan) - 1; j >= 0; j-- {
		rem += scan[j].bound
		scan[j].rem = rem
	}
	prune := prunable(scan, n)
	if !prune {
		slices.SortFunc(scan, byQuery)
	}
	cut, reach := 0.0, 0.0 // reach: the most any document can have scored so far
	scored, total := 0, 0
	for j := range scan {
		l := &scan[j]
		s.memo.open(ix.lambda, l.df, totalDF)
		scored += ix.scanList(s, l.id, candidates, cut, l.rem)
		total += l.postings
		if cut > 0 || !prune || j == len(scan)-1 {
			continue
		}
		rest := scan[j+1].rem
		if reach += l.bound; reach <= rest || len(s.touched) < n {
			continue // θ cannot exceed rest yet: skip the selection pass
		}
		if h := s.heapTop(ix.docIDs, s.touched, n); len(h) == n {
			if c := h[0].Score * (1 - pruneSlack); c > rest {
				cut = c
			}
		}
	}
	ix.postingsScored.Add(int64(scored))
	ix.postingsSkipped.Add(int64(total - scored))
	if queryOrdered(scan) {
		return s.touched
	}
	return ix.rescore(s, totalDF, n)
}

// prunable reports whether some full scan, in descending bound order,
// could end with n documents scored and more bound behind them than
// ahead: the only point at which scoreLists can start to prune.
func prunable(scan []scanList, n int) bool {
	reach, postings := 0.0, 0
	for j := 0; n > 0 && j < len(scan)-1; j++ {
		reach += scan[j].bound
		postings += scan[j].postings
		if postings >= n && reach > scan[j+1].rem {
			return true
		}
	}
	return false
}

// byQuery orders scan lists by their position in the query.
func byQuery(a, b scanList) int { return a.q - b.q }

// queryOrdered reports whether every document's scan-order sum has the
// bits of its query-order sum: scan order equals query order, except
// that the first two lists may come swapped, since (0+a)+b == (0+b)+a.
func queryOrdered(scan []scanList) bool {
	for p := 2; p < len(scan); p++ {
		if scan[p].q < scan[p-1].q || (p == 2 && scan[p].q < scan[0].q) {
			return false
		}
	}
	return true
}

// scanList weighs one list into the score column and returns how many
// postings it weighed. Before the cut-off (cut == 0) it weighs every
// candidate posting and records first touches: every weight is
// strictly positive, so a zero score cell means an untouched slot.
// After it, a posting is weighed only if its document's score plus
// rem, the bounds of this and every later list, can still reach cut.
// An untouched document never can, so the filter leaves the touched
// list and the candidate set alone. Terms the memory budget holds
// compressed are walked in place, in the same doc order. Weights come
// through the scorer's memo, which the caller opened for this term.
func (ix *Index) scanList(s *scorer, id bat.OID, candidates map[bat.OID]bool, cut, rem float64) (weighed int) {
	pl := &ix.terms[id-1]
	if pl.cold != nil {
		return ix.scanCompressed(s, *pl.cold, candidates, cut, rem)
	}
	docIDs, docLens, scores := ix.docIDs, ix.docLens, s.scores
	if cut > 0 {
		for i, slot := range pl.slots {
			if scores[slot]+rem < cut {
				continue
			}
			e, hit := s.memo.lookup(pl.tfs[i], docLens[slot])
			if !hit {
				s.memo.fill(e, pl.tfs[i], docLens[slot])
			}
			scores[slot] += e.w
			weighed++
		}
		return weighed
	}
	for i, slot := range pl.slots {
		if candidates != nil && !candidates[docIDs[slot]] {
			continue
		}
		e, hit := s.memo.lookup(pl.tfs[i], docLens[slot])
		if !hit {
			s.memo.fill(e, pl.tfs[i], docLens[slot])
		}
		if scores[slot] == 0 {
			s.touched = append(s.touched, slot)
		}
		scores[slot] += e.w
		weighed++
	}
	return weighed
}

// scanCompressed is scanList's access path over a compressed posting
// list: decode-as-you-go via Walk, no materialised slice. The list was
// compressed from the int32 tf column, so int32(tf) is exact.
func (ix *Index) scanCompressed(s *scorer, cp CompressedPostings, candidates map[bat.OID]bool, cut, rem float64) (weighed int) {
	cp.Walk(func(doc bat.OID, tf int) bool {
		slot, ok := ix.docSlot[doc]
		if !ok {
			return true
		}
		if cut > 0 {
			if s.scores[slot]+rem < cut {
				return true
			}
		} else if candidates != nil && !candidates[doc] {
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
		weighed++
		return true
	})
	return weighed
}

// rescore gives the documents that can reach the top n their
// query-order scores and returns their slots. Its survivors are the
// documents within pruneSlack of the n-th best scan-order score:
// query order moves a sum by a few ulps at most, so they include every
// document of the exact top n. It loops over terms, then survivors, so
// the memo serves each term's lookups. A survivor's posting is found
// by a galloping search on a doc-sorted list, by one Walk merged with
// the survivors on a compressed one, and by one linear pass probing
// the survivors on a list an out-of-order Add left unsorted (an exact
// plan may run on an index still pending its Freeze).
func (ix *Index) rescore(s *scorer, totalDF, n int) []int32 {
	docIDs, docLens := ix.docIDs, ix.docLens
	thr := 0.0
	if h := s.heapTop(docIDs, s.touched, n); len(h) == n {
		thr = h[0].Score * (1 - pruneSlack)
	}
	surv := s.surv[:0]
	for _, slot := range s.touched {
		if sc := s.scores[slot]; sc > 0 && sc >= thr {
			surv = append(surv, slot)
			s.scores[slot] = 0 // rescored below; putScorer still resets it
		}
	}
	s.surv = surv
	slices.SortFunc(surv, func(a, b int32) int { return cmp.Compare(docIDs[a], docIDs[b]) })
	slices.SortFunc(s.scan, byQuery)
	scores := s.scores
	for _, l := range s.scan {
		s.memo.open(ix.lambda, l.df, totalDF)
		weigh := func(slot, tf int32) {
			e, hit := s.memo.lookup(tf, docLens[slot])
			if !hit {
				s.memo.fill(e, tf, docLens[slot])
			}
			scores[slot] += e.w
		}
		pl := &ix.terms[l.id-1]
		switch {
		case pl.cold != nil:
			j := 0
			pl.cold.Walk(func(doc bat.OID, tf int) bool {
				for j < len(surv) && docIDs[surv[j]] < doc {
					j++
				}
				if j == len(surv) {
					return false
				}
				if docIDs[surv[j]] == doc {
					weigh(surv[j], int32(tf))
				}
				return true
			})
		case pl.sorted:
			i := 0
			for _, slot := range surv {
				if i = seekDoc(pl.slots, docIDs, i, docIDs[slot]); i == len(pl.slots) {
					break
				}
				if pl.slots[i] == slot {
					weigh(slot, pl.tfs[i])
				}
			}
		default:
			for i, slot := range pl.slots {
				if j := seekDoc(surv, docIDs, 0, docIDs[slot]); j < len(surv) && surv[j] == slot {
					weigh(slot, pl.tfs[i])
				}
			}
		}
	}
	return surv
}

// seekDoc returns the first position at or after from of a doc-sorted
// slot column whose document is not below doc (len(slots) if none):
// a galloping search, so probing k ascending documents in turn costs
// O(k·log(len/k)).
func seekDoc(slots []int32, docIDs []bat.OID, from int, doc bat.OID) int {
	lo, hi := from, from
	for step := 1; hi < len(slots) && docIDs[slots[hi]] < doc; step *= 2 {
		lo, hi = hi+1, hi+step
	}
	hi = min(hi, len(slots))
	for lo < hi { // the answer lies in [lo, hi]
		mid := int(uint(lo+hi) >> 1)
		if docIDs[slots[mid]] < doc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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

// heapTop leaves in s.heap the n best results among the slots with a
// positive score, as a bounded min-heap (the worst kept result at the
// root), and returns it: O(m log n) for m slots, allocation-free.
func (s *scorer) heapTop(docIDs []bat.OID, slots []int32, n int) []Result {
	h := s.heap[:0]
	for _, slot := range slots {
		sc := s.scores[slot]
		if sc <= 0 || len(h) == n && sc < h[0].Score {
			continue // decided on the score alone, without loading the doc oid
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
	return h
}

// selectTopN picks the n best results from the slots scoreLists
// returned, by heapTop, instead of materialising and fully sorting the
// whole candidate ranking; the only allocation is the result slice.
func (s *scorer) selectTopN(docIDs []bat.OID, slots []int32, n int) []Result {
	if n <= 0 {
		return nil
	}
	h := s.heapTop(docIDs, slots, n)
	out := make([]Result, len(h))
	copy(out, h)
	slices.SortFunc(out, rankOrder)
	return out
}
