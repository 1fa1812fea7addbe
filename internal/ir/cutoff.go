package ir

import (
	"iter"
	"maps"
	"slices"
	"sort"
	"sync/atomic"
)

// The a-priori cut-off of [BHC+01]: the vocabulary is fragmented on
// descending idf, and a budgeted plan evaluates only the leading
// fragments. A term's fragment is a pure function of its df under one
// df-threshold table, and the table is a pure function of the df
// histogram. So a cluster that cuts under the collection's df decides
// exactly what one index over the whole collection decides, however
// the documents are spread over nodes, in whatever order they arrived.

// DFHistogram is a vocabulary's df histogram: its distinct document
// frequencies (the df classes) ascending, which is idf descending, and
// the postings each class holds (df × the class's terms).
type DFHistogram struct {
	dfs      []int
	postings []int
	total    int
}

// histogramOf returns the df histogram of a vocabulary's dfs, one per
// term. Terms without postings hold no class.
func histogramOf(dfs iter.Seq[int]) DFHistogram {
	terms := map[int]int{} // df → terms of that df
	for df := range dfs {
		if df > 0 {
			terms[df]++
		}
	}
	h := DFHistogram{dfs: make([]int, 0, len(terms))}
	for df := range terms {
		h.dfs = append(h.dfs, df)
	}
	slices.Sort(h.dfs)
	h.postings = make([]int, len(h.dfs))
	for c, df := range h.dfs {
		h.postings[c] = df * terms[df]
		h.total += h.postings[c]
	}
	return h
}

// Histogram returns the df histogram of the statistics' vocabulary.
func (st Stats) Histogram() DFHistogram { return histogramOf(maps.Values(st.DF)) }

// Classes returns the number of df classes.
func (h DFHistogram) Classes() int { return len(h.dfs) }

// Table cuts the histogram into k fragments of whole df classes, each
// holding about a k-th of the postings: fragment 0 the rarest terms,
// the last the most frequent. k is clamped to [1, Classes()], and every
// fragment holds at least one class. An empty histogram yields the
// empty table.
func (h DFHistogram) Table(k int) CutTable {
	k = min(max(k, 1), len(h.dfs))
	if k == 0 {
		return nil
	}
	per := max((h.total+k-1)/k, 1)
	t := make(CutTable, 0, k)
	cur := 0
	for c, df := range h.dfs[:len(h.dfs)-1] {
		cur += h.postings[c]
		// Close the fragment once it holds its share, or when each
		// fragment still to fill needs one of the classes left.
		if len(t) < k-1 && (cur >= per || len(h.dfs)-c-1 == k-1-len(t)) {
			t = append(t, df)
			cur = 0
		}
	}
	return append(t, h.dfs[len(h.dfs)-1])
}

// CutTable is a df-threshold table: entry f is the largest df fragment
// f holds, strictly ascending. A term's fragment is the first entry at
// or above its df; a df above the last entry (a term that grew since
// the table was cut) falls in the last fragment. The empty table is one
// fragment holding every term.
type CutTable []int

// frag returns the fragment of a term with df df.
func (t CutTable) frag(df int) int {
	return min(sort.SearchInts(t, df), max(len(t)-1, 0))
}

// Cutoff decides a budgeted plan's admission: it places each query
// term (its df, as the plan's statistics weigh it) in its fragment of
// t, admits the plan's budgeted prefix and extends it by whole
// fragments, rarest first, until the estimated quality reaches the
// plan's floor. It appends each term's fragment to frag and returns it
// with the quality accounting: term i is admitted iff frag[i] <
// est.FragsUsed. A weightless term (df 0) is placed past every
// fragment. Masses sum in query-term order, so every caller with the
// same table and dfs reports the same estimate to the last bit.
func Cutoff(frag []int32, t CutTable, dfs []int, plan EvalPlan) ([]int32, QualityEstimate) {
	k := max(len(t), 1)
	var total float64
	for _, df := range dfs {
		f := int32(k)
		if df > 0 {
			f = int32(t.frag(df))
		}
		frag = append(frag, f)
		total += idfMass(df)
	}
	fs := frag[len(frag)-len(dfs):]
	budget := min(plan.Budget, k)
	covered := coveredMass(fs, dfs, budget)
	if plan.MinQuality > 0 && total > 0 {
		for covered/total < plan.MinQuality-1e-12 {
			// The next fragment holding a query term not yet admitted.
			next := k
			for _, f := range fs {
				if int(f) >= budget && int(f) < next {
					next = int(f)
				}
			}
			if next == k {
				break
			}
			budget = next + 1
			covered = coveredMass(fs, dfs, budget)
		}
	}
	return frag, QualityEstimate{CoveredIDF: covered, TotalIDF: total, FragsUsed: budget, FragsTotal: k}
}

// coveredMass sums, in query-term order, the idf mass of the terms the
// leading budget fragments admit.
func coveredMass(frag []int32, dfs []int, budget int) float64 {
	covered := 0.0
	for i, f := range frag {
		if int(f) < budget {
			covered += idfMass(dfs[i])
		}
	}
	return covered
}

// idfMass is a term's share of the query's idf mass: idf = 1/df, and
// nothing for a term the statistics do not know.
func idfMass(df int) float64 {
	if df <= 0 {
		return 0
	}
	return 1.0 / float64(df)
}

// cutCache is an index's cut-off state for one freeze epoch: the df
// histogram, the table last cut from it (for granularity k, already
// clamped to the classes) and the admitted postings per fragment of
// that table. It is immutable once published, except for the counters.
type cutCache struct {
	epoch    uint64
	hist     DFHistogram
	k        int
	table    CutTable
	postings []atomic.Int64
}

// cutFor returns the cut-off state for granularity k (<= 0 selects
// DefaultFragments) at the current freeze epoch: the histogram is
// rebuilt once per epoch, the table once per granularity change. Safe
// for concurrent evaluations: a racing rebuild publishes an equal
// table. A dirty index cuts against the histogram its epoch's first
// budgeted evaluation saw; Freeze first for one that counts every add.
func (ix *Index) cutFor(k int) *cutCache {
	if k <= 0 {
		k = DefaultFragments
	}
	c := ix.cut.Load()
	if c == nil || c.epoch != ix.epoch {
		c = &cutCache{epoch: ix.epoch, hist: histogramOf(ix.dfs()), k: -1}
	}
	if k = min(k, c.hist.Classes()); c.k != k {
		table := c.hist.Table(k)
		c = &cutCache{epoch: c.epoch, hist: c.hist, k: k, table: table,
			postings: make([]atomic.Int64, max(len(table), 1))}
		ix.cut.Store(c)
	}
	return c
}

// FragmentPostings returns a snapshot of the per-fragment
// admitted-postings counters of the index's budgeted evaluations:
// element f is the number of posting tuples they admitted from
// fragment f since the current table was cut (the first budgeted
// evaluation of a freeze epoch, or of a new granularity). Nil before
// the first budgeted evaluation. Counted before MaxScore decides which
// postings to weigh. Safe to call concurrently with evaluation.
func (ix *Index) FragmentPostings() []int64 {
	c := ix.cut.Load()
	if c == nil {
		return nil
	}
	out := make([]int64, len(c.postings))
	for i := range c.postings {
		out[i] = c.postings[i].Load()
	}
	return out
}

// PostingCounts returns the cumulative number of admitted postings
// evaluations weighed (scored) and passed over unweighed (skipped):
// those MaxScore proved unable to reach the top n, and those outside a
// request's candidate set. The two sum to the admitted postings of
// every evaluation, exact and budgeted alike. Safe to call
// concurrently with evaluation.
func (ix *Index) PostingCounts() (scored, skipped int64) {
	return ix.postingsScored.Load(), ix.postingsSkipped.Load()
}
