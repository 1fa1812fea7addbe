package ir

// Stats carries collection-wide term statistics keyed by stemmed term.
// In the distributed setting the central DBMS aggregates the local
// statistics of every node and ships them with the query, so each node
// computes exactly the scores a single global index would — this is
// what makes the per-document distribution transparent to the ranking.
// Scoring reads DF only for the query's own stems, so the block a query
// ships need hold no others; TotalDF and Docs always count the whole
// collection.
type Stats struct {
	DF      map[string]int
	TotalDF int
	Docs    int
}

// StatsLocal extracts this index's local term statistics.
func (ix *Index) StatsLocal() Stats {
	st := Stats{DF: make(map[string]int, len(ix.termID)), TotalDF: ix.totalDF, Docs: ix.DocCount()}
	for term, id := range ix.termID {
		st.DF[term] = ix.terms[id-1].postingLen()
	}
	return st
}

// MergeStats sums local statistics into global statistics.
func MergeStats(locals ...Stats) Stats {
	g := Stats{DF: make(map[string]int)}
	for _, l := range locals {
		for t, df := range l.DF {
			g.DF[t] += df
		}
		g.TotalDF += l.TotalDF
		g.Docs += l.Docs
	}
	return g
}

// StatsSince returns what changed after freeze epoch since: the df of
// every term a Freeze rewrote later than that (a superset of the terms
// whose df moved — a tf fold rewrites its term too), with the current
// totals. Laid over StatsLocal as of since it yields StatsLocal as of
// now, at a cost proportional to the change instead of the vocabulary.
// ok is false when since is not an epoch whose aftermath this index
// tracked — it predates the imported base state, or lies in the future
// — and the caller must ship StatsLocal. The index must be frozen.
func (ix *Index) StatsSince(since uint64) (delta Stats, ok bool) {
	if since < ix.baseEpoch || since > ix.epoch {
		return Stats{}, false
	}
	delta = Stats{DF: map[string]int{}, TotalDF: ix.totalDF, Docs: ix.DocCount()}
	for row, e := range ix.dfEpoch {
		if e > since {
			i := int(ix.IDF.Head(row)) - 1 // the term's row in T and in the term column
			delta.DF[ix.T.TailString(i)] = ix.terms[i].postingLen()
		}
	}
	return delta, true
}
