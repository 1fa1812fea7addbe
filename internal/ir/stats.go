package ir

// Stats carries collection-wide term statistics keyed by stemmed term.
// In the distributed setting the central DBMS aggregates the local
// statistics of every node and ships them with the query, so each node
// computes exactly the scores a single global index would — this is
// what makes the per-document distribution transparent to the ranking.
type Stats struct {
	DF      map[string]int
	TotalDF int
	Docs    int
}

// StatsLocal extracts this index's local term statistics.
func (ix *Index) StatsLocal() Stats {
	st := Stats{DF: make(map[string]int, len(ix.termID)), TotalDF: ix.totalDF, Docs: ix.DocCount()}
	for term, id := range ix.termID {
		st.DF[term] = ix.df[id]
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
