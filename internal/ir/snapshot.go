package ir

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"dlsearch/internal/bat"
)

// IndexState is the complete logical content of an Index in a stable,
// implementation-independent shape: the serialization boundary between
// the in-memory columnar access paths and the durability layer
// (internal/persist). Everything derived — df, idf rows, slot
// numbers, the cut-off table, compressed cold lists — is
// reconstructed from it, so the format survives hot-path refactors as
// long as the logical relations stay expressible.
//
// The state round-trips exactly: ImportState(ExportState()) yields an
// index whose exact and budgeted rankings (documents AND scores) are
// byte-identical to the original's, because scores depend only on
// (tf, df, Σdf, |d|, λ) and on the doc-sorted posting scan order that
// export preserves.
type IndexState struct {
	Lambda    float64
	Epoch     uint64  // freeze epoch at export time
	NextOID   bat.OID // sequence position: restored allocations continue past it
	MemBudget int     // posting-store memory budget (0 = unbounded)
	LogPos    uint64  // op-log position this state covers (0 = no log)

	Docs  []DocState
	Terms []TermState // ascending by term oid
}

// DocState is one document: its global oid, url and length in terms.
type DocState struct {
	OID bat.OID
	URL string
	Len int32
}

// TermState is one vocabulary term with its full posting list in
// ascending document-oid order (the frozen access-path order — scores
// accumulate in exactly this order, which is what makes restored
// rankings byte-identical, not merely equivalent).
type TermState struct {
	OID      bat.OID
	Stem     string
	Postings []Posting
}

// ExportState freezes the index and captures its complete logical
// state. The caller must hold the index's write side (it may mutate
// via Freeze); the returned state shares no memory with the index.
func (ix *Index) ExportState() *IndexState {
	ix.Freeze()
	st := &IndexState{
		Lambda:    ix.lambda,
		Epoch:     ix.epoch,
		NextOID:   bat.OID(len(ix.terms) + 1),
		MemBudget: ix.memBudget,
	}
	st.Docs = make([]DocState, len(ix.docIDs))
	for slot, doc := range ix.docIDs {
		st.Docs[slot] = DocState{OID: doc, URL: ix.docURLs[slot], Len: ix.docLens[slot]}
	}
	st.Terms = make([]TermState, len(ix.terms))
	for i := range ix.terms {
		id := bat.OID(i + 1)
		st.Terms[i] = TermState{OID: id, Stem: ix.T.TailString(i), Postings: ix.PostingsOf(id)}
	}
	return st
}

// ImportState rebuilds a fully functional index from exported state:
// the T relation, the document columns, the DT/TF posting columns,
// derived statistics and IDF rows, and the memory budget (cold lists
// re-compressed by the same deterministic coldest-first policy). The
// state may come from outside the process, so ImportState validates it
// and fails closed — a state whose postings reference unknown
// documents, or whose tf, document length or λ no index could hold
// yields an error, never a partial index.
func ImportState(st *IndexState) (*Index, error) {
	if math.IsNaN(st.Lambda) || st.Lambda >= 1 {
		return nil, fmt.Errorf("ir: import: smoothing parameter λ = %v, must be below 1", st.Lambda)
	}
	ix := NewIndex()
	if st.Lambda > 0 {
		ix.lambda = st.Lambda
	}
	ix.epoch = st.Epoch
	ix.baseEpoch = st.Epoch
	ix.termID = make(map[string]bat.OID, len(st.Terms))
	ix.docSlot = make(map[bat.OID]int32, len(st.Docs))

	for _, d := range st.Docs {
		if d.OID == bat.NilOID {
			return nil, fmt.Errorf("ir: import: nil document oid")
		}
		if _, dup := ix.docSlot[d.OID]; dup {
			return nil, fmt.Errorf("ir: import: duplicate document oid %d", d.OID)
		}
		if d.Len < 0 {
			return nil, fmt.Errorf("ir: import: document %d has negative length %d", d.OID, d.Len)
		}
		slot := ix.addDoc(d.OID, d.URL)
		ix.docLens[slot] = d.Len
	}
	// Term oids may be sparse (states written when the sequence also
	// issued pair oids), and a state may come from outside the process,
	// so no oid of it sizes anything: its terms are renumbered densely
	// in ascending-oid order, the only property of their oids the index
	// relies on. A NextOID at or below a term oid still fails closed:
	// it names a state no writer produced, whose post-restore Add would
	// have reissued a live oid. (Document oids live in the caller's
	// global space and may legitimately exceed the term oids.)
	terms := st.Terms
	byOID := func(a, b TermState) int { return cmp.Compare(a.OID, b.OID) }
	if !slices.IsSortedFunc(terms, byOID) {
		terms = slices.Clone(terms)
		slices.SortFunc(terms, byOID)
	}
	ix.terms = make([]term, 0, len(terms))
	for i, t := range terms {
		switch {
		case t.OID == bat.NilOID:
			return nil, fmt.Errorf("ir: import: nil term oid for %q", t.Stem)
		case i > 0 && t.OID == terms[i-1].OID:
			return nil, fmt.Errorf("ir: import: duplicate term oid %d", t.OID)
		case t.OID >= st.NextOID:
			return nil, fmt.Errorf("ir: import: term oid %d not below the sequence position %d — a post-restore allocation would reuse it", t.OID, st.NextOID)
		}
		if _, dup := ix.termID[t.Stem]; dup {
			return nil, fmt.Errorf("ir: import: duplicate term %q", t.Stem)
		}
		id := ix.newTerm(t.Stem)
		pl := &ix.terms[id-1]
		pl.slots = make([]int32, 0, len(t.Postings))
		pl.tfs = make([]int32, 0, len(t.Postings))
		prev := bat.NilOID
		for _, p := range t.Postings {
			slot, ok := ix.docSlot[p.Doc]
			if !ok {
				return nil, fmt.Errorf("ir: import: term %q posting references unknown document %d", t.Stem, p.Doc)
			}
			if p.Doc <= prev {
				return nil, fmt.Errorf("ir: import: term %q postings not in ascending doc order", t.Stem)
			}
			if p.TF < 1 || p.TF > math.MaxInt32 {
				return nil, fmt.Errorf("ir: import: term %q has tf %d for document %d outside [1, 2^31)", t.Stem, p.TF, p.Doc)
			}
			prev = p.Doc
			pl.slots = append(pl.slots, slot)
			pl.tfs = append(pl.tfs, int32(p.TF))
			pl.raise(int32(p.TF), ix.docLens[slot])
		}
		ix.plainBytes += 8 * len(t.Postings)
		if df := len(t.Postings); df > 0 {
			ix.totalDF += df
			pl.idfRow = int32(ix.IDF.Len())
			ix.IDF.AppendFloat(id, 1.0/float64(df))
			ix.dfEpoch = append(ix.dfEpoch, st.Epoch)
		}
	}
	if st.MemBudget > 0 {
		ix.memBudget = st.MemBudget
		ix.applyMemoryBudget()
	}
	return ix, nil
}
