package ir

import (
	"cmp"
	"iter"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dlsearch/internal/bat"
)

// DefaultLambda is the smoothing parameter of the [Hie98] retrieval
// model; Hiemstra's experiments motivate a small value.
const DefaultLambda = 0.15

// Posting is one (document, term frequency) entry of a term's posting
// list: one DT/TF tuple, materialised from the term's posting columns.
type Posting struct {
	Doc bat.OID
	TF  int
}

// Result is a ranked retrieval result.
type Result struct {
	Doc   bat.OID
	Score float64
}

// plist is the columnar access path of one term's posting list: two
// parallel arrays of dense document slots and term frequencies, the
// Monet-style decomposition the scorer scans. Slots index the
// docIDs/docLens columns of the index. At freeze time the list is
// sorted by document oid so restricted scans and merges run
// cache-friendly; appends in oid order (the common case) keep it
// sorted for free.
type plist struct {
	slots  []int32
	tfs    []int32
	sorted bool
	weightBound
}

// weightBound is the (tf, |d|) of the posting with the largest tf/|d|
// a list has held. logWeight increases with tf/|d| under any one
// term's statistics, so the weight of this pair bounds the weight of
// every posting of the list: the per-list bound the scorer's MaxScore
// cut-off sums. A document's |d| only grows, so a bound recorded
// against an older, shorter |d| stays an upper bound. Nothing of it is
// persisted; every path that builds a list raises it.
type weightBound struct {
	bTF, bLen int32
}

// raise records (tf, docLen) as the bound if its tf/|d| exceeds the
// bound's, compared by cross-multiplying in int64, so exactly.
func (b *weightBound) raise(tf, docLen int32) {
	if b.bTF == 0 || int64(tf)*int64(b.bLen) > int64(b.bTF)*int64(docLen) {
		b.bTF, b.bLen = tf, docLen
	}
}

// term is one row of the index's term column: everything the index
// keeps about the term of oid id, at position id-1. Its df is its
// posting count (postingLen).
type term struct {
	plist                      // DT/TF columns; empty while the list is cold
	cold   *CompressedPostings // the list, while the memory budget holds it compressed
	idfRow int32               // row of the IDF relation; -1 before the term's first Freeze
	dirty  bool                // derived state (IDF row, sort order, budget) pending a Freeze
	addTF  int32               // Add's scratch: the term's tf in the document being added
}

// postingLen returns the posting count of the term over both stores:
// its df.
func (t *term) postingLen() int {
	if t.cold != nil {
		return t.cold.Len()
	}
	return len(t.slots)
}

// Index is the full-text meta-index. Of the paper's five relations it
// keeps T and IDF as BATs; D is held as dense document columns and
// DT/TF as term-clustered posting columns, each fact stored once:
//
//	T   term index           term-oid × term (stemmed, stopped)
//	D   document index       slot → doc-oid, |d|, url (docIDs/docLens/docURLs)
//	DT  document term list   term-oid → doc slots (term.slots)
//	TF  term frequency       term-oid → tf, parallel to the slots (term.tfs)
//	IDF inverse doc freq     term-oid × idf, idf = 1/df
//
// As in the paper's BATs, term oids are dense: the term of oid id is
// row id-1 of T and of the term column, which holds its posting
// columns, its IDF row and its pending-work flag, so nothing past the
// word → oid table and the stem → oid dictionary is found by hashing.
// Add issues oids 1, 2, … in first-appearance order; ImportState
// renumbers a state's terms densely in ascending-oid order.
// applyMemoryBudget's oid tie-break relies on only that order, not on
// the oid values.
//
// A term's DT/TF tuples live either in its plain posting columns or,
// under a memory budget, delta+varint compressed (cold) — never both.
//
// The query hot path is columnar: posting lists address document slots
// directly, and per-query score accumulation runs over a reusable
// doc-indexed score slice instead of hash maps. Derived state (IDF
// rows, posting-list sort order) is maintained
// incrementally; Freeze flushes whatever is still pending. A term's
// fragment is no state at all: the cut-off derives it from its df.
type Index struct {
	T   *bat.BAT
	IDF *bat.BAT

	lambda float64

	termID map[string]bat.OID
	terms  []term // the term column: terms[id-1] is term oid id

	// words caches what Add derives from a surface word: its term oid,
	// or NilOID for a stop word. Stemming is a pure function, so the
	// table is derived state: never exported, persisted or shipped,
	// and an imported index starts it empty. Its size is bounded by
	// wordsCap.
	words map[string]bat.OID

	// Columnar document store: slot = dense insertion index.
	docIDs  []bat.OID
	docLens []int32
	docURLs []string // the url of a document's first Add
	docSlot map[bat.OID]int32
	maxDoc  bat.OID

	totalDF int

	dirty []bat.OID // terms with pending derived-state work (term.dirty set)
	epoch uint64    // freeze epoch: bumped by every Freeze that did work

	// dfEpoch stamps every IDF row with the freeze epoch that last
	// rewrote it, so StatsSince finds the terms whose df changed after a
	// given epoch without diffing vocabularies. An imported index knows
	// no history below baseEpoch, the epoch it was imported at.
	dfEpoch   []uint64
	baseEpoch uint64

	// The a-priori cut-off's table and fragment counters, cut from the
	// df histogram once per freeze epoch (see cutoff.go). Published
	// through an atomic pointer so Evaluate stays read-only.
	cut atomic.Pointer[cutCache]

	// What MaxScore made of the admitted postings, every evaluation
	// added once (see PostingCounts).
	postingsScored, postingsSkipped atomic.Int64

	// Content checksum, cached per freeze epoch (see checksum.go).
	// checksumDocs guards the one mutation Freeze cannot see: adding a
	// document whose text contributes no terms changes the doc count
	// without dirtying any term.
	checksum      string
	checksumEpoch uint64
	checksumDocs  int
	checksumOK    bool

	// Memory budget over the columnar posting lists: when positive,
	// Freeze keeps the plain slot/tf columns within the budget by
	// holding the coldest (lowest idf, largest) lists delta+varint
	// compressed; the scorer walks them without materialising.
	memBudget  int
	plainBytes int // resident bytes of the plain slot/tf columns
	coldTerms  int // terms held compressed

	scorers sync.Pool // *scorer: reusable per-query buffers

	// Add's scratch, reused across documents: the distinct term oids
	// of the document being added, in first-appearance order.
	addIDs []bat.OID
}

// NewIndex returns an empty index with the default ranking parameter.
func NewIndex() *Index {
	return &Index{
		T:       bat.New("T", bat.KindString),
		IDF:     bat.New("IDF", bat.KindFloat),
		lambda:  DefaultLambda,
		termID:  make(map[string]bat.OID),
		words:   make(map[string]bat.OID),
		docSlot: make(map[bat.OID]int32),
	}
}

// wordsCap bounds the surface-word table: two spellings per term, plus
// the stop list. Past it, an unseen word is resolved but not kept.
func (ix *Index) wordsCap() int { return 2*len(ix.terms) + len(stopWords) }

// termAt returns the column row of a term oid, nil for an oid the index
// never issued. The pointer is valid only until the next Add.
func (ix *Index) termAt(id bat.OID) *term {
	if id == bat.NilOID || id > bat.OID(len(ix.terms)) {
		return nil
	}
	return &ix.terms[id-1]
}

// newTerm enters a stem into T and the term column under the next
// dense oid.
func (ix *Index) newTerm(stem string) bat.OID {
	ix.terms = append(ix.terms, term{plist: plist{sorted: true}, idfRow: -1})
	id := bat.OID(len(ix.terms))
	ix.termID[stem] = id
	ix.T.AppendString(id, stem)
	return id
}

// SetLambda overrides the smoothing parameter (0 < λ < 1).
func (ix *Index) SetLambda(l float64) { ix.lambda = l }

// Lambda returns the smoothing parameter of the retrieval model.
func (ix *Index) Lambda() float64 { return ix.lambda }

// MemoryBudget returns the posting-store memory budget (0 = unbounded).
func (ix *Index) MemoryBudget() int { return ix.memBudget }

// addDoc registers a new document in the next dense slot.
func (ix *Index) addDoc(doc bat.OID, url string) int32 {
	slot := int32(len(ix.docIDs))
	ix.docSlot[doc] = slot
	ix.docIDs = append(ix.docIDs, doc)
	ix.docLens = append(ix.docLens, 0)
	ix.docURLs = append(ix.docURLs, url)
	if doc > ix.maxDoc {
		ix.maxDoc = doc
	}
	return slot
}

// Add indexes the body text of a document. The caller supplies the
// document oid from the global OID space; the paper's incremental
// indexing process fills DT/T/D first and derives TF/IDF, which here
// happens transparently (incrementally on the next freeze). Adding to
// a document seen before keeps its first url and folds the new
// occurrences into its existing postings. Add must not run
// concurrently with queries.
//
// A word the index has seen resolves to its term oid, or to nothing
// for a stop word, with one hash of its bytes. Only an unseen word is
// stopped, stemmed and looked up by its stem (resolveWord). A token
// counts towards its term's tf in the term's column row, and the
// distinct terms are then applied in first-appearance order: each
// posting lands in its own list, so the order changes nothing, and no
// sort is needed.
func (ix *Index) Add(doc bat.OID, url, text string) {
	var scratch [32]byte // longer stems spill to the heap
	stem := scratch[:0]
	ids := ix.addIDs[:0]
	tokens := int32(0)
	low := strings.ToLower(text) // text itself when already lower-case
	for tok, i := nextToken(low, 0); tok != ""; tok, i = nextToken(low, i) {
		id, known := ix.words[tok]
		if !known {
			id, stem = ix.resolveWord(tok, stem)
		}
		if id == bat.NilOID {
			continue // a stop word
		}
		t := &ix.terms[id-1]
		if t.addTF == 0 {
			ids = append(ids, id)
		}
		t.addTF++
		tokens++
	}
	ix.addIDs = ids
	slot, seen := ix.docSlot[doc]
	if !seen {
		slot = ix.addDoc(doc, url)
	}
	ix.docLens[slot] += tokens
	docLen := ix.docLens[slot]
	for _, id := range ids {
		t := &ix.terms[id-1]
		tf := t.addTF
		t.addTF = 0
		if t.cold != nil {
			// The term's postings are held compressed: re-inflate before
			// appending; the next Freeze re-applies the memory budget.
			ix.inflate(t)
		}
		// Either mutation changes scores (a fold changes tf, and docLens
		// above), so the term is dirtied: epoch-guarded caches must not
		// keep serving the old ranking, and the next Freeze re-applies
		// any memory budget to a re-inflated list.
		if !t.dirty {
			t.dirty = true
			ix.dirty = append(ix.dirty, id)
		}
		if seen {
			if ftf, folded := t.fold(ix.docIDs, slot, tf); folded {
				t.raise(ftf, docLen)
				continue
			}
		}
		t.raise(tf, docLen)
		ix.totalDF++
		if len(t.slots) > 0 && ix.docIDs[t.slots[len(t.slots)-1]] > doc {
			t.sorted = false
		}
		t.slots = append(t.slots, slot)
		t.tfs = append(t.tfs, tf)
		ix.plainBytes += 8
	}
}

// resolveWord is Add's path for a word the table does not hold: the
// word is stopped or stemmed, and its stem resolved to a term oid (a
// new term when unseen). The answer is kept in the table while it is
// below its bound. tok aliases the document's text, so the key is a
// copy of it, or the vocabulary's own key when the word is its stem.
// buf is the stem scratch, returned for reuse.
func (ix *Index) resolveWord(tok string, buf []byte) (bat.OID, []byte) {
	id, key := bat.NilOID, ""
	if !stopWords[tok] {
		buf = stemInto(buf, tok)
		var known bool
		if id, known = ix.termID[string(buf)]; !known {
			id = ix.newTerm(string(buf))
		}
		if string(buf) == tok {
			key = ix.T.TailString(int(id - 1))
		}
	}
	if len(ix.words) < ix.wordsCap() {
		if key == "" {
			key = strings.Clone(tok)
		}
		ix.words[key] = id
	}
	return id, buf
}

// fold adds tf to the document's posting if the list holds one, so a
// document added twice keeps one posting per term instead of splitting
// its tf over two. It returns the folded tf.
func (pl *plist) fold(docIDs []bat.OID, slot, tf int32) (int32, bool) {
	if pl.sorted {
		doc := docIDs[slot]
		i := sort.Search(len(pl.slots), func(i int) bool {
			return docIDs[pl.slots[i]] >= doc
		})
		if i < len(pl.slots) && pl.slots[i] == slot {
			pl.tfs[i] += tf
			return pl.tfs[i], true
		}
		return 0, false
	}
	for i := len(pl.slots) - 1; i >= 0; i-- {
		if pl.slots[i] == slot {
			pl.tfs[i] += tf
			return pl.tfs[i], true
		}
	}
	return 0, false
}

// DocCount returns the number of indexed documents.
func (ix *Index) DocCount() int { return len(ix.docIDs) }

// MaxDoc returns the highest document oid ever indexed (NilOID when
// empty) — oid allocators seed from it so they never reuse a live oid.
func (ix *Index) MaxDoc() bat.OID { return ix.maxDoc }

// TermCount returns the size of the vocabulary.
func (ix *Index) TermCount() int { return len(ix.terms) }

// TermOID returns the oid of a raw (already stemmed) term.
func (ix *Index) TermOID(stem string) (bat.OID, bool) {
	id, ok := ix.termID[stem]
	return id, ok
}

// postingLen returns the posting count of a term oid: its local df.
func (ix *Index) postingLen(id bat.OID) int {
	if t := ix.termAt(id); t != nil {
		return t.postingLen()
	}
	return 0
}

// dfs yields the local df of every term, in oid order.
func (ix *Index) dfs() iter.Seq[int] {
	return func(yield func(int) bool) {
		for i := range ix.terms {
			if !yield(ix.terms[i].postingLen()) {
				return
			}
		}
	}
}

// Freeze brings all incrementally maintained derived state up to
// date: stale IDF rows are rewritten in place (new terms appended)
// and posting lists that received out-of-order appends are re-sorted
// by document oid. Freeze touches only the terms dirtied since the
// last freeze — it is O(changes), not O(vocabulary) — and is a no-op
// when nothing changed. Query methods freeze lazily; bulk loaders and
// the distributed cluster call it once after loading so concurrent
// read-only queries never mutate the index.
func (ix *Index) Freeze() {
	if len(ix.dirty) == 0 {
		return
	}
	ix.epoch++
	slices.Sort(ix.dirty)
	for _, id := range ix.dirty {
		t := &ix.terms[id-1]
		t.dirty = false
		idf := 1.0 / float64(t.postingLen())
		if t.idfRow >= 0 {
			ix.IDF.SetFloatAt(int(t.idfRow), idf)
			ix.dfEpoch[t.idfRow] = ix.epoch
		} else {
			t.idfRow = int32(ix.IDF.Len())
			ix.IDF.AppendFloat(id, idf)
			ix.dfEpoch = append(ix.dfEpoch, ix.epoch)
		}
		if !t.sorted {
			t.sortByDoc(ix.docIDs)
		}
	}
	ix.dirty = ix.dirty[:0]
	ix.applyMemoryBudget()
}

// SetMemoryBudget bounds the resident size of the plain posting
// columns to budget bytes (8 bytes per posting): the coldest terms —
// lowest idf, i.e. the most frequent and largest lists — are held
// delta+varint compressed and the scorer walks them in place, trading
// scan speed for space exactly where the idf-descending design says
// the expensive, insignificant terms live. Adds touching a compressed
// term transparently re-inflate it; the next Freeze re-applies the
// budget. A budget <= 0 (the default) keeps every list plain.
func (ix *Index) SetMemoryBudget(budget int) {
	ix.memBudget = budget
	if ix.Dirty() {
		ix.Freeze() // applies the budget as its last step
		return
	}
	ix.applyMemoryBudget()
}

// MemoryFootprint reports the posting-store residency: plain bytes
// (8 per uncompressed posting), compressed bytes, and how many terms
// are held compressed.
func (ix *Index) MemoryFootprint() (plain, compressed, coldTerms int) {
	for i := range ix.terms {
		if cp := ix.terms[i].cold; cp != nil {
			compressed += cp.Bytes()
		}
	}
	return ix.plainBytes, compressed, ix.coldTerms
}

// applyMemoryBudget enforces the memory budget: with no budget every
// compressed list is inflated back; otherwise the largest-df terms are
// compressed until the plain columns fit.
func (ix *Index) applyMemoryBudget() {
	if ix.memBudget <= 0 {
		for i := 0; ix.coldTerms > 0; i++ {
			if t := &ix.terms[i]; t.cold != nil {
				ix.inflate(t)
			}
		}
		return
	}
	if ix.plainBytes <= ix.memBudget {
		return
	}
	var ids []bat.OID
	for i := range ix.terms {
		if t := &ix.terms[i]; len(t.slots) > 0 && t.sorted {
			ids = append(ids, bat.OID(i+1))
		}
	}
	// Coldest first: highest df (lowest idf); ties by oid for
	// determinism.
	slices.SortFunc(ids, func(a, b bat.OID) int {
		if c := cmp.Compare(len(ix.terms[b-1].slots), len(ix.terms[a-1].slots)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for _, id := range ids {
		if ix.plainBytes <= ix.memBudget {
			break
		}
		ix.compressTerm(&ix.terms[id-1])
	}
}

// compressTerm moves one term's postings from the plain columns into
// the compressed store. The list keeps its weight bound.
func (ix *Index) compressTerm(t *term) {
	ps := make([]Posting, len(t.slots))
	for i, slot := range t.slots {
		ps[i] = Posting{Doc: ix.docIDs[slot], TF: int(t.tfs[i])}
	}
	cp := Compress(ps)
	t.cold = &cp
	t.slots, t.tfs = nil, nil
	ix.plainBytes -= 8 * len(ps)
	ix.coldTerms++
}

// inflate materialises a compressed posting list back into the plain
// columns (doc-sorted, so the access-path invariants hold), its weight
// bound recomputed against today's document lengths.
func (ix *Index) inflate(t *term) {
	cp := t.cold
	t.plist = plist{
		slots:  make([]int32, 0, cp.Len()),
		tfs:    make([]int32, 0, cp.Len()),
		sorted: true,
	}
	cp.Walk(func(doc bat.OID, tf int) bool {
		slot := ix.docSlot[doc]
		t.slots = append(t.slots, slot)
		t.tfs = append(t.tfs, int32(tf))
		t.raise(int32(tf), ix.docLens[slot])
		return true
	})
	t.cold = nil
	ix.plainBytes += 8 * len(t.slots)
	ix.coldTerms--
}

// sortByDoc co-sorts the slot/tf columns ascending by document oid.
func (pl *plist) sortByDoc(docIDs []bat.OID) {
	ord := make([]int32, len(pl.slots))
	for i := range ord {
		ord[i] = int32(i)
	}
	sort.Slice(ord, func(i, j int) bool {
		return docIDs[pl.slots[ord[i]]] < docIDs[pl.slots[ord[j]]]
	})
	slots := make([]int32, len(pl.slots))
	tfs := make([]int32, len(pl.tfs))
	for i, o := range ord {
		slots[i] = pl.slots[o]
		tfs[i] = pl.tfs[o]
	}
	pl.slots, pl.tfs = slots, tfs
	pl.sorted = true
}

// Epoch returns the freeze epoch: a counter bumped by every Freeze
// that had pending derived-state work. Together with Dirty it lets
// query-side caches (query text → resolved term oids) validate their
// entries: a resolution captured at epoch e on a clean index stays
// valid until the epoch moves.
func (ix *Index) Epoch() uint64 { return ix.epoch }

// Dirty reports whether derived state (IDF rows, posting sort order,
// and therefore term resolutions captured by caches) is pending a
// Freeze.
func (ix *Index) Dirty() bool { return len(ix.dirty) > 0 }

// ResolveQuery resolves query text through the tokenize/stop/stem
// pipeline to the unique known terms, returned as parallel stem/oid
// slices. Terms outside this index's vocabulary are omitted: they
// cannot contribute postings here (the global statistics a distributed
// node receives are keyed by stem, which is why the stems ride along).
// The stems may alias the query text (see queryStem).
func (ix *Index) ResolveQuery(query string) (stems []string, oids []bat.OID) {
	return ix.resolveInto(nil, nil, query)
}

// resolveInto is ResolveQuery appending to the caller's buffers.
// Queries are a handful of terms, so duplicates are eliminated with a
// linear scan instead of an allocated seen-set.
func (ix *Index) resolveInto(stems []string, oids []bat.OID, query string) ([]string, []bat.OID) {
	var scratch [32]byte // longer stems spill to the heap
	low := strings.ToLower(query)
	for stem, tok, i := nextStem(low, 0, scratch[:0]); tok != ""; stem, tok, i = nextStem(low, i, stem) {
		if id, known := ix.termID[string(stem)]; known && !slices.Contains(oids, id) {
			stems = append(stems, queryStem(stem, tok))
			oids = append(oids, id)
		}
	}
	return stems, oids
}

// IDFOf returns idf(t) = 1/df(t) for a stemmed term.
func (ix *Index) IDFOf(stem string) float64 {
	id, ok := ix.termID[stem]
	if !ok {
		return 0
	}
	ix.Freeze()
	if row := ix.terms[id-1].idfRow; row >= 0 {
		return ix.IDF.TailFloat(int(row))
	}
	return 0
}

// logWeight is the per-term contribution of the [Hie98]-derived model:
//
//	w(t,d) = log(1 + λ·tf(t,d)·Σ_t' df(t') / ((1-λ)·df(t)·|d|))
//
// Rare terms (low df, high idf) contribute most, which is exactly the
// property the idf-descending cut-off exploits.
func logWeight(lambda float64, tf, df, totalDF, docLen int) float64 {
	return math.Log(1 + lambda*float64(tf)*float64(totalDF)/((1-lambda)*float64(df)*float64(docLen)))
}

// TopN returns the n best-ranking documents for the query: the one
// mutating convenience over Evaluate — it freezes pending derived
// state, then runs the exact plan with local statistics.
func (ix *Index) TopN(query string, n int) []Result {
	ix.Freeze()
	res, _ := ix.Evaluate(Request{Query: query, Plan: EvalPlan{N: n}})
	return res
}

// Merge folds per-node rankings into a master ranking of size n; the
// central DBMS of the paper performs exactly this merge over the
// RES(doc-oid, score) sets the distributed nodes return.
func Merge(n int, rankings ...[]Result) []Result {
	total := 0
	for _, r := range rankings {
		total += len(r)
	}
	all := make([]Result, 0, total)
	for _, r := range rankings {
		all = append(all, r...)
	}
	slices.SortFunc(all, rankOrder)
	if n < 0 {
		n = 0
	}
	if len(all) > n {
		all = all[:n]
	}
	return all
}
