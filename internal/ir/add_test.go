package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"dlsearch/internal/bat"
)

// stateDigest hashes every field of an exported state in its exported
// order, term oids, NextOID and epoch included: two states digest
// alike only if they are equal field for field.
func stateDigest(st *IndexState) string {
	h := sha256.New()
	var tmp [binary.MaxVarintLen64]byte
	u := func(v uint64) { h.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	s := func(v string) { u(uint64(len(v))); h.Write([]byte(v)) }
	u(math.Float64bits(st.Lambda))
	u(st.Epoch)
	u(uint64(st.NextOID))
	u(uint64(st.MemBudget))
	u(st.LogPos)
	u(uint64(len(st.Docs)))
	for _, d := range st.Docs {
		u(uint64(d.OID))
		s(d.URL)
		u(uint64(d.Len))
	}
	u(uint64(len(st.Terms)))
	for _, t := range st.Terms {
		u(uint64(t.OID))
		s(t.Stem)
		u(uint64(len(t.Postings)))
		for _, p := range t.Postings {
			u(uint64(p.Doc))
			u(uint64(p.TF))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenCorpus builds an index through every write path Add has:
// new documents in and out of oid order, re-adds that fold tf into
// existing postings, a document with no terms, freezes between adds,
// and a memory budget that compresses lists a later add re-inflates.
func goldenCorpus() *Index {
	ix := planCorpus(200, 41)
	rng := rand.New(rand.NewSource(43))
	words := []string{"seles", "hingis", "match", "court", "trophy", "volley", "melbourne", "quetzal", "the"}
	text := func() string {
		b := make([]byte, 0, 64)
		for w := 0; w < 5+rng.Intn(20); w++ {
			b = append(b, words[rng.Intn(len(words))]...)
			b = append(b, ' ')
		}
		return string(b)
	}
	ix.Freeze()
	ix.SetMemoryBudget(4096)
	for i := 0; i < 60; i++ {
		doc := bat.OID(1 + rng.Intn(400)) // re-adds below 201, new oids out of order above
		ix.Add(doc, fmt.Sprintf("g%d", doc), text())
		if i%17 == 0 {
			ix.Freeze()
		}
	}
	ix.Add(999, "empty", "the of and")
	ix.SetMemoryBudget(0)
	ix.Add(1000, "last", "seles seles quetzal")
	return ix
}

// TestAddStateGolden pins what Add builds, byte for byte: the exported
// state (term oids, posting order, tfs, document lengths, epoch) and
// the content checksum of a fixed corpus. A change to the write path
// that moves either changes what every replica persists.
func TestAddStateGolden(t *testing.T) {
	const (
		wantState    = "567397d2a57f95e4edccd8b29425fe2a6a408c6c2d8fc5a5f7262c78f0288029"
		wantChecksum = "1316e8be8c58fe89175128d9c79d755c03377b15f1974ede876d2b26ec142dde"
	)
	ix := goldenCorpus()
	st := ix.ExportState()
	if got := stateDigest(st); got != wantState {
		t.Errorf("state digest %s, want %s", got, wantState)
	}
	if got := ix.Checksum(); got != wantChecksum {
		t.Errorf("checksum %s, want %s", got, wantChecksum)
	}
}

// addVocab is FuzzIndexAdd's vocabulary: words that share a stem
// ("court"/"courts", four inflections of "connect") or differ only in
// case, so one term collects tokens of several spellings; stop words;
// a word longer than Add's 32-byte stem scratch; and words with a
// separator inside ("court's", an en dash), which split into two
// tokens.
var addVocab = []string{"seles", "Seles", "graf", "court", "courts", "volley",
	"volleys", "trophy", "melbourne", "match", "matches", "rally",
	"the", "of", "connect", "connected", "connecting", "connection",
	"pneumonoultramicroscopicsilicovolcanoconiosis", "court's", "melbourne–open"}

// addOracle is a map model of what Add builds: documents in first-add
// order with their first url and total length, and each stem's
// postings, stems in first-appearance order. It splits text with
// Tokenize and drops stop words with IsStopWord, so it shares nothing
// with Add's word table.
type addOracle struct {
	docOrder  []bat.OID
	docs      map[bat.OID]*DocState
	stemOrder []string
	postings  map[string]map[bat.OID]int
}

func newAddOracle() *addOracle {
	return &addOracle{docs: map[bat.OID]*DocState{}, postings: map[string]map[bat.OID]int{}}
}

func (o *addOracle) add(doc bat.OID, url, text string) {
	d := o.docs[doc]
	if d == nil {
		d = &DocState{OID: doc, URL: url}
		o.docs[doc] = d
		o.docOrder = append(o.docOrder, doc)
	}
	for _, tok := range Tokenize(text) {
		if IsStopWord(tok) {
			continue
		}
		d.Len++
		stem := Stem(tok)
		if o.postings[stem] == nil {
			o.postings[stem] = map[bat.OID]int{}
			o.stemOrder = append(o.stemOrder, stem)
		}
		o.postings[stem][doc]++
	}
}

// check fails t unless the index's exported state holds exactly the
// oracle's documents and terms (dense oids in first-appearance order,
// postings and tfs by ascending document) and its local statistics
// the oracle's dfs.
func (o *addOracle) check(t *testing.T, ix *Index) {
	t.Helper()
	st := ix.ExportState()
	if len(st.Docs) != len(o.docOrder) {
		t.Fatalf("%d documents, oracle %d", len(st.Docs), len(o.docOrder))
	}
	for i, doc := range o.docOrder {
		if want := *o.docs[doc]; st.Docs[i] != want {
			t.Fatalf("document %d = %+v, oracle %+v", i, st.Docs[i], want)
		}
	}
	if len(st.Terms) != len(o.stemOrder) || st.NextOID != bat.OID(len(o.stemOrder)+1) {
		t.Fatalf("%d terms, next oid %d; oracle %d terms", len(st.Terms), st.NextOID, len(o.stemOrder))
	}
	local := ix.StatsLocal()
	totalDF := 0
	for i, stem := range o.stemOrder {
		term := st.Terms[i]
		if term.OID != bat.OID(i+1) || term.Stem != stem {
			t.Fatalf("term %d = oid %d %q, oracle oid %d %q", i, term.OID, term.Stem, i+1, stem)
		}
		want := make([]Posting, 0, len(o.postings[stem]))
		for doc, tf := range o.postings[stem] {
			want = append(want, Posting{Doc: doc, TF: tf})
		}
		slices.SortFunc(want, func(a, b Posting) int { return int(a.Doc) - int(b.Doc) })
		if !slices.Equal(term.Postings, want) {
			t.Fatalf("term %q postings %v, oracle %v", stem, term.Postings, want)
		}
		if local.DF[stem] != len(want) {
			t.Fatalf("term %q df %d, oracle %d", stem, local.DF[stem], len(want))
		}
		totalDF += len(want)
	}
	if local.TotalDF != totalDF || local.Docs != len(o.docOrder) {
		t.Fatalf("totals %d df / %d docs, oracle %d / %d", local.TotalDF, local.Docs, totalDF, len(o.docOrder))
	}
}

// FuzzIndexAdd holds Add to addOracle. The fuzz bytes decode to a
// sequence of adds — documents re-added (their postings fold) and
// arriving out of oid order, words repeating within a document — with
// Freeze and memory-budget changes interleaved, so lists are compressed
// and re-inflated between adds. Beyond the oracle's state, a second
// index fed the same adds in document-oid order must checksum alike.
func FuzzIndexAdd(f *testing.F) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, 32+rng.Intn(480))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		type add struct {
			doc       bat.OID
			url, text string
		}
		in := fuzzInput(data)
		ix := NewIndex()
		oracle := newAddOracle()
		var adds []add
		for ops := 0; len(in) > 0 && ops < 200; ops++ {
			switch op := in.next(); {
			case op%16 == 13:
				ix.Freeze()
			case op%16 == 14:
				ix.SetMemoryBudget(8 * in.next())
			case op%16 == 15:
				ix.SetMemoryBudget(0)
			default:
				doc := bat.OID(1 + in.next()%24)
				words := make([]string, in.next()%12)
				for i := range words {
					words[i] = addVocab[in.next()%len(addVocab)]
				}
				a := add{doc, fmt.Sprintf("u%d-%d", doc, ops), strings.Join(words, " ")}
				adds = append(adds, a)
				ix.Add(a.doc, a.url, a.text)
				oracle.add(a.doc, a.url, a.text)
			}
		}
		oracle.check(t, ix)

		sorted := NewIndex()
		slices.SortStableFunc(adds, func(a, b add) int { return int(a.doc) - int(b.doc) })
		for _, a := range adds {
			sorted.Add(a.doc, a.url, a.text)
		}
		if got, want := sorted.Checksum(), ix.Checksum(); got != want {
			t.Fatalf("checksum %s in document-oid order, %s as added", got, want)
		}
	})
}

// TestWordTableBounded feeds Add many more spellings of a few stems
// than the word table may hold. The table must never pass its bound,
// and must reach it, so words past the bound take the stemmer's path;
// no key may point into a document's text, and the index must still
// equal addOracle's. An index exported halfway
// and re-imported starts its table empty, with renumbered term oids,
// and after the second half's adds must equal one fed every add.
func TestWordTableBounded(t *testing.T) {
	bases := []string{"connect", "report", "conduct", "contract", "convert",
		"depart", "detect", "direct", "expect", "export", "inspect", "invent",
		"perform", "project", "protect", "reflect", "select", "suspect",
		"transport", "collect"}
	suffixes := []string{"", "s", "ed", "ing", "ings", "er", "ers", "ment", "ments",
		"ation", "ations", "ize", "izes", "ized", "izing", "ization", "ful", "ness"}
	var spellings []string
	stems := map[string]bool{}
	for _, b := range bases {
		for _, s := range suffixes {
			spellings = append(spellings, b+s)
			stems[Stem(b+s)] = true
		}
	}
	if bound := 2*len(stems) + len(stopWords); len(spellings) <= bound {
		t.Fatalf("%d spellings of %d stems fit the bound %d: the test cannot pass it", len(spellings), len(stems), bound)
	}
	rng := rand.New(rand.NewSource(5))
	texts := make([]string, 400)
	for i := range texts {
		words := make([]string, 5+rng.Intn(30))
		for j := range words {
			if rng.Intn(5) == 0 {
				words[j] = "the"
			} else {
				words[j] = spellings[rng.Intn(len(spellings))]
			}
		}
		texts[i] = strings.Join(words, " ")
	}

	ix, oracle := NewIndex(), newAddOracle()
	full := false
	for i, text := range texts {
		doc := bat.OID(1 + rng.Intn(300)) // some documents re-added
		ix.Add(doc, fmt.Sprintf("u%d", i), text)
		oracle.add(doc, fmt.Sprintf("u%d", i), text)
		if len(ix.words) > ix.wordsCap() {
			t.Fatalf("after add %d the table holds %d words, bound %d", i, len(ix.words), ix.wordsCap())
		}
		full = full || len(ix.words) == ix.wordsCap()
	}
	if !full {
		t.Fatalf("the table never reached its bound (%d of %d)", len(ix.words), ix.wordsCap())
	}
	// The texts are lower-case, so their tokens alias them; a key that
	// did too would keep its document's whole text alive.
	for w := range ix.words {
		p := uintptr(unsafe.Pointer(unsafe.StringData(w)))
		for _, text := range texts {
			if base := uintptr(unsafe.Pointer(unsafe.StringData(text))); p >= base && p < base+uintptr(len(text)) {
				t.Fatalf("table key %q points into a document's text", w)
			}
		}
	}
	oracle.check(t, ix)

	half := len(texts) / 2
	first, fresh := NewIndex(), NewIndex()
	for i, text := range texts[:half] {
		first.Add(bat.OID(i+1), "u", text)
		fresh.Add(bat.OID(i+1), "u", text)
	}
	imported, err := ImportState(first.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if len(imported.words) != 0 {
		t.Fatalf("an imported index starts with %d words in its table", len(imported.words))
	}
	for i, text := range texts[half:] {
		imported.Add(bat.OID(half+i+1), "u", text)
		fresh.Add(bat.OID(half+i+1), "u", text)
	}
	got, want := imported.ExportState(), fresh.ExportState()
	if !reflect.DeepEqual(got.Docs, want.Docs) || !reflect.DeepEqual(got.Terms, want.Terms) || got.NextOID != want.NextOID {
		t.Fatal("adds after an import differ from the same adds to a fresh index")
	}
	if imported.Checksum() != fresh.Checksum() {
		t.Fatal("checksum after import and adds differs from a fresh index's")
	}
}
