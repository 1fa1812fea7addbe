package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

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
// ("court"/"courts") or differ only in case, so one term collects
// tokens of several spellings.
var addVocab = []string{"seles", "Seles", "graf", "court", "courts", "volley",
	"volleys", "trophy", "melbourne", "match", "matches", "rally"}

// FuzzIndexAdd holds Add to a map oracle. The fuzz bytes decode to a
// sequence of adds — documents re-added (their postings fold) and
// arriving out of oid order, words repeating within a document — with
// Freeze and memory-budget changes interleaved, so lists are compressed
// and re-inflated between adds. The exported state must hold exactly
// the oracle's documents (first-add order, first url, total length)
// and terms (dense oids in first-appearance order, postings and tfs by
// ascending document), and the local statistics its dfs; a second
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
		type docInfo struct {
			url string
			len int32
		}
		in := fuzzInput(data)
		ix := NewIndex()
		var adds []add
		var docOrder []bat.OID
		docs := map[bat.OID]*docInfo{}
		var stemOrder []string
		postings := map[string]map[bat.OID]int{}
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
				d := docs[doc]
				if d == nil {
					d = &docInfo{url: a.url}
					docs[doc] = d
					docOrder = append(docOrder, doc)
				}
				d.len += int32(len(words))
				for _, w := range words {
					stem := Stem(strings.ToLower(w))
					if postings[stem] == nil {
						postings[stem] = map[bat.OID]int{}
						stemOrder = append(stemOrder, stem)
					}
					postings[stem][doc]++
				}
			}
		}

		st := ix.ExportState()
		if len(st.Docs) != len(docOrder) {
			t.Fatalf("%d documents, oracle %d", len(st.Docs), len(docOrder))
		}
		for i, doc := range docOrder {
			if want := (DocState{OID: doc, URL: docs[doc].url, Len: docs[doc].len}); st.Docs[i] != want {
				t.Fatalf("document %d = %+v, oracle %+v", i, st.Docs[i], want)
			}
		}
		if len(st.Terms) != len(stemOrder) || st.NextOID != bat.OID(len(stemOrder)+1) {
			t.Fatalf("%d terms, next oid %d; oracle %d terms", len(st.Terms), st.NextOID, len(stemOrder))
		}
		local := ix.StatsLocal()
		totalDF := 0
		for i, stem := range stemOrder {
			term := st.Terms[i]
			if term.OID != bat.OID(i+1) || term.Stem != stem {
				t.Fatalf("term %d = oid %d %q, oracle oid %d %q", i, term.OID, term.Stem, i+1, stem)
			}
			want := make([]Posting, 0, len(postings[stem]))
			for doc, tf := range postings[stem] {
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
		if local.TotalDF != totalDF || local.Docs != len(docOrder) {
			t.Fatalf("totals %d df / %d docs, oracle %d / %d", local.TotalDF, local.Docs, totalDF, len(docOrder))
		}

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
