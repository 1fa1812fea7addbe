package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sort"

	"dlsearch/internal/bat"
)

// The content checksum is a deterministic digest over the logical
// document/posting content of an index: every document (oid, length,
// url) and every term's posting list (doc, tf), canonicalised so that
// two replicas holding the same documents produce the same digest no
// matter how they got there.
//
// Canonicalisation matters because replicas of a group are only
// logically identical: concurrent writes may interleave in different
// orders on different replicas, which changes document slot order and
// node-local term oid assignment without changing a single ranking
// (scores depend only on tf/df/Σdf/|d|, and frozen posting scans run
// in document-oid order). The digest therefore walks documents in
// ascending oid order and terms in ascending stem order, and never
// hashes slot numbers or term oids: replicas whose sequences issued
// different oids still agree, and so does an index restored from a
// state with sparse term oids.
//
// Deliberately excluded: the memory budget, the freeze epoch and λ.
// Compression state is a per-node space/speed trade-off with no
// ranking effect. There is no fragment placement to exclude: a term's
// fragment is a function of its df (CutTable), so replicas holding the
// same documents cut the same way.

// checksumMagic domain-separates the digest from any other sha256 use.
var checksumMagic = []byte("dlsearch-content-v1\x00")

// digestWriter feeds the canonical encoding into a hash.
type digestWriter struct {
	h   hash.Hash
	tmp [binary.MaxVarintLen64]byte
}

func (d *digestWriter) uvarint(v uint64) {
	d.h.Write(d.tmp[:binary.PutUvarint(d.tmp[:], v)])
}

func (d *digestWriter) str(s string) {
	d.uvarint(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digestWriter) sum() string {
	return hex.EncodeToString(d.h.Sum(nil))
}

// Checksum returns the content checksum of the index as a hex string.
// The digest is cached per freeze epoch, so repeated calls on a
// quiescent index are O(1); the first call after a mutation recomputes
// it in O(index). Checksum freezes the index, so callers that share
// the index with concurrent readers must hold the write side (serving
// layers call it through LocalNode, which does).
func (ix *Index) Checksum() string {
	ix.Freeze()
	if ix.checksumOK && ix.checksumEpoch == ix.epoch && ix.checksumDocs == len(ix.docIDs) {
		return ix.checksum
	}
	d := &digestWriter{h: sha256.New()}
	d.h.Write(checksumMagic)
	docs := append([]bat.OID(nil), ix.docIDs...)
	sort.Slice(docs, func(i, j int) bool { return docs[i] < docs[j] })
	d.uvarint(uint64(len(docs)))
	for _, doc := range docs {
		slot := ix.docSlot[doc]
		d.uvarint(uint64(doc))
		d.uvarint(uint64(ix.docLens[slot]))
		d.str(ix.docURLs[slot])
	}
	stems := make([]string, 0, len(ix.termID))
	for stem := range ix.termID {
		stems = append(stems, stem)
	}
	sort.Strings(stems)
	d.uvarint(uint64(len(stems)))
	for _, stem := range stems {
		t := &ix.terms[ix.termID[stem]-1]
		d.str(stem)
		d.uvarint(uint64(t.postingLen()))
		prev := uint64(0)
		if t.cold == nil {
			for i, slot := range t.slots {
				doc := uint64(ix.docIDs[slot])
				d.uvarint(doc - prev)
				prev = doc
				d.uvarint(uint64(t.tfs[i]))
			}
		} else {
			t.cold.Walk(func(doc bat.OID, tf int) bool {
				d.uvarint(uint64(doc) - prev)
				prev = uint64(doc)
				d.uvarint(uint64(tf))
				return true
			})
		}
	}
	ix.checksum = d.sum()
	ix.checksumEpoch = ix.epoch
	ix.checksumDocs = len(ix.docIDs)
	ix.checksumOK = true
	return ix.checksum
}

// ChecksumCached returns the content checksum without computing
// anything: ok is true only when the cached digest provably reflects
// the current content (no pending derived-state work, cache stamped at
// the current epoch and document count). Unlike Checksum it never
// mutates, so callers may hold only the read side and fall back to the
// write side + Checksum on a miss.
func (ix *Index) ChecksumCached() (sum string, ok bool) {
	if ix.checksumOK && !ix.Dirty() && ix.checksumEpoch == ix.epoch && ix.checksumDocs == len(ix.docIDs) {
		return ix.checksum, true
	}
	return "", false
}

// Checksum returns the content checksum of an exported state, using
// the same canonical encoding as Index.Checksum — an index and its
// exported state always digest identically, which is what lets a
// snapshot header carry the checksum a restored replica will report.
func (st *IndexState) Checksum() string {
	d := &digestWriter{h: sha256.New()}
	d.h.Write(checksumMagic)
	docs := append([]DocState(nil), st.Docs...)
	sort.Slice(docs, func(i, j int) bool { return docs[i].OID < docs[j].OID })
	d.uvarint(uint64(len(docs)))
	for _, doc := range docs {
		d.uvarint(uint64(doc.OID))
		d.uvarint(uint64(doc.Len))
		d.str(doc.URL)
	}
	terms := append([]TermState(nil), st.Terms...)
	sort.Slice(terms, func(i, j int) bool { return terms[i].Stem < terms[j].Stem })
	d.uvarint(uint64(len(terms)))
	for _, t := range terms {
		d.str(t.Stem)
		d.uvarint(uint64(len(t.Postings)))
		prev := uint64(0)
		for _, p := range t.Postings {
			d.uvarint(uint64(p.Doc) - prev)
			prev = uint64(p.Doc)
			d.uvarint(uint64(p.TF))
		}
	}
	return d.sum()
}

// HasDoc reports whether a document oid is already indexed. The node
// boundary treats document oids as write-once and uses this for
// idempotent ingest: re-posting a batch whose acknowledgement was lost
// must be a no-op, never a tf double-fold.
func (ix *Index) HasDoc(doc bat.OID) bool {
	_, ok := ix.docSlot[doc]
	return ok
}

// AdvanceEpoch forces the freeze epoch strictly past `past`. Restore
// paths call it with the pre-restore epoch so every epoch-guarded
// cache entry captured against the old content — term resolutions AND
// RES sets — is invalidated even when the imported state happens to
// carry the same epoch number as the index it replaces.
func (ix *Index) AdvanceEpoch(past uint64) {
	if ix.epoch <= past {
		ix.epoch = past + 1
	}
}
