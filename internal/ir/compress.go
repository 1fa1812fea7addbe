package ir

import (
	"encoding/binary"
	"fmt"
	"sort"

	"dlsearch/internal/bat"
)

// CompressedPostings is a delta + varint encoded posting list: doc
// oids are sorted, gap-encoded and varint-packed together with the
// term frequencies. The paper notes the TF and DT relations "are prone
// to grow huge, even when compression techniques are applied" — this
// is that compression technique: under a memory budget the index holds
// its coldest posting lists in this form (SetMemoryBudget).
type CompressedPostings struct {
	n   int
	buf []byte
}

// Compress encodes a posting list.
func Compress(ps []Posting) CompressedPostings {
	sorted := append([]Posting(nil), ps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Doc < sorted[j].Doc })
	var buf []byte
	var tmp [binary.MaxVarintLen64]byte
	prev := uint64(0)
	for _, p := range sorted {
		gap := uint64(p.Doc) - prev
		prev = uint64(p.Doc)
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], gap)]...)
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(p.TF))]...)
	}
	return CompressedPostings{n: len(sorted), buf: buf}
}

// Len returns the number of postings.
func (c CompressedPostings) Len() int { return c.n }

// Bytes returns the encoded size in bytes.
func (c CompressedPostings) Bytes() int { return len(c.buf) }

// Decode materialises the posting list.
func (c CompressedPostings) Decode() ([]Posting, error) {
	out := make([]Posting, 0, c.n)
	buf := c.buf
	doc := uint64(0)
	for len(buf) > 0 {
		gap, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("ir: corrupt posting gap")
		}
		buf = buf[n:]
		tf, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("ir: corrupt posting tf")
		}
		buf = buf[n:]
		doc += gap
		out = append(out, Posting{Doc: bat.OID(doc), TF: int(tf)})
	}
	if len(out) != c.n {
		return nil, fmt.Errorf("ir: posting count mismatch: %d != %d", len(out), c.n)
	}
	return out, nil
}

// Walk iterates the postings without materialising a slice, the access
// pattern scoring uses.
func (c CompressedPostings) Walk(f func(doc bat.OID, tf int) bool) error {
	buf := c.buf
	doc := uint64(0)
	for len(buf) > 0 {
		gap, n := binary.Uvarint(buf)
		if n <= 0 {
			return fmt.Errorf("ir: corrupt posting gap")
		}
		buf = buf[n:]
		tf, n := binary.Uvarint(buf)
		if n <= 0 {
			return fmt.Errorf("ir: corrupt posting tf")
		}
		buf = buf[n:]
		doc += gap
		if !f(bat.OID(doc), int(tf)) {
			return nil
		}
	}
	return nil
}

// PostingsOf materialises the posting list of a term oid as (doc, tf)
// pairs in the access path's order, decoding terms the memory budget
// holds compressed.
func (ix *Index) PostingsOf(id bat.OID) []Posting {
	pl := ix.termAt(id)
	if pl == nil {
		return nil
	}
	if pl.cold != nil {
		ps, _ := pl.cold.Decode()
		return ps
	}
	out := make([]Posting, len(pl.slots))
	for i, slot := range pl.slots {
		out[i] = Posting{Doc: ix.docIDs[slot], TF: int(pl.tfs[i])}
	}
	return out
}
