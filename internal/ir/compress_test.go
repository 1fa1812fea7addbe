package ir

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"dlsearch/internal/bat"
)

func TestCompressRoundTrip(t *testing.T) {
	ps := []Posting{{Doc: 5, TF: 2}, {Doc: 1, TF: 7}, {Doc: 100, TF: 1}}
	c := Compress(ps)
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	got, err := c.Decode()
	if err != nil {
		t.Fatal(err)
	}
	// Decoded postings come back sorted by doc.
	want := []Posting{{Doc: 1, TF: 7}, {Doc: 5, TF: 2}, {Doc: 100, TF: 1}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestCompressEmpty(t *testing.T) {
	c := Compress(nil)
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("empty compress = %+v", c)
	}
	got, err := c.Decode()
	if err != nil || len(got) != 0 {
		t.Fatalf("decode empty = %v, %v", got, err)
	}
}

func TestCompressWalkEarlyStop(t *testing.T) {
	c := Compress([]Posting{{Doc: 1, TF: 1}, {Doc: 2, TF: 2}, {Doc: 3, TF: 3}})
	seen := 0
	if err := c.Walk(func(doc bat.OID, tf int) bool {
		seen++
		return seen < 2
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 2 {
		t.Fatalf("Walk visited %d", seen)
	}
}

func TestCorruptPostingsRejected(t *testing.T) {
	c := CompressedPostings{n: 1, buf: []byte{0x80}} // dangling varint
	if _, err := c.Decode(); err == nil {
		t.Fatal("corrupt gap accepted")
	}
	if err := c.Walk(func(bat.OID, int) bool { return true }); err == nil {
		t.Fatal("corrupt walk accepted")
	}
	// Valid varints but count mismatch.
	good := Compress([]Posting{{Doc: 1, TF: 1}})
	good.n = 2
	if _, err := good.Decode(); err == nil {
		t.Fatal("count mismatch accepted")
	}
}

// Property: round trip preserves the (sorted) posting multiset.
func TestPropertyCompressRoundTrip(t *testing.T) {
	f := func(docs []uint16, tfs []uint8) bool {
		n := len(docs)
		if len(tfs) < n {
			n = len(tfs)
		}
		seen := map[uint16]bool{}
		var ps []Posting
		for i := 0; i < n; i++ {
			if seen[docs[i]] {
				continue // posting lists hold one entry per doc
			}
			seen[docs[i]] = true
			ps = append(ps, Posting{Doc: bat.OID(docs[i]) + 1, TF: int(tfs[i]) + 1})
		}
		c := Compress(ps)
		got, err := c.Decode()
		if err != nil || len(got) != len(ps) {
			return false
		}
		back := map[bat.OID]int{}
		for _, p := range got {
			back[p.Doc] = p.TF
		}
		for _, p := range ps {
			if back[p.Doc] != p.TF {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCompressionRatio: under a memory budget too small for any plain
// list, every posting list is held gap+varint encoded, and the encoding
// must beat the plain 8 bytes/posting columns substantially on dense
// posting lists.
func TestCompressionRatio(t *testing.T) {
	ix := NewIndex()
	rng := rand.New(rand.NewSource(3))
	words := []string{"match", "set", "game", "winner", "seles", "net"}
	for d := 1; d <= 2000; d++ {
		var text string
		for w := 0; w < 20; w++ {
			text += words[rng.Intn(len(words))] + " "
		}
		ix.Add(bat.OID(d), "u", text)
	}
	ix.Freeze()
	plain, _, _ := ix.MemoryFootprint()
	ix.SetMemoryBudget(1)
	left, packed, cold := ix.MemoryFootprint()
	if left != 0 || cold != ix.TermCount() {
		t.Fatalf("budget left %d plain bytes, %d of %d terms compressed", left, cold, ix.TermCount())
	}
	if packed >= plain/3 {
		t.Fatalf("compression too weak: %d packed vs %d plain", packed, plain)
	}
	t.Logf("compression: %d -> %d bytes (%.1fx)", plain, packed, float64(plain)/float64(packed))
}

// BenchmarkCompressedScan vs BenchmarkPlainScan: the ablation's time
// cost of scoring through the compressed representation.
func BenchmarkPlainScan(b *testing.B) {
	ps := make([]Posting, 10000)
	for i := range ps {
		ps[i] = Posting{Doc: bat.OID(i * 3), TF: i%7 + 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0
		for _, p := range ps {
			sum += p.TF
		}
		_ = sum
	}
}

func BenchmarkCompressedScan(b *testing.B) {
	ps := make([]Posting, 10000)
	for i := range ps {
		ps[i] = Posting{Doc: bat.OID(i*3 + 1), TF: i%7 + 1}
	}
	c := Compress(ps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0
		if err := c.Walk(func(_ bat.OID, tf int) bool { sum += tf; return true }); err != nil {
			b.Fatal(err)
		}
		_ = sum
	}
}

var _ = fmt.Sprint // reserved for debugging helpers
