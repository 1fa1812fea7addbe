package core

import (
	"fmt"
	"sync"
	"testing"

	"dlsearch/internal/bat"
	"dlsearch/internal/ir"
)

func cacheIndex(t *testing.T, docs ...string) *ir.Index {
	t.Helper()
	ix := ir.NewIndex()
	for i, d := range docs {
		ix.Add(bat.OID(i+1), "u", d)
	}
	ix.Freeze()
	return ix
}

// TestQueryCacheHitMiss: the second resolution of the same query is a
// hit and returns the identical resolution.
func TestQueryCacheHitMiss(t *testing.T) {
	ix := cacheIndex(t, "melbourne champion trophy", "champion winner")
	qc := NewQueryCache(8)
	s1, o1 := qc.Resolve(ix, "the champion of melbourne")
	if hits, misses := qc.Counters(); hits != 0 || misses != 1 {
		t.Fatalf("counters after first resolve = %d/%d, want 0/1", hits, misses)
	}
	s2, o2 := qc.Resolve(ix, "the champion of melbourne")
	if hits, misses := qc.Counters(); hits != 1 || misses != 1 {
		t.Fatalf("counters after second resolve = %d/%d, want 1/1", hits, misses)
	}
	if len(s1) != 2 || len(o1) != 2 {
		t.Fatalf("resolution = %v %v, want champion+melbourne", s1, o1)
	}
	for i := range s1 {
		if s1[i] != s2[i] || o1[i] != o2[i] {
			t.Fatalf("hit returned different resolution: %v/%v vs %v/%v", s1, o1, s2, o2)
		}
	}
	// The cached oids must match the index's own resolution.
	ws, wo := ix.ResolveQuery("the champion of melbourne")
	for i := range ws {
		if ws[i] != s1[i] || wo[i] != o1[i] {
			t.Fatalf("cached %v/%v, index resolves %v/%v", s1, o1, ws, wo)
		}
	}
}

// TestQueryCacheEpochInvalidation: a freeze that absorbed new postings
// bumps the epoch and invalidates prior resolutions — a term unknown
// when the entry was cached is picked up afterwards.
func TestQueryCacheEpochInvalidation(t *testing.T) {
	ix := cacheIndex(t, "melbourne champion")
	qc := NewQueryCache(8)
	_, oids := qc.Resolve(ix, "champion quetzalcoatl")
	if len(oids) != 1 {
		t.Fatalf("resolved %d terms, want 1", len(oids))
	}
	// The unknown term enters the vocabulary.
	ix.Add(bat.OID(9), "u", "quetzalcoatl rises")
	// Dirty index: the cache steps aside rather than serving staleness.
	_, oids = qc.Resolve(ix, "champion quetzalcoatl")
	if len(oids) != 2 {
		t.Fatalf("dirty-index resolve found %d terms, want 2", len(oids))
	}
	ix.Freeze()
	_, oids = qc.Resolve(ix, "champion quetzalcoatl")
	if len(oids) != 2 {
		t.Fatalf("post-freeze resolve found %d terms, want 2", len(oids))
	}
	// And the refreshed entry is served from cache now.
	hits0, _ := qc.Counters()
	qc.Resolve(ix, "champion quetzalcoatl")
	if hits, _ := qc.Counters(); hits != hits0+1 {
		t.Fatal("refreshed entry not cached")
	}
}

// TestQueryCacheLRUEviction: capacity bounds the cache; the least
// recently used entry is evicted first.
func TestQueryCacheLRUEviction(t *testing.T) {
	ix := cacheIndex(t, "melbourne champion trophy winner serve rally")
	qc := NewQueryCache(2)
	qc.Resolve(ix, "champion") // LRU after the next two
	qc.Resolve(ix, "trophy")
	qc.Resolve(ix, "champion") // touch: now "trophy" is LRU
	qc.Resolve(ix, "winner")   // evicts "trophy"
	if n := qc.Len(); n != 2 {
		t.Fatalf("len = %d, want 2", n)
	}
	h0, m0 := qc.Counters()
	qc.Resolve(ix, "champion")
	if h, _ := qc.Counters(); h != h0+1 {
		t.Fatal("champion should still be cached")
	}
	qc.Resolve(ix, "trophy")
	if _, m := qc.Counters(); m != m0+1 {
		t.Fatal("trophy should have been evicted")
	}
}

// TestQueryCacheConcurrent: concurrent resolutions over a frozen index
// are race-free and all return the same oids.
func TestQueryCacheConcurrent(t *testing.T) {
	ix := cacheIndex(t, "melbourne champion trophy", "champion winner serve")
	qc := NewQueryCache(16)
	_, want := qc.Resolve(ix, "champion serve")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, oids := qc.Resolve(ix, "champion serve")
				if len(oids) != len(want) {
					t.Errorf("resolved %v, want %v", oids, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEngineQueryUsesCache: the assembled engine's IR predicates
// resolve through the cache — repeating the Figure 13 query turns
// into cache hits with an unchanged answer.
func TestEngineQueryUsesCache(t *testing.T) {
	engine, _, _, err := BuildAusOpen(1)
	if err != nil {
		t.Fatal(err)
	}
	first, err := engine.Query(Figure13Query)
	if err != nil {
		t.Fatal(err)
	}
	_, m0 := engine.Cache.Counters()
	if m0 == 0 {
		t.Fatal("query did not resolve through the cache")
	}
	second, err := engine.Query(Figure13Query)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := engine.Cache.Counters()
	if hits == 0 {
		t.Fatalf("repeat query produced no cache hits (misses %d)", misses)
	}
	if misses != m0 {
		t.Fatalf("repeat query missed again: %d -> %d", m0, misses)
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("cached query changed the answer:\n%v\n%v", first, second)
	}
}
