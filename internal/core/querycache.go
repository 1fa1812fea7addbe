package core

import (
	"container/list"
	"sync"
	"sync/atomic"

	"dlsearch/internal/bat"
	"dlsearch/internal/ir"
)

// QueryCache is a small LRU over query-term resolution: it maps
// (index, query string) to the tokenized/stemmed term oids (plus the
// stems themselves, which key global-statistics lookups in the
// distributed protocol), so a hot query skips the tokenizer and
// stemmer on every repetition — the ROADMAP's "query-side caching".
//
// Entries are validated against the index's freeze epoch: a Freeze
// that absorbed new postings bumps the epoch and every resolution
// captured before it is silently recomputed, because a previously
// unknown term may have entered the vocabulary. A dirty index (adds
// pending a freeze) bypasses the cache entirely rather than serving a
// potentially stale resolution.
//
// The cache is safe for concurrent use as long as the underlying
// indexes are frozen (Resolve only reads index state); hit/miss
// counters feed the coordinator's /stats and a node's /metrics.
type QueryCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	entries map[cacheKey]*list.Element

	hits   atomic.Uint64
	misses atomic.Uint64
}

type cacheKey struct {
	ix    *ir.Index
	query string
}

type cacheEntry struct {
	key   cacheKey
	epoch uint64
	stems []string
	oids  []bat.OID
}

// DefaultQueryCacheSize is the capacity engines use when none is given.
const DefaultQueryCacheSize = 256

// NewQueryCache returns a cache holding up to capacity resolutions
// (capacity < 1 is clamped to 1).
func NewQueryCache(capacity int) *QueryCache {
	if capacity < 1 {
		capacity = 1
	}
	return &QueryCache{
		cap:     capacity,
		ll:      list.New(),
		entries: map[cacheKey]*list.Element{},
	}
}

// Resolve returns the unique known query terms of ix as parallel
// stem/oid slices, from cache when the index's freeze epoch still
// matches. Callers must not mutate the returned slices.
func (qc *QueryCache) Resolve(ix *ir.Index, query string) (stems []string, oids []bat.OID) {
	if ix.Dirty() {
		// Derived state is pending: resolve directly and leave the
		// cache alone — the upcoming Freeze will bump the epoch anyway.
		qc.misses.Add(1)
		return ix.ResolveQuery(query)
	}
	key := cacheKey{ix: ix, query: query}
	epoch := ix.Epoch()
	qc.mu.Lock()
	if el, ok := qc.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		if ent.epoch == epoch {
			qc.ll.MoveToFront(el)
			qc.mu.Unlock()
			qc.hits.Add(1)
			return ent.stems, ent.oids
		}
		// Stale epoch: drop and recompute below.
		qc.ll.Remove(el)
		delete(qc.entries, key)
	}
	qc.mu.Unlock()
	qc.misses.Add(1)
	stems, oids = ix.ResolveQuery(query)
	qc.mu.Lock()
	if _, ok := qc.entries[key]; !ok {
		qc.entries[key] = qc.ll.PushFront(&cacheEntry{key: key, epoch: epoch, stems: stems, oids: oids})
		for qc.ll.Len() > qc.cap {
			oldest := qc.ll.Back()
			qc.ll.Remove(oldest)
			delete(qc.entries, oldest.Value.(*cacheEntry).key)
		}
	}
	qc.mu.Unlock()
	return stems, oids
}

// Counters returns the cumulative hit/miss counts.
func (qc *QueryCache) Counters() (hits, misses uint64) {
	return qc.hits.Load(), qc.misses.Load()
}

// Len returns the number of cached resolutions.
func (qc *QueryCache) Len() int {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	return qc.ll.Len()
}

// ResolverFor adapts the cache to the query executor's term-resolution
// hook (oids only; the executor scores against local statistics).
func (qc *QueryCache) ResolverFor() func(*ir.Index, string) []bat.OID {
	return func(ix *ir.Index, query string) []bat.OID {
		_, oids := qc.Resolve(ix, query)
		return oids
	}
}
