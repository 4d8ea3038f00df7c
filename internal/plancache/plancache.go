// Package plancache memoizes optimization results. Repeated queries are the
// norm in the serving workloads the ROADMAP targets — the same parameterized
// report runs thousands of times an hour against slowly-changing statistics —
// so a plan that took a full dynamic program to find should be found once.
//
// The cache is a sharded, mutex-protected LRU keyed by an opaque string; use
// AppendKey to build keys that cover everything the optimizer's answer
// depends on (catalog fingerprint, canonical query shape, environment laws,
// plan-space options and algorithm). A key is the exact binary encoding of
// those inputs, a few hundred bytes (KeyLen is a buffer capacity that fits
// typical keys), not a digest of it, so equal keys mean equal inputs:
// compare and store keys, never print or parse them. Because statistics
// are encoded into the key, there is no explicit invalidation: updating
// the catalog changes the key and stale entries simply age out of the LRU.
//
// All methods are safe for concurrent use.
package plancache

import (
	"container/list"
	"hash/maphash"
	"sync"
)

const shardCount = 16 // power of two; low-bits shard selection

// Cache is a sharded LRU mapping string keys to values of type V.
// The zero value is not usable; construct with New.
type Cache[V any] struct {
	shards [shardCount]shard[V]
	seed   maphash.Seed
}

// shard is one independently locked LRU. Its counters live beside the data
// they count and are bumped under the mutex a lookup already holds, so a
// hit writes no memory shared by every client of the cache.
type shard[V any] struct {
	mu    sync.Mutex
	cap   int
	items map[string]*list.Element
	order *list.List // front = most recently used

	hits, misses, evictions uint64
}

type lruEntry[V any] struct {
	key string
	val V
}

// New returns a cache holding at most capacity entries (minimum one per
// shard is enforced so a tiny capacity still caches something).
func New[V any](capacity int) *Cache[V] {
	perShard := capacity / shardCount
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache[V]{seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].items = make(map[string]*list.Element)
		c.shards[i].order = list.New()
	}
	return c
}

// shardOfBytes picks a key's shard. maphash guarantees Bytes(seed, b) ==
// String(seed, string(b)), so Put — which is handed the key as the string
// it stores — lands in the shard the byte-keyed lookups search.
func (c *Cache[V]) shardOfBytes(key []byte) *shard[V] {
	return &c.shards[maphash.Bytes(c.seed, key)&(shardCount-1)]
}

// served finishes a lookup whose map probe found (el, ok), under s.mu: a
// found entry becomes most-recently-used, and a counted lookup lands in the
// shard's hit or miss counter.
func (s *shard[V]) served(el *list.Element, ok, counted bool) (V, bool) {
	if !ok {
		if counted {
			s.misses++
		}
		var zero V
		return zero, false
	}
	if counted {
		s.hits++
	}
	s.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// GetBytes returns the cached value for key and whether it was present,
// marking the entry most-recently-used on a hit. It is keyed by the raw
// bytes of a key, for callers that build keys in a reusable buffer
// (AppendKey): the map lookup's string conversion stays on the stack, so a
// hit performs zero heap allocations. The key bytes are not retained.
func (c *Cache[V]) GetBytes(key []byte) (V, bool) {
	s := c.shardOfBytes(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[string(key)]
	return s.served(el, ok, true)
}

// ProbeBytes is GetBytes without touching the hit/miss counters: the lookup
// used by band-edge hysteresis, which speculatively tries adjacent-band
// keys after a counted miss. Counting those speculative lookups would
// dilute the hit rate the cache reports for its *primary* keys. A found
// entry is still marked most-recently-used — serving a plan keeps it warm
// however it was found.
func (c *Cache[V]) ProbeBytes(key []byte) (V, bool) {
	s := c.shardOfBytes(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[string(key)]
	return s.served(el, ok, false)
}

// Put stores key→val, evicting the shard's least-recently-used entry when
// the shard is full. Storing an existing key refreshes its value and recency.
func (c *Cache[V]) Put(key string, val V) {
	s := &c.shards[maphash.String(c.seed, key)&(shardCount-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		s.order.MoveToFront(el)
		return
	}
	if s.order.Len() >= s.cap {
		oldest := s.order.Back()
		if oldest != nil {
			s.order.Remove(oldest)
			delete(s.items, oldest.Value.(*lruEntry[V]).key)
			s.evictions++
		}
	}
	s.items[key] = s.order.PushFront(&lruEntry[V]{key: key, val: val})
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits   uint64
	Misses uint64
	Size   int
	// Evictions counts LRU evictions since construction. A hit rate that
	// looks healthy while evictions climb means the working set exceeds
	// the capacity — entries are cycling, not resident.
	Evictions uint64
	// ShardSizes is the per-shard occupancy. Keys hash uniformly, so a
	// heavily skewed profile indicates a pathological key population
	// (e.g. everything collapsing into one drift band).
	ShardSizes []int
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (st Stats) HitRate() float64 {
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
}

// Stats returns a snapshot of the hit/miss/eviction counters summed over
// the shards, the current size and the per-shard occupancy. Each shard is
// read under its own mutex, so every counted lookup that has returned is in
// the sums.
func (c *Cache[V]) Stats() Stats {
	st := Stats{ShardSizes: make([]int, shardCount)}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.ShardSizes[i] = s.order.Len()
		s.mu.Unlock()
		st.Size += st.ShardSizes[i]
	}
	return st
}
