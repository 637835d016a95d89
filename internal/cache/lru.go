// Package cache provides the concurrency-safe LRU maps used to memoize
// expensive per-plan computations (sampling passes keyed by the plan's
// canonical signature): a minimal single-lock LRU and a sharded variant
// (Sharded) for multi-tenant serving, where one lock would serialize
// every tenant's cache traffic. Both keep hit/miss/eviction counters for
// observability.
package cache

import (
	"container/list"
	"sync"
)

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	Hits, Misses uint64
	// Evictions counts entries dropped to make room, excluding
	// overwrites of an existing key.
	Evictions uint64
	// Entries is the current number of cached values.
	Entries int
}

// Add accumulates other into s, for aggregating per-shard snapshots.
func (s *Stats) Add(other Stats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Evictions += other.Evictions
	s.Entries += other.Entries
}

// LRU is a fixed-capacity least-recently-used cache safe for concurrent
// use by multiple goroutines.
type LRU[K comparable, V any] struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List
	items     map[K]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// NewLRU returns an empty cache holding at most capacity entries;
// capacity < 1 is treated as 1.
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU[K, V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[K]*list.Element, capacity),
	}
}

// Get returns the cached value for key and marks it most recently used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*entry[K, V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Coalesced reclassifies one miss already counted by Get as a hit: the
// caller found the key absent, then received the value from another
// caller's computation of it instead of computing it again.
func (c *LRU[K, V]) Coalesced() {
	c.mu.Lock()
	c.misses--
	c.hits++
	c.mu.Unlock()
}

// Put inserts or refreshes key, evicting the least recently used entry
// when the cache is full.
func (c *LRU[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val})
	if c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[K, V]).key)
		c.evictions++
	}
}

// Snapshot returns all counters at once.
func (c *LRU[K, V]) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.ll.Len()}
}
