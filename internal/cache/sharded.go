package cache

// Sharded is a string-keyed LRU partitioned into independently locked
// shards, so concurrent tenants hitting disjoint keys do not contend on
// one lock. Keys are assigned to shards by FNV-1a hash; each shard is a
// plain LRU with its own capacity slice, so the strict-LRU guarantee
// holds per shard (global eviction order is approximate, which is the
// usual sharded-cache trade).
type Sharded[V any] struct {
	shards []*LRU[string, V]
	mask   uint64
}

// NewSharded returns a sharded cache sized for roughly capacity entries
// in total. The shard count is rounded up to a power of two (values < 1
// select a single shard) and each shard gets ceil(capacity/shards)
// entries, at least one — so the true bound is shards*ceil(capacity/
// shards), up to shards-1 entries above the requested capacity (and
// never below it).
func NewSharded[V any](capacity, shards int) *Sharded[V] {
	n := 1
	for n < shards {
		n <<= 1
	}
	per := (capacity + n - 1) / n
	c := &Sharded[V]{shards: make([]*LRU[string, V], n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i] = NewLRU[string, V](per)
	}
	return c
}

// fnv1a is the 64-bit FNV-1a hash, inlined to avoid per-Get allocations.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func (c *Sharded[V]) shard(key string) *LRU[string, V] {
	return c.shards[fnv1a(key)&c.mask]
}

// Get returns the cached value for key and marks it most recently used
// in its shard.
func (c *Sharded[V]) Get(key string) (V, bool) {
	return c.shard(key).Get(key)
}

// Coalesced reclassifies one of key's counted misses as a hit; see
// LRU.Coalesced.
func (c *Sharded[V]) Coalesced(key string) {
	c.shard(key).Coalesced()
}

// Put inserts or refreshes key, evicting its shard's least recently used
// entry when that shard is full.
func (c *Sharded[V]) Put(key string, val V) {
	c.shard(key).Put(key, val)
}

// Len returns the total number of cached entries across shards.
func (c *Sharded[V]) Len() int {
	n := 0
	for _, s := range c.shards {
		n += s.Len()
	}
	return n
}

// NumShards returns the shard count.
func (c *Sharded[V]) NumShards() int { return len(c.shards) }

// Snapshot aggregates the counters of every shard.
func (c *Sharded[V]) Snapshot() Stats {
	var agg Stats
	for _, s := range c.shards {
		agg.Add(s.Snapshot())
	}
	return agg
}

// ShardSnapshots returns the per-shard counters, in shard order.
func (c *Sharded[V]) ShardSnapshots() []Stats {
	out := make([]Stats, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.Snapshot()
	}
	return out
}
