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

// The 64-bit FNV-1a parameters, inlined so hashing a key allocates
// nothing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a folds s into the FNV-1a state h.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// SeededHash is the seeded placement hash shared by the shard directory
// (ring positions) and the cache's tier model (local/remote
// classification): FNV-1a over the seed's eight little-endian bytes and
// then the key, finished with a splitmix-style avalanche so structured
// keys sharing long prefixes (tenant-0001, tenant-0002, ...) still
// spread evenly.
func SeededHash(seed int64, key string) uint64 {
	x := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		x ^= uint64(seed) >> (8 * i) & 0xff
		x *= fnvPrime64
	}
	x = fnv1a(x, key)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (c *Sharded[V]) shard(key string) *LRU[string, V] {
	return c.shards[fnv1a(fnvOffset64, key)&c.mask]
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
