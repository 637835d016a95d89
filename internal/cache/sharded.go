package cache

// Sharded is a string-keyed LRU partitioned into independently locked
// shards, so concurrent tenants hitting disjoint keys do not contend on
// one lock. Keys go to shards by their Hash, computed once by the
// caller; each shard is a plain LRU with its own capacity slice, so the
// strict-LRU guarantee holds per shard (global eviction order is
// approximate, which is the usual sharded-cache trade).
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

// Hash is a key's shard hash, 64-bit FNV-1a: the h of Get, Put and Coalesced.
func Hash(key string) uint64 { return fnv1a(fnvOffset64, key) }

// Get returns the cached value for key (whose Hash is h) and marks it
// most recently used in its shard.
func (c *Sharded[V]) Get(key string, h uint64) (V, bool) {
	return c.shards[h&c.mask].Get(key)
}

// Coalesced reclassifies one counted miss of the key whose Hash is h as
// a hit; see LRU.Coalesced.
func (c *Sharded[V]) Coalesced(h uint64) {
	c.shards[h&c.mask].Coalesced()
}

// Put inserts or refreshes key (whose Hash is h), evicting its shard's
// least recently used entry when that shard is full.
func (c *Sharded[V]) Put(key string, h uint64, val V) {
	c.shards[h&c.mask].Put(key, val)
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
