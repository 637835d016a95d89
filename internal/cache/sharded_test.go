package cache

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"testing"
)

// Hash is 64-bit FNV-1a over the whole key, so the shard a key lands in
// (and with it eviction order and every per-shard counter) is the one
// the hash/fnv placement gave.
func TestHashIsFNV1a(t *testing.T) {
	for _, k := range []string{"", "a", "uniform-1G|0.05|1\x00Scan(orders)", strings.Repeat("x", 300)} {
		h := fnv.New64a()
		h.Write([]byte(k))
		if got, want := Hash(k), h.Sum64(); got != want {
			t.Errorf("Hash(%q) = %#x, want %#x", k, got, want)
		}
	}
}

func TestShardedRoundsShardsUp(t *testing.T) {
	for _, tc := range []struct{ shards, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {16, 16}, {17, 32},
	} {
		c := NewSharded[int](64, tc.shards)
		if got := c.NumShards(); got != tc.want {
			t.Errorf("NewSharded(64, %d): %d shards, want %d", tc.shards, got, tc.want)
		}
	}
}

func TestShardedGetPut(t *testing.T) {
	c := NewSharded[string](64, 4)
	if _, ok := c.Get("a", Hash("a")); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", Hash("a"), "1")
	c.Put("b", Hash("b"), "2")
	if v, ok := c.Get("a", Hash("a")); !ok || v != "1" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	c.Put("a", Hash("a"), "3") // overwrite, no eviction
	if v, _ := c.Get("a", Hash("a")); v != "3" {
		t.Fatalf("Get(a) after overwrite = %q", v)
	}
	s := c.Snapshot()
	if s.Evictions != 0 || s.Entries != 2 {
		t.Fatalf("snapshot %+v, want 0 evictions, 2 entries", s)
	}
}

func TestShardedEvictionBoundsEachShard(t *testing.T) {
	// Total capacity 8 over 4 shards = 2 per shard. Insert far more
	// distinct keys than capacity: every shard must stay within its
	// slice and the overflow must be counted as evictions.
	c := NewSharded[int](8, 4)
	const n = 100
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		c.Put(k, Hash(k), i)
	}
	kept := c.Snapshot().Entries
	if kept > 8 {
		t.Fatalf("%d entries exceed capacity 8", kept)
	}
	for i, sh := range c.shards {
		if n := sh.Snapshot().Entries; n > 2 {
			t.Errorf("shard %d holds %d entries, per-shard cap is 2", i, n)
		}
	}
	s := c.Snapshot()
	if got := s.Evictions; got != uint64(n-kept) {
		t.Errorf("evictions = %d, want %d (inserted %d, kept %d)", got, n-kept, n, kept)
	}
}

func TestShardedSnapshotAggregatesShards(t *testing.T) {
	c := NewSharded[int](32, 8)
	for i := 0; i < 48; i++ {
		k := fmt.Sprintf("k%d", i)
		c.Put(k, Hash(k), i)
		c.Get(k, Hash(k)) // hit
		absent := k + "-never-present"
		c.Get(absent, Hash(absent)) // miss
	}
	var sum Stats
	for _, sh := range c.shards {
		sum.Add(sh.Snapshot())
	}
	if agg := c.Snapshot(); agg != sum {
		t.Errorf("Snapshot %+v != sum of shard snapshots %+v", agg, sum)
	}
	if sum.Hits != 48 || sum.Misses != 48 {
		t.Errorf("hits/misses = %d/%d, want 48/48", sum.Hits, sum.Misses)
	}
}

// TestShardedConcurrent hammers the cache from many goroutines sharing
// key ranges; run under -race this checks the per-shard locking, and the
// counter totals must account for every operation.
func TestShardedConcurrent(t *testing.T) {
	c := NewSharded[int](64, 8)
	const (
		goroutines = 16
		opsEach    = 500
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				k := fmt.Sprintf("k%d", (g*opsEach+i)%97)
				c.Put(k, Hash(k), i)
				c.Get(k, Hash(k))
			}
		}(g)
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Hits+s.Misses != goroutines*opsEach {
		t.Errorf("hits+misses = %d, want %d", s.Hits+s.Misses, goroutines*opsEach)
	}
	if s.Entries > 64 {
		t.Errorf("snapshot holds %d entries, capacity 64", s.Entries)
	}
}

// TestShardedHashCollision: keys the caller puts under one hash are
// told apart by the key itself. Two distinct keys under one hash both
// come back with their own values; and over a random run of gets and
// puts on five keys sharing two hashes, through one shard of capacity 3,
// every get answers and every counter reads exactly what a string-keyed
// LRU of that capacity answers and counts.
func TestShardedHashCollision(t *testing.T) {
	pair := NewSharded[string](8, 1)
	pair.Put("a", 42, "va")
	pair.Put("b", 42, "vb")
	if va, okA := pair.Get("a", 42); !okA || va != "va" {
		t.Fatalf("Get(a) = %q, %v; want va", va, okA)
	}
	if vb, okB := pair.Get("b", 42); !okB || vb != "vb" {
		t.Fatalf("Get(b) = %q, %v; want vb", vb, okB)
	}
	if _, ok := pair.Get("c", 42); ok {
		t.Fatal("Get(c) hit under a hash only a and b were put under")
	}

	c := NewSharded[int](3, 1)
	ref := NewLRU[string, int](3)
	keys := []string{"a", "b", "c", "d", "e"}
	hashOf := map[string]uint64{"a": 7, "b": 7, "c": 7, "d": 1 << 40, "e": 1 << 40}
	src := uint64(1)
	for i := 0; i < 5000; i++ {
		src = src*6364136223846793005 + 1442695040888963407
		k := keys[(src>>33)%uint64(len(keys))]
		if (src>>20)%3 == 0 {
			c.Put(k, hashOf[k], i)
			ref.Put(k, i)
			continue
		}
		v, ok := c.Get(k, hashOf[k])
		rv, rok := ref.Get(k)
		if v != rv || ok != rok {
			t.Fatalf("op %d: Get(%s) = %d, %v; string-keyed LRU %d, %v", i, k, v, ok, rv, rok)
		}
	}
	got, want := c.Snapshot(), ref.Snapshot()
	if got != want {
		t.Fatalf("counters %+v, string-keyed LRU %+v", got, want)
	}
	if got.Evictions == 0 || got.Hits == 0 || got.Misses == 0 {
		t.Fatalf("counters %+v: the run exercised too little", got)
	}
}
