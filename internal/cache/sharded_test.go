package cache

import (
	"fmt"
	"sync"
	"testing"
)

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
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", "1")
	c.Put("b", "2")
	if v, ok := c.Get("a"); !ok || v != "1" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	c.Put("a", "3") // overwrite, no eviction
	if v, _ := c.Get("a"); v != "3" {
		t.Fatalf("Get(a) after overwrite = %q", v)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
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
		c.Put(fmt.Sprintf("key-%d", i), i)
	}
	if c.Len() > 8 {
		t.Fatalf("Len = %d exceeds capacity 8", c.Len())
	}
	for i, sh := range c.shards {
		if n := sh.Snapshot().Entries; n > 2 {
			t.Errorf("shard %d holds %d entries, per-shard cap is 2", i, n)
		}
	}
	s := c.Snapshot()
	if got := s.Evictions; got != uint64(n-c.Len()) {
		t.Errorf("evictions = %d, want %d (inserted %d, kept %d)", got, n-c.Len(), n, c.Len())
	}
}

func TestShardedSnapshotAggregatesShards(t *testing.T) {
	c := NewSharded[int](32, 8)
	for i := 0; i < 48; i++ {
		k := fmt.Sprintf("k%d", i)
		c.Put(k, i)
		c.Get(k)                    // hit
		c.Get(k + "-never-present") // miss
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
				c.Put(k, i)
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Hits+s.Misses != goroutines*opsEach {
		t.Errorf("hits+misses = %d, want %d", s.Hits+s.Misses, goroutines*opsEach)
	}
	if s.Entries != c.Len() {
		t.Errorf("snapshot entries %d != Len %d", s.Entries, c.Len())
	}
}
