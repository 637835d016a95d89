package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestLRUBasic(t *testing.T) {
	c := NewLRU[string, int](2)
	if _, ok := c.Get("a"); ok {
		t.Error("empty cache returned a hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("Get(a) = %v, %v", v, ok)
	}
	// "b" is now least recently used; inserting "c" must evict it.
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("a evicted instead of b: %v, %v", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v != 3 {
		t.Errorf("Get(c) = %v, %v", v, ok)
	}
	if n := c.Snapshot().Entries; n != 2 {
		t.Errorf("%d entries, want 2", n)
	}
}

func TestLRUPutRefreshesExisting(t *testing.T) {
	c := NewLRU[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // refresh, not insert: must not evict anything
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Errorf("Get(a) = %v, %v, want 10", v, ok)
	}
	if _, ok := c.Get("b"); !ok {
		t.Error("b evicted by a refresh")
	}
}

func TestLRUStats(t *testing.T) {
	c := NewLRU[string, int](4)
	c.Put("a", 1)
	c.Get("a")
	c.Get("a")
	c.Get("missing")
	if s := c.Snapshot(); s.Hits != 2 || s.Misses != 1 {
		t.Errorf("Snapshot = %d hits, %d misses; want 2, 1", s.Hits, s.Misses)
	}
}

func TestLRUTinyCapacity(t *testing.T) {
	c := NewLRU[int, int](0) // clamped to 1
	c.Put(1, 1)
	c.Put(2, 2)
	if _, ok := c.Get(1); ok {
		t.Error("capacity clamp failed: both entries retained")
	}
	if v, ok := c.Get(2); !ok || v != 2 {
		t.Errorf("Get(2) = %v, %v", v, ok)
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := NewLRU[string, int](64)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%96)
				if v, ok := c.Get(k); ok && v != len(k) {
					t.Errorf("corrupted value for %s: %d", k, v)
				}
				c.Put(k, len(k))
			}
		}(g)
	}
	wg.Wait()
	if n := c.Snapshot().Entries; n > 64 {
		t.Errorf("%d entries exceed capacity", n)
	}
}
