package shard

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func tenantNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("tenant-%05d", i)
	}
	return out
}

// TestDirectoryDeterministicPlacement pins the determinism contract at
// 10k tenants: placement is a pure function of (shard set, vnodes,
// seed, tenant) — identical across independently built directories,
// across shard-insertion order, and across concurrent readers at any
// GOMAXPROCS.
func TestDirectoryDeterministicPlacement(t *testing.T) {
	shards := []string{"shard-a", "shard-b", "shard-c", "shard-d"}
	tenants := tenantNames(10000)

	d1, err := NewDirectory(shards, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Same inputs, different construction order.
	d2, err := NewDirectory([]string{"shard-d", "shard-b", "shard-a", "shard-c"}, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(tenants))
	for i, tn := range tenants {
		want[i] = d1.Place(tn)
		if got := d2.Place(tn); got != want[i] {
			t.Fatalf("placement of %s differs across construction order: %s vs %s", tn, want[i], got)
		}
	}

	// Concurrent replay on every GOMAXPROCS level up to NumCPU.
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(procs)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(tenants); i += 8 {
					if got := d1.Place(tenants[i]); got != want[i] {
						t.Errorf("GOMAXPROCS=%d: placement of %s = %s, want %s", procs, tenants[i], got, want[i])
					}
				}
			}(w)
		}
		wg.Wait()
		runtime.GOMAXPROCS(prev)
	}

	// A different seed is a genuinely different ring (placements must
	// not be seed-independent).
	d3, err := NewDirectory(shards, 0, 43)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i, tn := range tenants {
		if d3.Place(tn) != want[i] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("changing the seed moved no tenants — placement ignores the seed")
	}
}

// TestDirectoryBalance pins that virtual nodes spread 10k tenants
// across 4 shards within a reasonable band of even (no shard starved
// or doubled).
func TestDirectoryBalance(t *testing.T) {
	d, err := NewDirectory([]string{"s0", "s1", "s2", "s3"}, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, name := range tenantNames(10000) {
		counts[d.Place(name)]++
	}
	for _, s := range d.Shards() {
		if n := counts[s]; n < 1500 || n > 3500 {
			t.Errorf("shard %s holds %d of 10000 tenants (want within [1500, 3500])", s, n)
		}
	}
}

// TestDirectoryMinimalMovement pins the consistent-hashing property:
// adding a fifth shard to a four-shard ring moves roughly 1/5 of the
// tenants — all of them to the new shard — and removing it restores
// the original placement exactly.
func TestDirectoryMinimalMovement(t *testing.T) {
	tenants := tenantNames(10000)
	d, err := NewDirectory([]string{"s0", "s1", "s2", "s3"}, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]string, len(tenants))
	for i, tn := range tenants {
		before[i] = d.Place(tn)
	}

	if err := d.Add("s4"); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i, tn := range tenants {
		after := d.Place(tn)
		if after != before[i] {
			moved++
			if after != "s4" {
				t.Fatalf("tenant %s moved %s -> %s: movement not confined to the new shard", tn, before[i], after)
			}
		}
	}
	// Expected moved fraction is 1/5; allow a generous band around it.
	if frac := float64(moved) / float64(len(tenants)); frac < 0.10 || frac > 0.32 {
		t.Errorf("moved fraction %.3f far from 1/5 on shard add", frac)
	}

	if err := d.Remove("s4"); err != nil {
		t.Fatal(err)
	}
	for i, tn := range tenants {
		if got := d.Place(tn); got != before[i] {
			t.Fatalf("tenant %s on %s after add+remove, want original %s", tn, got, before[i])
		}
	}
}

// TestDirectoryValidation pins the constructor and mutation errors.
func TestDirectoryValidation(t *testing.T) {
	if _, err := NewDirectory(nil, 0, 1); err == nil {
		t.Error("empty shard set accepted")
	}
	if _, err := NewDirectory([]string{"a", "a"}, 0, 1); err == nil {
		t.Error("duplicate shard accepted")
	}
	if _, err := NewDirectory([]string{""}, 0, 1); err == nil {
		t.Error("empty shard name accepted")
	}
	d, err := NewDirectory([]string{"a"}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Add("a"); err == nil {
		t.Error("duplicate Add accepted")
	}
	if err := d.Remove("zzz"); err == nil {
		t.Error("Remove of unknown shard accepted")
	}
	if err := d.Remove("a"); err == nil {
		t.Error("Remove of last shard accepted")
	}
}
