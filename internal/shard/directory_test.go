package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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

// TestDirectoryMinimalMovement pins the consistent-hashing property
// over two independent builds: a directory over the same four shards
// plus a fifth places roughly 1/5 of the tenants differently, and
// every tenant that moves moves to the new shard. A front restarted
// over a directory file that grew by one registration relies on it.
func TestDirectoryMinimalMovement(t *testing.T) {
	tenants := tenantNames(10000)
	four, err := NewDirectory([]string{"s0", "s1", "s2", "s3"}, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	five, err := NewDirectory([]string{"s0", "s1", "s2", "s3", "s4"}, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, tn := range tenants {
		before, after := four.Place(tn), five.Place(tn)
		if after != before {
			moved++
			if after != "s4" {
				t.Fatalf("tenant %s moved %s -> %s: movement not confined to the new shard", tn, before, after)
			}
		}
	}
	// Expected moved fraction is 1/5; allow a generous band around it.
	if frac := float64(moved) / float64(len(tenants)); frac < 0.10 || frac > 0.32 {
		t.Errorf("moved fraction %.3f far from 1/5 with a fifth shard", frac)
	}
}

// TestDirectoryValidation pins the constructor errors.
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
}

// TestDirectoryVNodesBounds: 0 selects DefaultVNodes and maxVNodes is
// accepted, while a negative count or one above maxVNodes is an error
// returned before any ring is built — a billion-vnode request must not
// allocate a billion ring entries first. The cases run smallest first
// and stop at the first failure, so a directory that builds before it
// checks fails on maxVNodes+1 (a few thousand entries) and never
// reaches the billion.
func TestDirectoryVNodesBounds(t *testing.T) {
	for _, v := range []int{-1, -64, maxVNodes + 1, 1_000_000_000} {
		var err error
		allocs := testing.AllocsPerRun(1, func() {
			_, err = NewDirectory([]string{"a", "b"}, v, 1)
		})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("vnodes %d", v)) {
			t.Fatalf("vnodes %d: err = %v, want it rejected by value", v, err)
		}
		if allocs > 8 {
			t.Fatalf("vnodes %d: %v allocations before the error, want the check first", v, allocs)
		}
	}
	for v, want := range map[int]int{0: DefaultVNodes, maxVNodes: maxVNodes} {
		d, err := NewDirectory([]string{"a", "b"}, v, 1)
		if err != nil {
			t.Fatalf("vnodes %d: %v", v, err)
		}
		if len(d.ring) != 2*want {
			t.Errorf("vnodes %d: ring of %d entries, want %d", v, len(d.ring), 2*want)
		}
	}
}

// TestDirectoryFileVNodes: a directory file with a negative vnodes
// loads (registration rewrites it untouched), but building its
// directory — and so a front over it — fails naming the count.
func TestDirectoryFileVNodes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dir.json")
	body := `{"seed": 1, "vnodes": -64, "shards": [{"name": "a", "addr": "http://127.0.0.1:1"}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Directory(); err == nil || !strings.Contains(err.Error(), "vnodes -64") {
		t.Errorf("Directory() over vnodes -64: err = %v, want it rejected", err)
	}
	if _, err := NewFront(f, FrontConfig{}); err == nil || !strings.Contains(err.Error(), "vnodes -64") {
		t.Errorf("NewFront over vnodes -64: err = %v, want it rejected", err)
	}
}
