// Package shard is the horizontal serving topology: a tenant Directory
// that places tenants over N serving shards by consistent hashing, a
// FrontDoor that sheds load before placement (token bucket plus
// predictive admission), and an HTTP front that routes tenant traffic
// to `uaqp serve -shard` processes registered in a static directory
// file. The topology is validated first in internal/sim — the same
// Directory and FrontDoor drive the simulator's sharded scenarios —
// then realized over HTTP (examples/shard), so the simulator and the
// real serving path share one cluster abstraction.
package shard

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cache"
)

// DefaultVNodes is the virtual-node count per shard when a directory
// (or directory file) does not choose one: enough ring points that a
// handful of shards split the key space within a few percent of even.
const DefaultVNodes = 128

// ringEntry is one virtual node on the hash ring.
type ringEntry struct {
	hash  uint64
	shard string
}

// Directory places tenants over serving shards with a consistent-hash
// ring of virtual nodes. Placement is a pure function of (shard set,
// vnodes, seed, tenant): rebuilding a directory from the same inputs —
// in any order, on any GOMAXPROCS — yields byte-identical placements,
// which is what lets the simulator report on 10k-tenant topologies
// deterministically. Adding or removing a shard moves only the tenants
// whose arc the change captures (≈ 1/N of them), never reshuffling the
// rest.
type Directory struct {
	mu     sync.RWMutex
	vnodes int
	seed   int64
	shards []string // sorted
	ring   []ringEntry
}

// NewDirectory builds a directory over the given shard names. vnodes
// < 1 selects DefaultVNodes. Shard names must be non-empty and unique;
// order does not matter (the ring is built from the sorted set).
func NewDirectory(shards []string, vnodes int, seed int64) (*Directory, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: directory needs at least one shard")
	}
	if vnodes < 1 {
		vnodes = DefaultVNodes
	}
	d := &Directory{vnodes: vnodes, seed: seed}
	seen := make(map[string]bool, len(shards))
	for _, s := range shards {
		if s == "" {
			return nil, fmt.Errorf("shard: empty shard name")
		}
		if seen[s] {
			return nil, fmt.Errorf("shard: duplicate shard %q", s)
		}
		seen[s] = true
		d.shards = append(d.shards, s)
	}
	sort.Strings(d.shards)
	d.rebuild()
	return d, nil
}

// rebuild recomputes the ring from the sorted shard set; callers hold
// the write lock (or own the directory exclusively).
func (d *Directory) rebuild() {
	d.ring = d.ring[:0]
	if cap(d.ring) < len(d.shards)*d.vnodes {
		d.ring = make([]ringEntry, 0, len(d.shards)*d.vnodes)
	}
	for _, s := range d.shards {
		for v := 0; v < d.vnodes; v++ {
			d.ring = append(d.ring, ringEntry{
				hash:  cache.SeededHash(d.seed, fmt.Sprintf("%s#%d", s, v)),
				shard: s,
			})
		}
	}
	sort.Slice(d.ring, func(i, j int) bool {
		if d.ring[i].hash != d.ring[j].hash {
			return d.ring[i].hash < d.ring[j].hash
		}
		// A full-width hash collision is vanishingly rare; break it by
		// name so the ring order is still a pure function of the inputs.
		return d.ring[i].shard < d.ring[j].shard
	})
}

// Place returns the shard owning tenant: the first virtual node at or
// clockwise of the tenant's hash.
func (d *Directory) Place(tenant string) string {
	h := cache.SeededHash(d.seed, tenant)
	d.mu.RLock()
	defer d.mu.RUnlock()
	i := sort.Search(len(d.ring), func(i int) bool { return d.ring[i].hash >= h })
	if i == len(d.ring) {
		i = 0
	}
	return d.ring[i].shard
}

// Add inserts a shard and rebuilds the ring; only tenants on arcs the
// new shard's virtual nodes capture move to it.
func (d *Directory) Add(shard string) error {
	if shard == "" {
		return fmt.Errorf("shard: empty shard name")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	i := sort.SearchStrings(d.shards, shard)
	if i < len(d.shards) && d.shards[i] == shard {
		return fmt.Errorf("shard: duplicate shard %q", shard)
	}
	d.shards = append(d.shards, "")
	copy(d.shards[i+1:], d.shards[i:])
	d.shards[i] = shard
	d.rebuild()
	return nil
}

// Remove deletes a shard and rebuilds the ring; its tenants scatter to
// the next virtual node clockwise of each vacated arc.
func (d *Directory) Remove(shard string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.shards) == 1 {
		return fmt.Errorf("shard: cannot remove the last shard")
	}
	i := sort.SearchStrings(d.shards, shard)
	if i == len(d.shards) || d.shards[i] != shard {
		return fmt.Errorf("shard: unknown shard %q", shard)
	}
	d.shards = append(d.shards[:i], d.shards[i+1:]...)
	d.rebuild()
	return nil
}

// Shards returns the sorted shard names.
func (d *Directory) Shards() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, len(d.shards))
	copy(out, d.shards)
	return out
}
