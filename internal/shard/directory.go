// Package shard is the horizontal serving topology: a tenant Directory
// that places tenants over N serving shards by consistent hashing, a
// FrontDoor that sheds load before placement (token bucket plus
// predictive admission), and an HTTP front that routes tenant traffic
// to `uaqp serve -shard` processes registered in a static directory
// file. The topology is fixed for a directory's lifetime: a changed
// shard set is a new Directory, built by a restarted front or a new
// simulation. The same Directory and FrontDoor drive the simulator's
// sharded scenarios (internal/sim) and the HTTP path (examples/shard),
// so the simulator and the real serving path share one cluster
// abstraction.
package shard

import (
	"fmt"
	"sort"

	"repro/internal/cache"
)

// DefaultVNodes is the virtual-node count per shard when a directory
// (or directory file) does not choose one: enough ring points that a
// handful of shards split the key space within a few percent of even.
const DefaultVNodes = 128

// maxVNodes bounds the virtual-node count per shard. Balance stops
// improving long before it; the bound keeps a mistyped directory file
// from building a ring of billions of entries at startup.
const maxVNodes = 4096

// ringEntry is one virtual node on the hash ring.
type ringEntry struct {
	hash  uint64
	shard string
}

// Directory places tenants over serving shards with a consistent-hash
// ring of virtual nodes. It is immutable once built, so any number of
// goroutines may call Place without locking. Placement is a pure
// function of (shard set, vnodes, seed, tenant): rebuilding a
// directory from the same inputs — in any order, on any GOMAXPROCS —
// yields byte-identical placements, which is what lets the simulator
// report on 10k-tenant topologies deterministically. A directory over
// one more shard moves only the tenants whose arcs the new shard's
// virtual nodes capture (≈ 1/N of them), never reshuffling the rest,
// so a front restarted over a grown directory file keeps most
// placements.
type Directory struct {
	seed   int64
	shards []string // sorted
	ring   []ringEntry
}

// NewDirectory builds a directory over the given shard names. vnodes
// 0 selects DefaultVNodes; a negative count or one above maxVNodes is
// an error. Shard names must be non-empty and unique; order does not
// matter (the ring is built from the sorted set).
func NewDirectory(shards []string, vnodes int, seed int64) (*Directory, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: directory needs at least one shard")
	}
	if vnodes < 0 || vnodes > maxVNodes {
		return nil, fmt.Errorf("shard: vnodes %d out of [0, %d]", vnodes, maxVNodes)
	}
	if vnodes == 0 {
		vnodes = DefaultVNodes
	}
	d := &Directory{seed: seed}
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
	d.ring = make([]ringEntry, 0, len(d.shards)*vnodes)
	for _, s := range d.shards {
		for v := 0; v < vnodes; v++ {
			d.ring = append(d.ring, ringEntry{
				hash:  cache.SeededHash(seed, fmt.Sprintf("%s#%d", s, v)),
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
	return d, nil
}

// Place returns the shard owning tenant: the first virtual node at or
// clockwise of the tenant's hash.
func (d *Directory) Place(tenant string) string {
	h := cache.SeededHash(d.seed, tenant)
	i := sort.Search(len(d.ring), func(i int) bool { return d.ring[i].hash >= h })
	if i == len(d.ring) {
		i = 0
	}
	return d.ring[i].shard
}

// Shards returns the sorted shard names.
func (d *Directory) Shards() []string {
	out := make([]string, len(d.shards))
	copy(out, d.shards)
	return out
}
