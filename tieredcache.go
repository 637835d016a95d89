package uaqetp

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/sample"
)

// TierConfig shapes a TieredCache: what fraction of the key space is
// resident in the local (in-process) tier, and what each lookup that
// has to go to the remote tier costs.
type TierConfig struct {
	// LocalFraction is the fraction of the key space classified as
	// local-tier resident, in [0, 1]. Clamped; 1 makes every lookup
	// local (the tiered cache degenerates to its inner MemoryCache).
	LocalFraction float64 `json:"local_fraction"`
	// RemoteLatency is the modeled cost, in seconds, of one lookup
	// that resolves through the remote tier.
	RemoteLatency float64 `json:"remote_latency"`
	// Seed salts the key-space classification so distinct deployments
	// partition differently but each is deterministic.
	Seed int64 `json:"seed"`
	// Capacity sizes the backing MemoryCache; <1 selects the default.
	Capacity int `json:"capacity,omitempty"`
}

// TierStats is a point-in-time snapshot of a TieredCache's tier
// counters. ModeledRemoteSeconds is the aggregate modeled cost of all
// remote-tier lookups so far (RemoteLookups times the configured
// per-lookup latency) — a report field, not wall time spent.
type TierStats struct {
	LocalLookups         uint64  `json:"local_lookups"`
	RemoteLookups        uint64  `json:"remote_lookups"`
	LocalFraction        float64 `json:"local_fraction"`
	RemoteLatencySeconds float64 `json:"remote_latency_seconds"`
	ModeledRemoteSeconds float64 `json:"modeled_remote_seconds"`
}

// TieredCache is an EstimateCache that models a two-tier (in-process +
// remote) deployment over a single in-process store. Every value is
// really kept in the inner MemoryCache — correctness is identical to
// the in-process tier — but each key is deterministically classified,
// by a seeded hash of the key against LocalFraction, as local- or
// remote-resident, and lookups are tallied per tier. The modeled
// remote cost is derived from the counters at read time
// (remoteLookups × RemoteLatency), so the aggregate is a pure sum of
// atomic increments: independent of the order concurrent callers
// (batched predictions, several Systems sharing the cache) interleave
// in, so the tier counters of a report depend only on which keys were
// looked up.
type TieredCache struct {
	inner *MemoryCache
	cfg   TierConfig

	// threshold is the precomputed cut in hash space below which a key
	// classifies as local: hash64(key, seed) < threshold.
	threshold uint64

	localLookups  atomic.Uint64
	remoteLookups atomic.Uint64
}

// NewTieredCache returns a tiered EstimateCache per cfg. The local
// fraction is clamped to [0, 1].
func NewTieredCache(cfg TierConfig) *TieredCache {
	if cfg.LocalFraction < 0 {
		cfg.LocalFraction = 0
	}
	if cfg.LocalFraction > 1 {
		cfg.LocalFraction = 1
	}
	var threshold uint64
	if cfg.LocalFraction >= 1 {
		threshold = math.MaxUint64
	} else {
		threshold = uint64(cfg.LocalFraction * float64(math.MaxUint64))
	}
	return &TieredCache{
		inner:     NewEstimateCache(cfg.Capacity),
		cfg:       cfg,
		threshold: threshold,
	}
}

// classify tallies one lookup of key against the tier model.
func (c *TieredCache) classify(key string) {
	h := fnv.New64a()
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], uint64(c.cfg.Seed))
	h.Write(seed[:])
	h.Write([]byte(key))
	// FNV alone is biased on structured keys sharing long prefixes;
	// a splitmix-style avalanche spreads the classification evenly.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x < c.threshold {
		c.localLookups.Add(1)
	} else {
		c.remoteLookups.Add(1)
	}
}

func (c *TieredCache) getOrCompute(ctx context.Context, key string, compute func() (*sample.Estimates, error)) (*sample.Estimates, error) {
	c.classify(key)
	return c.inner.getOrCompute(ctx, key, compute)
}

func (c *TieredCache) getOrComputePass(ctx context.Context, key string, compute func() (*sample.Pass, error)) (*sample.Pass, error) {
	c.classify(key)
	return c.inner.getOrComputePass(ctx, key, compute)
}

func (c *TieredCache) getOrComputeRun(ctx context.Context, key string, compute func() (*engine.OpResult, error)) (*engine.OpResult, error) {
	c.classify(key)
	return c.inner.getOrComputeRun(ctx, key, compute)
}

// Stats aggregates the inner store's counters; the tier split is
// reported separately by TierStats.
func (c *TieredCache) Stats() CacheStats { return c.inner.Stats() }

// TierStats snapshots the tier counters and the modeled remote cost.
func (c *TieredCache) TierStats() TierStats {
	remote := c.remoteLookups.Load()
	return TierStats{
		LocalLookups:         c.localLookups.Load(),
		RemoteLookups:        remote,
		LocalFraction:        c.cfg.LocalFraction,
		RemoteLatencySeconds: c.cfg.RemoteLatency,
		ModeledRemoteSeconds: float64(remote) * c.cfg.RemoteLatency,
	}
}
