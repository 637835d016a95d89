package uaqetp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/sample"
)

// DefaultCacheShards is the shard count of an EstimateCache: enough to
// keep a handful of tenants from contending on one lock without wasting
// capacity granularity.
const DefaultCacheShards = 16

// passCapacityFactor sizes the subtree-pass section relative to the
// whole-plan section: a plan holds a handful of cacheable subplans, so
// the pass LRU needs proportionally more entries to keep a plan's
// subtrees resident alongside the plan itself.
const passCapacityFactor = 4

// CacheStats is a point-in-time snapshot of an EstimateCache's counters,
// aggregated across shards. Hits/Misses/Evictions/Entries cover the
// whole-plan section; the Subtree* counters cover the subplan-pass
// section that AlternativesContext and ChoosePlanContext lean on when
// candidate join orders share lower subtrees; the Run* counters cover
// the run-result section memoizing plan executions (engine.Run) —
// per-operator cardinalities, selectivities and resource counts, never
// rows, which the executor does not build — whose keys are machine- and
// sampling-ratio-independent, so experiment grids over several machine
// profiles execute each plan once.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Shards    int    `json:"shards"`

	SubtreeHits      uint64 `json:"subtree_hits"`
	SubtreeMisses    uint64 `json:"subtree_misses"`
	SubtreeEvictions uint64 `json:"subtree_evictions"`
	SubtreeEntries   int    `json:"subtree_entries"`

	RunHits      uint64 `json:"run_hits"`
	RunMisses    uint64 `json:"run_misses"`
	RunEvictions uint64 `json:"run_evictions"`
	RunEntries   int    `json:"run_entries"`
}

// flight is one in-progress computation; waiters block on done.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// isContextErr reports whether a computation failed because some
// context fired (rather than because the work itself is faulty).
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// planKey is a cache key record: the key (a plan's ns+"\x00"+sig, or a
// subtree pass's namespaced key) with its cache.Hash and, when it was
// built for a tiered cache, its tier hash under that cache's seed.
type planKey struct {
	ns, key string
	hash    uint64
	// tierHash is cache.SeededHash(tierSeed, key), valid when tiered.
	tierHash uint64
	tierSeed int64
	tiered   bool
}

// newKey builds the key record of key (namespace ns) for a cache whose
// tier tally is tier; a nil tier leaves the tier hash unset.
func newKey(ns, key string, tier *tierTally) planKey {
	k := planKey{ns: ns, key: key, hash: cache.Hash(key)}
	if tier != nil {
		k.tierHash, k.tierSeed, k.tiered = cache.SeededHash(tier.cfg.Seed, key), tier.cfg.Seed, true
	}
	return k
}

// section is one keyed memo of an EstimateCache: a sharded LRU with a
// flight group in front that coalesces concurrent computations per key —
// one caller computes, everyone else waits for its result and, having
// computed nothing, counts as a hit, not a miss. Failed computations
// are not cached.
//
// Cancellation is per caller, not per flight: a computation runs under
// the context of whichever caller started it, so when that caller
// cancels mid-compute the flight fails with a context error — but a
// waiter whose own context is still live does not inherit the failure.
// It loops back, finds the flight gone, and computes under its own
// context (re-coalescing with any other retriers). A waiter whose own
// context fires while waiting abandons the flight with its own ctx.Err.
type section[V any] struct {
	lru *cache.Sharded[V]
	// tier is the owning cache's tier tally; nil counts nothing.
	tier *tierTally

	mu      sync.Mutex
	flights map[string]*flight[V]
}

func newSection[V any](capacity int, tier *tierTally) *section[V] {
	return &section[V]{
		lru:     cache.NewSharded[V](capacity, DefaultCacheShards),
		tier:    tier,
		flights: make(map[string]*flight[V]),
	}
}

// get returns the cached value for k's key, computing and caching it
// via compute on a miss. Concurrent callers with the same key wait for
// one computation instead of racing.
func (s *section[V]) get(ctx context.Context, k *planKey, compute func() (V, error)) (V, error) {
	s.tier.classify(k)
	key, h := k.key, k.hash
	for {
		if v, ok := s.lru.Get(key, h); ok {
			return v, nil
		}
		s.mu.Lock()
		if f, ok := s.flights[key]; ok {
			s.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				var zero V
				return zero, ctx.Err()
			}
			if f.err == nil {
				// Served by the flight: the Get above counted a miss for
				// work this caller never did.
				s.lru.Coalesced(h)
				return f.val, nil
			}
			if isContextErr(f.err) && ctx.Err() == nil {
				// The computing caller was canceled, not us: retry under
				// our own context instead of inheriting its failure.
				continue
			}
			return f.val, f.err
		}
		f := &flight[V]{done: make(chan struct{})}
		s.flights[key] = f
		s.mu.Unlock()

		f.val, f.err = compute()
		if f.err == nil {
			s.lru.Put(key, h, f.val)
		}
		s.mu.Lock()
		delete(s.flights, key)
		s.mu.Unlock()
		close(f.done)
		return f.val, f.err
	}
}

// EstimateCache memoizes the three kinds of work every System resolves
// through — whole-plan sampling passes ("estimate"), subplan passes
// ("subtree"), and plan executions ("run") — by namespaced key in
// sharded LRU sections: whole-plan passes by canonical plan signature,
// subplan passes by canonical subtree signature (so alternative join
// orders share their common subtrees' work even though their whole-plan
// signatures differ), executions by a machine-independent run key. A
// single cache may back many Systems (Config.Cache): tenants whose
// configurations generate the same database and samples (same DB kind,
// sampling ratio, and seed) share the sections, which is the point of
// multi-tenant serving over a common catalog. Concurrent requests for
// the same key — from one System or several — are coalesced onto a
// single computation.
//
// Estimates, passes and run results are immutable once built, so a
// cached value may be served to any number of concurrent readers.
//
// A cache built by NewTieredCache additionally tallies every lookup
// against a deterministic model of a two-tier (in-process + remote)
// deployment; see TierConfig and TierStats. The tally never changes
// what is stored or served.
type EstimateCache struct {
	plans  *section[*Estimates]
	passes *section[*sample.Pass]
	runs   *section[*engine.OpResult]

	// tier is nil unless the cache was built by NewTieredCache.
	tier *tierTally
}

// NewEstimateCache returns a sharded estimate cache holding at most
// capacity whole-plan passes and run results (and passCapacityFactor
// times as many subtree passes) across DefaultCacheShards shards;
// capacity < 1 selects the per-System default.
func NewEstimateCache(capacity int) *EstimateCache {
	return newCache(capacity, nil)
}

func newCache(capacity int, tier *tierTally) *EstimateCache {
	if capacity < 1 {
		capacity = estimateMemoSize
	}
	return &EstimateCache{
		plans:  newSection[*Estimates](capacity, tier),
		passes: newSection[*sample.Pass](capacity*passCapacityFactor, tier),
		runs:   newSection[*engine.OpResult](capacity, tier),
		tier:   tier,
	}
}

// Stats aggregates the hit/miss/eviction counters of all sections
// across shards; the tier split is reported separately by TierStats.
func (c *EstimateCache) Stats() CacheStats {
	p := c.plans.lru.Snapshot()
	sp := c.passes.lru.Snapshot()
	rn := c.runs.lru.Snapshot()
	return CacheStats{
		Hits: p.Hits, Misses: p.Misses, Evictions: p.Evictions,
		Entries: p.Entries, Shards: c.plans.lru.NumShards(),
		SubtreeHits: sp.Hits, SubtreeMisses: sp.Misses,
		SubtreeEvictions: sp.Evictions, SubtreeEntries: sp.Entries,
		RunHits: rn.Hits, RunMisses: rn.Misses,
		RunEvictions: rn.Evictions, RunEntries: rn.Entries,
	}
}

// TierConfig shapes the tier tally of a cache built by NewTieredCache:
// what fraction of the key space is resident in the local (in-process)
// tier, and what each lookup that has to go to the remote tier costs.
type TierConfig struct {
	// LocalFraction is the fraction of the key space classified as
	// local-tier resident, in [0, 1]. Clamped; 1 makes every lookup
	// local.
	LocalFraction float64 `json:"local_fraction"`
	// RemoteLatency is the modeled cost, in seconds, of one lookup
	// that resolves through the remote tier.
	RemoteLatency float64 `json:"remote_latency"`
	// Seed salts the key-space classification so distinct deployments
	// partition differently but each is deterministic.
	Seed int64 `json:"seed"`
	// Capacity sizes the cache as NewEstimateCache's argument does; <1
	// selects the default.
	Capacity int `json:"capacity,omitempty"`
}

// TierStats is a point-in-time snapshot of a cache's tier counters.
// ModeledRemoteSeconds is the aggregate modeled cost of all remote-tier
// lookups so far (RemoteLookups times the configured per-lookup
// latency) — a report field, not wall time spent.
type TierStats struct {
	LocalLookups         uint64  `json:"local_lookups"`
	RemoteLookups        uint64  `json:"remote_lookups"`
	LocalFraction        float64 `json:"local_fraction"`
	RemoteLatencySeconds float64 `json:"remote_latency_seconds"`
	ModeledRemoteSeconds float64 `json:"modeled_remote_seconds"`
}

// tierTally models a two-tier (in-process + remote) deployment over the
// one in-process store: each key is deterministically classified, by a
// seeded hash of the key against LocalFraction, as local- or
// remote-resident, and lookups are tallied per tier. The modeled remote
// cost is derived from the counters at read time (remote ×
// RemoteLatency), so the aggregate is a pure sum of atomic increments:
// independent of the order concurrent callers (batched predictions,
// several Systems sharing the cache) interleave in, so the tier
// counters of a report depend only on which keys were looked up.
type tierTally struct {
	cfg TierConfig
	// threshold is the cut in hash space below which a key classifies as
	// local.
	threshold uint64

	local  atomic.Uint64
	remote atomic.Uint64
}

// NewTieredCache returns an EstimateCache that also keeps the tier
// tally cfg describes. The local fraction is clamped to [0, 1].
func NewTieredCache(cfg TierConfig) *EstimateCache {
	if cfg.LocalFraction < 0 {
		cfg.LocalFraction = 0
	}
	if cfg.LocalFraction > 1 {
		cfg.LocalFraction = 1
	}
	t := &tierTally{cfg: cfg, threshold: math.MaxUint64}
	if cfg.LocalFraction < 1 {
		t.threshold = uint64(cfg.LocalFraction * float64(math.MaxUint64))
	}
	return newCache(cfg.Capacity, t)
}

// hashed reports whether k carries its tier hash under t's seed; with
// no tier model there is nothing to carry.
func (t *tierTally) hashed(k *planKey) bool {
	return t == nil || k.tiered && k.tierSeed == t.cfg.Seed
}

// classify tallies one lookup of k's key, by the tier hash k carries
// when it was built for this seed; a nil tally (no tier model) counts
// nothing.
func (t *tierTally) classify(k *planKey) {
	if t == nil {
		return
	}
	h := k.tierHash
	if !t.hashed(k) {
		h = cache.SeededHash(t.cfg.Seed, k.key)
	}
	if h < t.threshold {
		t.local.Add(1)
	} else {
		t.remote.Add(1)
	}
}

// TierStats snapshots the tier counters and the modeled remote cost;
// ok is false for a cache without a tier tally (NewEstimateCache).
func (c *EstimateCache) TierStats() (st TierStats, ok bool) {
	t := c.tier
	if t == nil {
		return TierStats{}, false
	}
	remote := t.remote.Load()
	return TierStats{
		LocalLookups:         t.local.Load(),
		RemoteLookups:        remote,
		LocalFraction:        t.cfg.LocalFraction,
		RemoteLatencySeconds: t.cfg.RemoteLatency,
		ModeledRemoteSeconds: float64(remote) * t.cfg.RemoteLatency,
	}, true
}

// estimateNamespace fingerprints everything that determines a sampling
// pass besides the plan itself: the generated database (DB kind + seed)
// and the offline samples drawn from it (sampling ratio). Machine and
// predictor variant do not enter — estimates are identical across them,
// so tenants differing only there still share passes.
func estimateNamespace(cfg Config) string {
	return fmt.Sprintf("%v|%g|%d", cfg.DB, cfg.SamplingRatio, cfg.Seed)
}

// runNamespace fingerprints everything that determines a plan execution
// (engine.Run): the generated database only. Machine profile and
// sampling ratio do not enter — run results (cardinalities,
// selectivities, resource counts) are identical across them — so
// experiment grids over several machines or sampling ratios execute each
// distinct plan once and share the result through the cache's run
// section.
func runNamespace(cfg Config) string {
	return fmt.Sprintf("%v|%d", cfg.DB, cfg.Seed)
}
