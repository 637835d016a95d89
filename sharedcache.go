package uaqetp

import (
	"context"
	"errors"
	"fmt"
	"sync"

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
// the run-result section memoizing plan executions (engine.Run), whose
// keys are machine- and sampling-ratio-independent, so experiment grids
// over several machine profiles execute each plan once.
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

// flightGroup coalesces concurrent computations per key in front of a
// sharded LRU: one caller computes, everyone else waits for its result
// and — having computed nothing — counts as a hit, not a miss. Failed
// computations are not cached.
//
// Cancellation is per caller, not per flight: a computation runs under
// the context of whichever caller started it, so when that caller
// cancels mid-compute the flight fails with a context error — but a
// waiter whose own context is still live does not inherit the failure.
// It loops back, finds the flight gone, and computes under its own
// context (re-coalescing with any other retriers). A waiter whose own
// context fires while waiting abandons the flight with its own ctx.Err.
type flightGroup[V any] struct {
	mu sync.Mutex
	m  map[string]*flight[V]
}

// isContextErr reports whether a computation failed because some
// context fired (rather than because the work itself is faulty).
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (g *flightGroup[V]) do(ctx context.Context, key string, lru *cache.Sharded[V], compute func() (V, error)) (V, error) {
	for {
		if v, ok := lru.Get(key); ok {
			return v, nil
		}
		g.mu.Lock()
		if g.m == nil {
			g.m = make(map[string]*flight[V])
		}
		if f, ok := g.m[key]; ok {
			g.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				var zero V
				return zero, ctx.Err()
			}
			if f.err == nil {
				// Served by the flight: the Get above counted a miss for
				// work this caller never did.
				lru.Coalesced(key)
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
		g.m[key] = f
		g.mu.Unlock()

		f.val, f.err = compute()
		if f.err == nil {
			lru.Put(key, f.val)
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(f.done)
		return f.val, f.err
	}
}

// EstimateCache is the cache seam of the serving stack: the three
// memoization sections every System resolves through — whole-plan
// sampling passes ("estimate"), subplan passes ("subtree"), and plan
// executions ("run") — behind one interface, so the storage tier is a
// Config.Cache choice rather than a hard-wired in-process LRU. The
// in-process tier is MemoryCache (NewEstimateCache); TieredCache wraps
// it with a simulated remote tier (deterministic hit-rate + latency
// model) for sharded-serving scenarios where part of the key space
// would live off-box. The section methods are unexported on purpose:
// implementations live in this package, next to the key construction
// they must respect, while every consumer (serve, sim, exper) depends
// only on the interface.
type EstimateCache interface {
	getOrCompute(ctx context.Context, key string, compute func() (*sample.Estimates, error)) (*sample.Estimates, error)
	getOrComputePass(ctx context.Context, key string, compute func() (*sample.Pass, error)) (*sample.Pass, error)
	getOrComputeRun(ctx context.Context, key string, compute func() (*engine.OpResult, error)) (*engine.OpResult, error)
	// Stats aggregates the hit/miss/eviction counters of all sections.
	Stats() CacheStats
}

// MemoryCache is the in-process EstimateCache tier: it memoizes
// sampling work by namespaced key in sharded LRU sections — whole-plan
// passes by canonical plan signature, and subplan passes by canonical
// subtree signature (so alternative join orders share their common
// subtrees' work even though their whole-plan signatures differ). A
// single cache may back many Systems: tenants whose configurations
// generate the same database and samples (same DB kind, sampling ratio,
// and seed) share both sections, which is the point of multi-tenant
// serving over a common catalog. Concurrent requests for the same key —
// from one System or several — are coalesced onto a single computation.
//
// Estimates and passes are immutable once built, so a cached value may
// be served to any number of concurrent readers.
type MemoryCache struct {
	plans  *cache.Sharded[*sample.Estimates]
	passes *cache.Sharded[*sample.Pass]
	runs   *cache.Sharded[*engine.OpResult]

	planFlight flightGroup[*sample.Estimates]
	passFlight flightGroup[*sample.Pass]
	runFlight  flightGroup[*engine.OpResult]
}

// NewEstimateCache returns the in-process cache tier: a sharded
// estimate cache holding at most capacity whole-plan passes (and
// passCapacityFactor times as many subtree passes) across
// DefaultCacheShards shards; capacity < 1 selects the per-System
// default.
func NewEstimateCache(capacity int) *MemoryCache {
	if capacity < 1 {
		capacity = estimateMemoSize
	}
	return &MemoryCache{
		plans:  cache.NewSharded[*sample.Estimates](capacity, DefaultCacheShards),
		passes: cache.NewSharded[*sample.Pass](capacity*passCapacityFactor, DefaultCacheShards),
		runs:   cache.NewSharded[*engine.OpResult](capacity, DefaultCacheShards),
	}
}

// getOrCompute returns the cached whole-plan estimates for key,
// computing and caching them via compute on a miss. Concurrent callers
// with the same key wait for one computation instead of racing.
func (c *MemoryCache) getOrCompute(ctx context.Context, key string, compute func() (*sample.Estimates, error)) (*sample.Estimates, error) {
	return c.planFlight.do(ctx, key, c.plans, compute)
}

// getOrComputePass is getOrCompute for the subtree-pass section.
func (c *MemoryCache) getOrComputePass(ctx context.Context, key string, compute func() (*sample.Pass, error)) (*sample.Pass, error) {
	return c.passFlight.do(ctx, key, c.passes, compute)
}

// getOrComputeRun is getOrCompute for the run-result section: plan
// executions (engine.Run) memoized under machine-independent keys.
func (c *MemoryCache) getOrComputeRun(ctx context.Context, key string, compute func() (*engine.OpResult, error)) (*engine.OpResult, error) {
	return c.runFlight.do(ctx, key, c.runs, compute)
}

// Stats aggregates the hit/miss/eviction counters of all sections
// across shards.
func (c *MemoryCache) Stats() CacheStats {
	p := c.plans.Snapshot()
	sp := c.passes.Snapshot()
	rn := c.runs.Snapshot()
	return CacheStats{
		Hits: p.Hits, Misses: p.Misses, Evictions: p.Evictions,
		Entries: p.Entries, Shards: c.plans.NumShards(),
		SubtreeHits: sp.Hits, SubtreeMisses: sp.Misses,
		SubtreeEvictions: sp.Evictions, SubtreeEntries: sp.Entries,
		RunHits: rn.Hits, RunMisses: rn.Misses,
		RunEvictions: rn.Evictions, RunEntries: rn.Entries,
	}
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
// sampling ratio do not enter — run results (cardinalities, resource
// counts, output relations) are identical across them — so experiment
// grids over several machines or sampling ratios execute each distinct
// plan once and share the result through the cache's run section.
func runNamespace(cfg Config) string {
	return fmt.Sprintf("%v|%d", cfg.DB, cfg.Seed)
}
