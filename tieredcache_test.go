package uaqetp

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cache"
)

// keyRecord is the key record a lookup of key in a cache with tier
// tally tier carries.
func keyRecord(key string, tier *tierTally) *planKey {
	k := newKey("", key, tier)
	return &k
}

// TestTieredCacheClassification pins the tier model: classification is
// a pure function of (key, seed), the extremes of LocalFraction send
// every lookup to one tier, and the modeled remote cost is exactly
// remote lookups times the configured per-lookup latency.
func TestTieredCacheClassification(t *testing.T) {
	ctx := context.Background()
	compute := func() (*Estimates, error) { return &Estimates{}, nil }

	allLocal := NewTieredCache(TierConfig{LocalFraction: 1, RemoteLatency: 0.01, Seed: 7})
	allRemote := NewTieredCache(TierConfig{LocalFraction: 0, RemoteLatency: 0.01, Seed: 7})
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%03d", i)
		if _, err := allLocal.plans.get(ctx, keyRecord(key, nil), compute); err != nil {
			t.Fatal(err)
		}
		if _, err := allRemote.plans.get(ctx, keyRecord(key, nil), compute); err != nil {
			t.Fatal(err)
		}
	}
	if st, _ := allLocal.TierStats(); st.LocalLookups != 100 || st.RemoteLookups != 0 {
		t.Fatalf("LocalFraction=1: got %d local / %d remote lookups", st.LocalLookups, st.RemoteLookups)
	}
	st, ok := allRemote.TierStats()
	if !ok {
		t.Fatal("NewTieredCache built a cache without a tier tally")
	}
	if st.LocalLookups != 0 || st.RemoteLookups != 100 {
		t.Fatalf("LocalFraction=0: got %d local / %d remote lookups", st.LocalLookups, st.RemoteLookups)
	}
	if want := 100 * 0.01; st.ModeledRemoteSeconds != want {
		t.Fatalf("modeled remote seconds = %g, want %g", st.ModeledRemoteSeconds, want)
	}
	if _, ok := NewEstimateCache(8).TierStats(); ok {
		t.Fatal("NewEstimateCache built a cache with a tier tally")
	}
}

// TestTieredCacheClassificationPinned holds the allocation-free
// classification hash to the hash/fnv-based one it replaced: for 64
// fixed keys at two seeds (a negative one, so every seed byte is
// non-zero), which keys classify as local (bit i of the mask = key i)
// and the resulting counts are literals captured at commit 6dfc722,
// where classify ran fnv.New64a over the seed bytes and []byte(key).
// The keys carry their tier hash, as a plan's memoized key does.
func TestTieredCacheClassificationPinned(t *testing.T) {
	ctx := context.Background()
	compute := func() (*Estimates, error) { return &Estimates{}, nil }
	for _, want := range []struct {
		seed          int64
		mask          uint64
		local, remote uint64
	}{
		{7, 0xc5677a2b28e0d941, 30, 34},
		{-3, 0x786891e4211a1a38, 25, 39},
	} {
		c := NewTieredCache(TierConfig{LocalFraction: 0.5, Seed: want.seed})
		var mask uint64
		for i := 0; i < 64; i++ {
			before, _ := c.TierStats()
			key := fmt.Sprintf("uniform-1G|0.05|%d\x00join(scan(t%d),scan(t%d))", i%3, i, i*i)
			if _, err := c.plans.get(ctx, keyRecord(key, c.tier), compute); err != nil {
				t.Fatal(err)
			}
			if after, _ := c.TierStats(); after.LocalLookups > before.LocalLookups {
				mask |= 1 << i
			}
		}
		st, _ := c.TierStats()
		if mask != want.mask || st.LocalLookups != want.local || st.RemoteLookups != want.remote {
			t.Errorf("seed %d: local mask %#016x (%d local / %d remote), want %#016x (%d / %d)",
				want.seed, mask, st.LocalLookups, st.RemoteLookups, want.mask, want.local, want.remote)
		}
	}
}

// TestTierHashMemo: a key record classifies by the tier hash it carries
// only under the seed it was built for; under any other seed, or built
// without one, the tally hashes the key itself, so every key lands in
// the same tier however its record was made. A plan's memoized record
// is rebuilt when the plan is looked up under another seed.
func TestTierHashMemo(t *testing.T) {
	ctx := context.Background()
	compute := func() (*Estimates, error) { return &Estimates{}, nil }
	caches := []*EstimateCache{
		NewTieredCache(TierConfig{LocalFraction: 0.5, Seed: 7}),
		NewTieredCache(TierConfig{LocalFraction: 0.5, Seed: -3}),
	}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("ns\x00sig-%d", i)
		var tiers [2][3]bool
		for ci, c := range caches {
			for bi, tier := range []*tierTally{c.tier, caches[1-ci].tier, nil} {
				before, _ := c.TierStats()
				if _, err := c.plans.get(ctx, keyRecord(key, tier), compute); err != nil {
					t.Fatal(err)
				}
				after, _ := c.TierStats()
				tiers[ci][bi] = after.LocalLookups > before.LocalLookups
			}
			if tiers[ci][1] != tiers[ci][0] || tiers[ci][2] != tiers[ci][0] {
				t.Errorf("seed %d, key %q: local %v by its own record, %v by another seed's, %v untiered",
					c.tier.cfg.Seed, key, tiers[ci][0], tiers[ci][1], tiers[ci][2])
			}
		}
	}

	sys, err := Open(Config{DB: Uniform1G, SamplingRatio: 0.05, Seed: 11, Cache: caches[0]})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.Planner().BuildPlan(ctx, joinQuery())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range caches {
		k := p.key(&p.est, "ns", c.tier)
		if !k.tiered || k.tierSeed != c.tier.cfg.Seed || k.tierHash != cache.SeededHash(c.tier.cfg.Seed, k.key) {
			t.Errorf("plan key under seed %d: %+v", c.tier.cfg.Seed, k)
		}
		if again := p.key(&p.est, "ns", c.tier); again != k {
			t.Errorf("plan key under seed %d rebuilt on a repeat lookup", c.tier.cfg.Seed)
		}
	}
}

// TestTieredCacheDeterministicSplit pins that the key-space split is
// deterministic per seed (two caches with the same config tally the
// same way over the same keys), roughly proportional to LocalFraction,
// and order-independent: a parallel replay of the same lookups lands
// on identical tier counters, so a sharded simulator report does not
// depend on how batched predictions interleave.
func TestTieredCacheDeterministicSplit(t *testing.T) {
	ctx := context.Background()
	compute := func() (*Estimates, error) { return &Estimates{}, nil }
	cfg := TierConfig{LocalFraction: 0.75, RemoteLatency: 0.002, Seed: 42}

	keys := make([]string, 2000)
	for i := range keys {
		keys[i] = fmt.Sprintf("plan|%d|sig-%04d", i%7, i)
	}

	serial := NewTieredCache(cfg)
	for _, k := range keys {
		if _, err := serial.plans.get(ctx, keyRecord(k, nil), compute); err != nil {
			t.Fatal(err)
		}
	}
	parallel := NewTieredCache(cfg)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += 8 {
				if _, err := parallel.plans.get(ctx, keyRecord(keys[i], nil), compute); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()

	ss, _ := serial.TierStats()
	ps, _ := parallel.TierStats()
	if ss != ps {
		t.Fatalf("tier stats differ between serial and parallel replay:\n serial  %+v\n parallel %+v", ss, ps)
	}
	frac := float64(ss.LocalLookups) / float64(ss.LocalLookups+ss.RemoteLookups)
	if frac < 0.70 || frac > 0.80 {
		t.Fatalf("local fraction %g far from configured 0.75", frac)
	}
}

// TestTieredCacheServesThroughSystem pins that a cache with a tier
// tally is a drop-in Config.Cache: values resolve correctly through it
// and its hit counters move exactly as an untallied cache's would.
func TestTieredCacheServesThroughSystem(t *testing.T) {
	tc := NewTieredCache(TierConfig{LocalFraction: 0.5, RemoteLatency: 0.001, Seed: 1})
	sys, err := Open(Config{DB: Uniform1G, SamplingRatio: 0.05, Seed: 11, Cache: tc})
	if err != nil {
		t.Fatal(err)
	}
	q := joinQuery()
	first, err := sys.PredictContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sys.PredictContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Dist.Mu != second.Dist.Mu {
		t.Fatalf("tiered cache changed prediction: %g vs %g", first.Dist.Mu, second.Dist.Mu)
	}
	if st := tc.Stats(); st.Hits == 0 {
		t.Fatal("repeat prediction did not hit the tiered cache")
	}
	if ts, _ := tc.TierStats(); ts.LocalLookups+ts.RemoteLookups == 0 {
		t.Fatal("no lookups tallied against the tier model")
	}
}
