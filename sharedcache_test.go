package uaqetp

import (
	"context"
	"math"
	"testing"

	"repro/internal/workload"
)

// openShared opens two Systems with identical configs on one shared
// cache, as the serving layer does for two tenants over the same
// catalog.
func openShared(t *testing.T) (*System, *System, *EstimateCache) {
	t.Helper()
	shared := NewEstimateCache(128)
	cfg := DefaultConfig()
	cfg.Cache = shared
	a, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, b, shared
}

func TestSharedCacheCrossSystemHits(t *testing.T) {
	a, b, shared := openShared(t)
	qs, err := a.GenerateWorkload(workload.SelJoin, 6)
	if err != nil {
		t.Fatal(err)
	}
	predsA, err := a.PredictBatchContext(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	afterA := shared.Stats()
	if afterA.Hits+afterA.Misses == 0 {
		t.Fatal("no cache traffic from tenant A")
	}

	// Tenant B predicts the same workload: every sampling pass must be a
	// cross-tenant hit — no new misses — and the predictions must be
	// identical (shared estimates, same calibration seeds).
	predsB, err := b.PredictBatchContext(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	afterB := shared.Stats()
	if afterB.Misses != afterA.Misses {
		t.Errorf("tenant B caused %d fresh sampling passes, want 0 (misses %d -> %d)",
			afterB.Misses-afterA.Misses, afterA.Misses, afterB.Misses)
	}
	if afterB.Hits <= afterA.Hits {
		t.Errorf("no cross-tenant hits: hits %d -> %d", afterA.Hits, afterB.Hits)
	}
	// Map-iteration order inside the covariance engine permutes float
	// products, so equality holds up to roundoff (as in the exper tests).
	eq := func(x, y float64) bool {
		d := x - y
		if d < 0 {
			d = -d
		}
		m := math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
		return d <= 1e-12*m
	}
	for i := range predsA {
		if !eq(predsA[i].Mean(), predsB[i].Mean()) || !eq(predsA[i].Sigma(), predsB[i].Sigma()) {
			t.Errorf("query %d: tenant predictions differ: %v vs %v",
				i, predsA[i].Dist, predsB[i].Dist)
		}
	}
}

func TestSharedCacheNamespacesIncompatibleConfigs(t *testing.T) {
	shared := NewEstimateCache(128)
	cfg := DefaultConfig()
	cfg.Cache = shared
	a, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.SamplingRatio = 0.02 // different samples: must not share passes
	b, err := Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := a.GenerateWorkload(workload.SelJoin, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.PredictBatchContext(context.Background(), qs); err != nil {
		t.Fatal(err)
	}
	misses := shared.Stats().Misses
	if _, err := b.PredictBatchContext(context.Background(), qs); err != nil {
		t.Fatal(err)
	}
	after := shared.Stats()
	if after.Misses == misses {
		t.Error("incompatible tenant shared sampling passes: no fresh misses")
	}
}

func TestWithVariantSharesCacheAndDiffers(t *testing.T) {
	sys, err := Open(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	qs, err := sys.GenerateWorkload(workload.SelJoin, 4)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sys.PredictBatchContext(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	misses := sys.CacheStats().Misses

	noc := sys.WithVariant(NoVarC)
	derived, err := noc.PredictBatchContext(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	// The variant system shares the estimate cache, so no new sampling
	// passes run...
	if after := sys.CacheStats().Misses; after != misses {
		t.Errorf("variant system re-ran %d sampling passes", after-misses)
	}
	// ...but drops Var[c], so its sigmas must shrink.
	var sBase, sNoC float64
	for i := range base {
		sBase += base[i].Sigma()
		sNoC += derived[i].Sigma()
	}
	if sNoC >= sBase {
		t.Errorf("NoVar[c] sigma sum %v not below All %v", sNoC, sBase)
	}
	if same := sys.WithVariant(All); same != sys {
		t.Error("WithVariant(same) should return the receiver")
	}
}

func TestPredictionPerUnitSumsToMean(t *testing.T) {
	sys, err := Open(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	qs, err := sys.GenerateWorkload(workload.SelJoin, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		pred, err := sys.PredictContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, v := range pred.PerUnit {
			if v < 0 {
				t.Errorf("%s: negative per-unit mean %v", q.Name, v)
			}
			sum += v
		}
		if rel := (sum - pred.Mean()) / pred.Mean(); rel > 1e-9 || rel < -1e-9 {
			t.Errorf("%s: per-unit sum %v != mean %v", q.Name, sum, pred.Mean())
		}
		if du := pred.DominantUnit(); pred.PerUnit[du] <= 0 {
			t.Errorf("%s: dominant unit %v has zero share", q.Name, du)
		}
	}
}
