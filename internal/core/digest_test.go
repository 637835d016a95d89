package core

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"repro/internal/calibrate"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/stats"
	"repro/internal/workload"
)

// genPlans generates nEach SelJoin and nEach TPCH queries against a
// generated database of the given kind, planned with plan.Build, and
// their memo-less sampling estimates (default ratio, default copies) —
// the same plans on the same samples as internal/sample's digest test.
// The SelJoin plans come first.
func genPlans(tb testing.TB, kind datagen.DBKind, nEach int) ([]*engine.Node, []*sample.Estimates, *catalog.Catalog) {
	tb.Helper()
	const seed = 11
	db := datagen.Generate(datagen.ConfigFor(kind, seed))
	cat := catalog.Build(db)
	sdb, err := sample.Build(db, 0.05, sample.DefaultCopies, seed+2)
	if err != nil {
		tb.Fatal(err)
	}
	var plans []*engine.Node
	var ests []*sample.Estimates
	for _, b := range []workload.Benchmark{workload.SelJoin, workload.TPCH} {
		qs, err := workload.Generate(b, cat, nEach, seed+3)
		if err != nil {
			tb.Fatal(err)
		}
		for _, q := range qs {
			p, err := plan.Build(q, cat)
			if err != nil {
				tb.Fatalf("%v %s: %v", b, q.Name, err)
			}
			est, err := sample.Estimate(p, sdb, cat)
			if err != nil {
				tb.Fatalf("%v %s: %v", b, q.Name, err)
			}
			plans = append(plans, p)
			ests = append(ests, est)
		}
	}
	return plans, ests, cat
}

// pinnedUnits calibrates PC1 with a fixed seed: the cost units every
// pinned prediction is made under.
func pinnedUnits(tb testing.TB) [hardware.NumUnits]stats.Normal {
	tb.Helper()
	cal, err := calibrate.Run(hardware.PC1(), calibrate.DefaultConfig(2))
	if err != nil {
		tb.Fatal(err)
	}
	return cal.Units
}

// digestPrediction writes every field of pred into h, every float as %x.
func digestPrediction(h hash.Hash, pred *Prediction) {
	fmt.Fprintf(h, "%x %x %x %x", pred.Dist.Mu, pred.Dist.Sigma, pred.CovDirect, pred.CovBound)
	for _, u := range pred.PerUnit {
		fmt.Fprintf(h, " %x", u)
	}
	for _, op := range pred.PerOperator {
		fmt.Fprintf(h, " %d/%d %x %x", op.NodeID, op.Kind, op.Mean, op.Var)
	}
	fmt.Fprintln(h)
}

// Digests of TestPredictionDigestPinned, captured at f153026 from the
// predictor whose sample → costmodel → core hand-off was keyed by
// map[int] — before slices indexed by node ID and leaf ordinal replaced
// the maps.
var pinnedPredictionDigests = map[string]string{
	"All":            "d6e7fd5f063b01ddb630a702168c88c5b727381c6928e9dc37134bcbf0325b3c",
	"All/loose":      "0c0124179624529d90db656e98bf137953a4efda794c3b1d6fe4e0b79dde68cc",
	"NoVar[c]":       "8e03df970cc9f0426e7cac42ea36b8069485a80448839cbc70108d6b9543b84c",
	"NoVar[c]/loose": "b8016d223d3d9061cf82ae386f5a69496b5f9a67d2b99ddca5e07d56b3c001ed",
	"NoVar[X]":       "ef93a4a758f10d456f3cf70a5f73d5c21f42580a348d12045bcb507b577d967d",
	"NoVar[X]/loose": "5714e38be3d96b4d3e049a0d153e9aabe1faf29babac7870c9e264890f671560",
	"NoCov":          "4691ad329f976787cf4799e32eb81664708f1d677405f19155c8c747ef46c5c9",
	"NoCov/loose":    "4691ad329f976787cf4799e32eb81664708f1d677405f19155c8c747ef46c5c9",
	"histogram":      "7a10899e19a25b7b5c6f67f2e15671ecacfb8dc89ee6dfdc4ab616cc3bffa9e1",
	"montecarlo":     "6b75df86912b0c3fd6ee9f2cb5699ba7eaaa98b819ac8209d3e5849aa592dae1",
}

// TestPredictionDigestPinned is the predictor's oracle on inputs nobody
// wrote: 256 SelJoin and 256 TPCH generated plans on uniform-1G and on
// skewed-1G samples, predicted under every variant with the tight and
// the loose covariance bounds, every field of every Prediction hashed;
// plus, on the first 32 plans of each set, the histogram estimator's
// estimates through every configuration and a fixed-seed 2,000-draw
// Monte-Carlo prediction (mean, variance) under every variant. A change
// to sample, costmodel or core must leave the literals untouched; do not
// re-capture without a reason in CHANGES.md.
func TestPredictionDigestPinned(t *testing.T) {
	const nEach, nSmall = 256, 32
	type config struct {
		name string
		cfg  Config
	}
	var configs []config
	for _, v := range []Variant{All, NoVarC, NoVarX, NoCov} {
		configs = append(configs,
			config{v.String(), Config{Variant: v}},
			config{v.String() + "/loose", Config{Variant: v, LooseBounds: true}})
	}
	digests := make(map[string]hash.Hash)
	for name := range pinnedPredictionDigests {
		digests[name] = sha256.New()
	}
	units := pinnedUnits(t)
	for _, kind := range []datagen.DBKind{datagen.Uniform1G, datagen.Skewed1G} {
		plans, ests, cat := genPlans(t, kind, nEach)
		for _, c := range configs {
			p := New(cat, units, c.cfg)
			for i, root := range plans {
				pred, err := p.Predict(root, ests[i])
				if err != nil {
					t.Fatalf("%v %s plan %d: Predict: %v", kind, c.name, i, err)
				}
				digestPrediction(digests[c.name], pred)
				if i%nEach >= nSmall {
					continue
				}
				hist, err := sample.EstimateHistogram(root, cat, sample.HistogramOpts{})
				if err != nil {
					t.Fatalf("%v plan %d: EstimateHistogram: %v", kind, i, err)
				}
				if pred, err = p.Predict(root, hist); err != nil {
					t.Fatalf("%v %s plan %d: Predict(histogram): %v", kind, c.name, i, err)
				}
				digestPrediction(digests["histogram"], pred)
				if c.cfg.LooseBounds {
					continue // the draws never consult the bounds
				}
				mc, err := p.PredictMonteCarlo(root, ests[i], MCOptions{Draws: 2000, Seed: int64(i)})
				if err != nil {
					t.Fatalf("%v %s plan %d: PredictMonteCarlo: %v", kind, c.name, i, err)
				}
				fmt.Fprintf(digests["montecarlo"], "%x %x\n", mc.MeanVal, mc.Variance)
			}
		}
	}
	for name, want := range pinnedPredictionDigests {
		if got := fmt.Sprintf("%x", digests[name].Sum(nil)); got != want {
			t.Errorf("%s digest %s, pinned %s", name, got, want)
		}
	}
}

// BenchmarkPredictCold is the predictor by itself: one op is a Predict
// of each of the oracle's 512 uniform-1G plans from estimates computed
// outside the timer — no sampling pass, no cache, no harness.
func BenchmarkPredictCold(b *testing.B) {
	plans, ests, cat := genPlans(b, datagen.Uniform1G, 256)
	p := New(cat, pinnedUnits(b), Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, root := range plans {
			if _, err := p.Predict(root, ests[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
