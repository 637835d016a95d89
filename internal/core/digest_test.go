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
// generated database of the given kind, planned with
// plan.Alternatives(q, cat, maxAlts) — maxAlts 1 is plan.Build's plan
// alone — and their memo-less sampling estimates (default ratio, default
// copies): with maxAlts 1, the same plans on the same samples as
// internal/sample's digest test. The SelJoin plans come first.
func genPlans(tb testing.TB, kind datagen.DBKind, nEach, maxAlts int) ([]*engine.Node, []*sample.Estimates, *catalog.Catalog) {
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
			alts, err := plan.Alternatives(q, cat, maxAlts)
			if err != nil {
				tb.Fatalf("%v %s: %v", b, q.Name, err)
			}
			for _, p := range alts {
				est, err := sample.Estimate(p, sdb, cat)
				if err != nil {
					tb.Fatalf("%v %s: %v", b, q.Name, err)
				}
				plans = append(plans, p)
				ests = append(ests, est)
			}
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

// Digests of TestPredictionDigestPinned, re-captured once when the cost
// functions became closed-form: the exact coefficients the cost model
// states replaced a Lawson–Hanson fit of them, which moved predicted
// means by at most 0.11 % and σ by at most 0.11 % on these plans.
var pinnedPredictionDigests = map[string]string{
	"All":        "25f5df3bf06e68d48223464fa7be3cf8c5629eee6c6c11792c8bc7d02e8356c4",
	"NoVar[c]":   "2adc52009f626e32ecf66b29a5dae274ca9a56ee1f71f4b2bb495fbeb19ab156",
	"NoVar[X]":   "e0222303458a9ea989d2d1b07c229170e6b6c043ac5048839f71a7da867839cd",
	"NoCov":      "0124038df631fb15ef5029f40238c9d2712c446e3f8376a3f41eda3de64de8f2",
	"montecarlo": "f93499ad6ac675cf5f5884bf09445d2d7a8f8682f4015d39ab3b9601dfcf61bd",
}

// TestPredictionDigestPinned is the predictor's oracle on inputs nobody
// wrote: 256 SelJoin and 256 TPCH generated plans on uniform-1G and on
// skewed-1G samples, predicted under every variant, every field of every
// Prediction hashed; plus, on the first 32 plans of each set, a
// fixed-seed 2,000-draw Monte-Carlo prediction (mean, variance) under
// every variant. A change
// to sample, costmodel or core must leave the literals untouched; do not
// re-capture without a reason in CHANGES.md.
func TestPredictionDigestPinned(t *testing.T) {
	const nEach, nSmall = 256, 32
	digests := make(map[string]hash.Hash)
	for name := range pinnedPredictionDigests {
		digests[name] = sha256.New()
	}
	units := pinnedUnits(t)
	for _, kind := range []datagen.DBKind{datagen.Uniform1G, datagen.Skewed1G} {
		plans, ests, cat := genPlans(t, kind, nEach, 1)
		for _, v := range []Variant{All, NoVarC, NoVarX, NoCov} {
			p := New(cat, units, v)
			for i, root := range plans {
				pred, err := p.Predict(root, ests[i])
				if err != nil {
					t.Fatalf("%v %v plan %d: Predict: %v", kind, v, i, err)
				}
				digestPrediction(digests[v.String()], pred)
				if i%nEach >= nSmall {
					continue
				}
				mc, err := p.PredictMonteCarlo(root, ests[i], MCOptions{Draws: 2000, Seed: int64(i)})
				if err != nil {
					t.Fatalf("%v %v plan %d: PredictMonteCarlo: %v", kind, v, i, err)
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

// pinnedAlternativesDigests are TestAlternativesPredictionDigestPinned's
// literals, taken before the predictor's scratch was pooled.
var pinnedAlternativesDigests = map[string]string{
	"All":      "cbdd7572bd076c552d31e1f80579c01dec612406c8f2a4d095421b9031b95519",
	"NoVar[c]": "a168119f92bb386eebdb5554633a0b0bac67d2ffdaaaeaae7421d7b7fc7b70b1",
	"NoVar[X]": "9b2652803f834bfe65e4cd7824d0223eaa1b6b9656fb07c536696741a048505f",
	"NoCov":    "8bbb46993554c42910833f452ca63980c23feee9dd1750d2db47f4c4df5ea29b",
}

// TestAlternativesPredictionDigestPinned covers the plans plan_choice
// predicts: every join order plan.Alternatives offers (up to 8) for 32
// SelJoin and 32 TPCH generated queries on skewed-1G, predicted under
// every variant, every field of every Prediction hashed. Do not
// re-capture without a reason in CHANGES.md.
func TestAlternativesPredictionDigestPinned(t *testing.T) {
	plans, ests, cat := genPlans(t, datagen.Skewed1G, 32, 8)
	units := pinnedUnits(t)
	for _, v := range []Variant{All, NoVarC, NoVarX, NoCov} {
		p := New(cat, units, v)
		h := sha256.New()
		for i, root := range plans {
			pred, err := p.Predict(root, ests[i])
			if err != nil {
				t.Fatalf("%v plan %d: Predict: %v", v, i, err)
			}
			digestPrediction(h, pred)
		}
		if got, want := fmt.Sprintf("%x", h.Sum(nil)), pinnedAlternativesDigests[v.String()]; got != want {
			t.Errorf("%v digest over %d plans %s, pinned %s", v, len(plans), got, want)
		}
	}
}

// BenchmarkPredictCold is the predictor by itself: one op is a Predict
// of each of the oracle's 512 uniform-1G plans from estimates computed
// outside the timer — no sampling pass, no cache, no harness.
func BenchmarkPredictCold(b *testing.B) {
	plans, ests, cat := genPlans(b, datagen.Uniform1G, 256, 1)
	p := New(cat, pinnedUnits(b), All)
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
