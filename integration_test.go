// Integration tests: end-to-end invariants across the whole stack
// (generator -> catalog -> samples -> calibration -> plans -> predictor
// -> simulated execution).
package uaqetp_test

import (
	"context"
	"math"
	"testing"

	uaqetp "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exper"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestEndToEndAllConfigurations exercises every database kind and both
// machines with a small mixed workload and checks basic sanity of each
// outcome.
func TestEndToEndAllConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	lab := exper.NewLab()
	for _, db := range []datagen.DBKind{datagen.Uniform1G, datagen.Skewed1G} {
		for _, machine := range []string{"PC1", "PC2"} {
			res, err := lab.Run(exper.Setting{
				Bench: workload.TPCH, DB: db, Machine: machine,
				SR: 0.05, Variant: core.All, NumQueries: 10, Seed: 1,
			})
			if err != nil {
				t.Fatalf("%v/%s: %v", db, machine, err)
			}
			for _, o := range res.Outcomes {
				if o.PredMean <= 0 || o.Actual <= 0 || o.PredSigma <= 0 {
					t.Errorf("%v/%s/%s: degenerate outcome %+v", db, machine, o.Name, o)
				}
				if o.PredSigma > o.PredMean*5 {
					t.Errorf("%v/%s/%s: sigma %v implausible vs mean %v",
						db, machine, o.Name, o.PredSigma, o.PredMean)
				}
			}
		}
	}
}

// TestIntervalCoverage checks the calibration claim behind Figure 5: the
// central 95% predicted interval should contain the actual running time
// for the large majority of queries. (The paper found mild
// overconfidence for simple queries, so the bound is deliberately
// lenient.)
func TestIntervalCoverage(t *testing.T) {
	lab := exper.NewLab()
	var inside, total int
	for _, b := range workload.Benchmarks {
		res, err := lab.Run(exper.Setting{
			Bench: b, DB: datagen.Uniform1G, Machine: "PC1",
			SR: 0.05, Variant: core.All, NumQueries: 16, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range res.Outcomes {
			d := stats.NormalFromVar(o.PredMean, o.PredSigma*o.PredSigma)
			lo, hi := d.Interval(0.95)
			if o.Actual >= lo && o.Actual <= hi {
				inside++
			}
			total++
		}
	}
	cover := float64(inside) / float64(total)
	if cover < 0.6 {
		t.Errorf("95%% interval coverage = %.2f (%d/%d), want >= 0.6", cover, inside, total)
	}
}

// TestSigmaShrinksWithSamplingRatio: more samples mean less selectivity
// uncertainty, so the average predicted sigma (relative to the mean)
// must not grow with the sampling ratio.
func TestSigmaShrinksWithSamplingRatio(t *testing.T) {
	lab := exper.NewLab()
	relSigma := func(sr float64) float64 {
		res, err := lab.Run(exper.Setting{
			Bench: workload.SelJoin, DB: datagen.Uniform1G, Machine: "PC1",
			SR: sr, Variant: core.All, NumQueries: 16, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		var s []float64
		for _, o := range res.Outcomes {
			if o.PredMean > 0 {
				s = append(s, o.PredSigma/o.PredMean)
			}
		}
		return stats.Mean(s)
	}
	lo, hi := relSigma(0.01), relSigma(0.2)
	if hi > lo*1.1 {
		t.Errorf("relative sigma grew with sampling ratio: SR=0.01 -> %v, SR=0.2 -> %v", lo, hi)
	}
}

// TestScaleConsistency: the same workload template on the 10x database
// should predict roughly 10x the time (the engine and cost model are
// near-linear for these FK joins).
func TestScaleConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	lab := exper.NewLab()
	mean := func(db datagen.DBKind) float64 {
		res, err := lab.Run(exper.Setting{
			Bench: workload.Micro, DB: db, Machine: "PC1",
			SR: 0.05, Variant: core.All, NumQueries: 8, Seed: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		var ms []float64
		for _, o := range res.Outcomes {
			ms = append(ms, o.PredMean)
		}
		return stats.Mean(ms)
	}
	small, big := mean(datagen.Uniform1G), mean(datagen.Uniform10G)
	ratio := big / small
	if ratio < 4 || ratio > 25 {
		t.Errorf("10G/1G mean prediction ratio = %v, want ~10", ratio)
	}
}

// TestFullSamplingNearExactSelectivities: with SR = 1 the "samples" are
// the tables themselves, so scan selectivity estimates are exact and
// scan-only predictions carry (almost) no X-variance.
func TestFullSamplingNearExactSelectivities(t *testing.T) {
	cfg := uaqetp.DefaultConfig()
	cfg.SamplingRatio = 1.0
	sys, err := uaqetp.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := &uaqetp.Query{
		Name:   "full-sample-scan",
		Tables: []string{"lineitem"},
		Preds:  []uaqetp.Predicate{{Col: "l_quantity", Op: uaqetp.Le, Lo: 25}},
	}
	pred, actual, err := sys.PredictAndRunContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(pred.Mean()-actual) / actual; rel > 0.5 {
		t.Errorf("full-sampling prediction off by %.2f", rel)
	}
}

// TestHeadlineCorrelationAcrossBenchmarks is the repository-level
// acceptance check for result (R1): strong positive rank correlation on
// every benchmark with a reasonable workload size.
func TestHeadlineCorrelationAcrossBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	lab := exper.NewLab()
	for _, b := range workload.Benchmarks {
		res, err := lab.Run(exper.Setting{
			Bench: b, DB: datagen.Skewed1G, Machine: "PC1",
			SR: 0.05, Variant: core.All, NumQueries: 32, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.RS < 0.5 {
			t.Errorf("%v: r_s = %v, want strong positive correlation", b, res.RS)
		}
		if res.Dn > 0.35 {
			t.Errorf("%v: D_n = %v, want < 0.35", b, res.Dn)
		}
	}
}
