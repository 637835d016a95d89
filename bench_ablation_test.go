// Ablation benchmarks for the design choices called out in DESIGN.md §5.
// These go beyond the paper's own evaluation: they quantify how much
// each implementation decision contributes.
package uaqetp

import (
	"fmt"
	"math"
	"os"
	"sync"
	"testing"

	"repro/internal/calibrate"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ablEnv is a shared small environment for the ablation benches.
type ablEnv struct {
	db    *engine.DB
	cat   *catalog.Catalog
	hw    *hardware.Profile
	cal   *calibrate.Result
	plans []*engine.Node
	runs  []*engine.OpResult
}

var (
	ablOnce sync.Once
	abl     *ablEnv
	ablErr  error
)

func ablEnvGet(b *testing.B) *ablEnv {
	b.Helper()
	ablOnce.Do(func() {
		db := datagen.Generate(datagen.ConfigFor(datagen.Skewed1G, 1))
		cat := catalog.Build(db)
		hw := hardware.PC1()
		cal, err := calibrate.Run(hw, calibrate.DefaultConfig(2))
		if err != nil {
			ablErr = err
			return
		}
		queries, err := workload.Generate(workload.TPCH, cat, 28, 3)
		if err != nil {
			ablErr = err
			return
		}
		e := &ablEnv{db: db, cat: cat, hw: hw, cal: cal}
		for _, q := range queries {
			p, err := plan.Build(q, cat)
			if err != nil {
				ablErr = err
				return
			}
			res, err := engine.Run(db, p)
			if err != nil {
				ablErr = err
				return
			}
			e.plans = append(e.plans, p)
			e.runs = append(e.runs, res)
		}
		abl = e
	})
	if ablErr != nil {
		b.Fatal(ablErr)
	}
	return abl
}

// predictAll runs the predictor over the shared workload and returns the
// per-query (sigma, |error|) correlation and the mean relative error of
// the point estimate.
func (e *ablEnv) predictAll(b *testing.B, v core.Variant, sr float64, copies int) (rs, meanRel float64) {
	b.Helper()
	sdb, err := sample.Build(e.db, sr, copies, 7)
	if err != nil {
		b.Fatal(err)
	}
	pred := core.New(e.cat, e.cal.Units, v)
	var sigmas, errs, rels []float64
	for i, p := range e.plans {
		est, err := sample.Estimate(p, sdb, e.cat)
		if err != nil {
			b.Fatal(err)
		}
		pr, err := pred.Predict(p, est)
		if err != nil {
			b.Fatal(err)
		}
		actual := e.hw.ExpectedCost(e.runs[i].TotalCounts())
		sigmas = append(sigmas, pr.Sigma())
		errs = append(errs, math.Abs(pr.Mean()-actual))
		if actual > 0 {
			rels = append(rels, math.Abs(pr.Mean()-actual)/actual)
		}
	}
	return stats.Spearman(sigmas, errs), stats.Mean(rels)
}

var ablPrinted sync.Map

func ablPrintf(key, format string, args ...interface{}) {
	if _, done := ablPrinted.LoadOrStore(key, struct{}{}); !done {
		fmt.Fprintf(os.Stdout, format, args...)
	}
}

// BenchmarkAblationCovarianceBounds compares the tight covariance bounds
// (Theorem 7, the paper's contribution) against dropping covariances
// entirely (NoCov).
func BenchmarkAblationCovarianceBounds(b *testing.B) {
	e := ablEnvGet(b)
	for i := 0; i < b.N; i++ {
		tightRS, _ := e.predictAll(b, core.All, 0.01, 2)
		noneRS, _ := e.predictAll(b, core.NoCov, 0.01, 2)
		ablPrintf("cov", "\n===== ablation: covariance bounds (TPCH, skewed 1G, SR=0.01) =====\n"+
			"tight (Thm 7):   r_s=%.4f\nno covariances: r_s=%.4f\n",
			tightRS, noneRS)
	}
}

// BenchmarkAblationSampleCopies contrasts one shared sample table per
// relation against independent per-appearance copies (the Lemma 2/3
// independence device).
func BenchmarkAblationSampleCopies(b *testing.B) {
	e := ablEnvGet(b)
	for i := 0; i < b.N; i++ {
		oneRS, oneRel := e.predictAll(b, core.All, 0.05, 1)
		twoRS, twoRel := e.predictAll(b, core.All, 0.05, 2)
		ablPrintf("copies", "\n===== ablation: sample tables per relation =====\n"+
			"1 copy:  r_s=%.4f mean-rel-err=%.4f\n2 copies: r_s=%.4f mean-rel-err=%.4f\n",
			oneRS, oneRel, twoRS, twoRel)
	}
}

// BenchmarkAblationMonteCarlo contrasts the analytic normal against the
// Monte-Carlo path: mean agreement and the analytic-to-MC sigma ratio
// (>= 1 expected on join plans because of the conservative bounds).
func BenchmarkAblationMonteCarlo(b *testing.B) {
	e := ablEnvGet(b)
	for i := 0; i < b.N; i++ {
		sdb, err := sample.Build(e.db, 0.05, 2, 7)
		if err != nil {
			b.Fatal(err)
		}
		pred := core.New(e.cat, e.cal.Units, core.All)
		var ratios, meanDiffs []float64
		for _, p := range e.plans[:10] {
			est, err := sample.Estimate(p, sdb, e.cat)
			if err != nil {
				b.Fatal(err)
			}
			an, err := pred.Predict(p, est)
			if err != nil {
				b.Fatal(err)
			}
			mc, err := pred.PredictMonteCarlo(p, est, core.MCOptions{Draws: 4000, Seed: 9})
			if err != nil {
				b.Fatal(err)
			}
			if sr, md, err := mc.CompareAnalytic(an); err == nil {
				ratios = append(ratios, 1/math.Max(sr, 1e-9)) // analytic / MC
				meanDiffs = append(meanDiffs, math.Abs(md))
			}
		}
		ablPrintf("mc", "\n===== ablation: analytic vs Monte-Carlo distribution =====\n"+
			"analytic/MC sigma ratio: mean=%.3f\n|mean rel diff|:         mean=%.4f\n",
			stats.Mean(ratios), stats.Mean(meanDiffs))
	}
}
