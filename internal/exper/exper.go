// Package exper is the experiment harness for Section 6: it wires the
// data generator, catalog, hardware simulator, calibration, sampling
// estimator, and predictor together, runs benchmark workloads under a
// (machine, database, sampling-ratio, variant) setting, and computes the
// paper's evaluation metrics — the correlation coefficients r_s and r_p
// between predicted standard deviations and actual prediction errors,
// the distribution-proximity metric D_n, per-operator selectivity
// accuracy, and the relative runtime overhead of sampling.
package exper

import (
	"context"
	"fmt"
	"math"
	"sync"

	uaqetp "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/pool"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Setting is one experimental configuration.
type Setting struct {
	Bench      workload.Benchmark
	DB         datagen.DBKind
	Machine    string // registered profile name ("PC1", "PC2", ...)
	SR         float64
	Variant    core.Variant
	NumQueries int
	Seed       int64
}

// String implements fmt.Stringer.
func (s Setting) String() string {
	return fmt.Sprintf("%v/%v/%s/SR=%g/%v", s.Bench, s.DB, s.Machine, s.SR, s.Variant)
}

// OpObservation pairs one selective operator's estimated selectivity
// distribution with its ground truth (for Tables 6-9 and Figure 12).
type OpObservation struct {
	EstSel   float64
	EstSigma float64
	TrueSel  float64
}

// QueryOutcome records one query's prediction and measurement.
type QueryOutcome struct {
	Name       string
	Actual     float64 // measured running time (5-run average)
	PredMean   float64 // E[t_q]
	PredSigma  float64 // sqrt(Var[t_q])
	Err        float64 // |PredMean - Actual|
	SampleCost float64 // simulated cost of the sampling pass
	FullCost   float64 // simulated cost of the full run
	Ops        []OpObservation
}

// RunResult aggregates a setting's outcomes and metrics.
type RunResult struct {
	Setting  Setting
	Outcomes []QueryOutcome

	RS float64 // Spearman correlation: predicted sigma vs actual error
	RP float64 // Pearson correlation
	Dn float64 // distribution proximity (Section 6.3)

	// MeanOverhead is the average SampleCost / FullCost ratio
	// (Section 6.4).
	MeanOverhead float64
}

// sigmas returns the predicted standard deviations in query order.
func (r *RunResult) sigmas() []float64 {
	out := make([]float64, len(r.Outcomes))
	for i, o := range r.Outcomes {
		out[i] = o.PredSigma
	}
	return out
}

// errors returns the actual prediction errors in query order.
func (r *RunResult) errors() []float64 {
	out := make([]float64, len(r.Outcomes))
	for i, o := range r.Outcomes {
		out[i] = o.Err
	}
	return out
}

// NormalizedErrors returns e'_i = |t_i - mu_i| / sigma_i.
func (r *RunResult) NormalizedErrors() []float64 {
	actual := make([]float64, len(r.Outcomes))
	mean := make([]float64, len(r.Outcomes))
	sigma := make([]float64, len(r.Outcomes))
	for i, o := range r.Outcomes {
		actual[i], mean[i], sigma[i] = o.Actual, o.PredMean, o.PredSigma
	}
	return stats.NormalizedErrors(actual, mean, sigma)
}

// baseKey identifies one expensive environment: a generated database
// plus a calibrated machine. Sampling ratios and predictor variants are
// cheap derivations of a base System (WithSamplingRatio, WithVariant).
type baseKey struct {
	DB      datagen.DBKind
	Machine string
	Seed    int64
}

// sysKey identifies one fully-sampled System.
type sysKey struct {
	baseKey
	SR float64
}

// measKey identifies one variant-independent query measurement. The
// workload size is part of the key because generated query content
// depends on it (e.g. Micro predicates scale with n), so a same-named
// query from a different-sized workload must not reuse the measurement.
type measKey struct {
	sysKey
	Bench workload.Benchmark
	N     int
	Name  string
}

// onceMap coalesces concurrent grid cells onto a single computation per
// key, so RunGrid never duplicates work.
type onceMap[K comparable, V any] map[K]*onceCell[V]

type onceCell[V any] struct {
	once sync.Once
	val  V
	err  error
}

// get returns the value computed (once) for k; mu guards the map, not
// the computation, so cells for different keys compute concurrently.
func (m onceMap[K, V]) get(mu *sync.Mutex, k K, compute func() (V, error)) (V, error) {
	mu.Lock()
	c, ok := m[k]
	if !ok {
		c = &onceCell[V]{}
		m[k] = c
	}
	mu.Unlock()
	c.once.Do(func() { c.val, c.err = compute() })
	return c.val, c.err
}

// Lab runs experiment grids on top of the public System API. It
// memoizes the expensive layers across settings — base environments per
// (database, machine, seed), sampled Systems per sampling ratio, and
// variant-independent measurements per query — and shares one estimate
// cache across every System it opens, so ablation cells over the same
// database reuse each other's sampling passes exactly like co-located
// tenants in the serving layer. A Lab is safe for concurrent use;
// results are deterministic per Setting regardless of cell
// interleaving, because every source of randomness derives from the
// setting's own seed (per-cell seeds, per-query measurement streams)
// rather than shared RNG state.
type Lab struct {
	cache *uaqetp.EstimateCache

	mu      sync.Mutex
	bases   onceMap[baseKey, *uaqetp.System]
	systems onceMap[sysKey, *uaqetp.System]
	meas    onceMap[measKey, *uaqetp.Measurement]
	// runCache memoizes whole settings so different report generators
	// (e.g. Table 4 and Table 5 over the same grid) share work.
	runCache onceMap[Setting, *RunResult]
}

// labCacheCapacity bounds the Lab's shared estimate cache: grids touch
// many (database, SR) namespaces, each with tens of distinct plans.
const labCacheCapacity = 4096

// NewLab returns an empty lab.
func NewLab() *Lab {
	return &Lab{
		cache:    uaqetp.NewEstimateCache(labCacheCapacity),
		bases:    make(onceMap[baseKey, *uaqetp.System]),
		systems:  make(onceMap[sysKey, *uaqetp.System]),
		meas:     make(onceMap[measKey, *uaqetp.Measurement]),
		runCache: make(onceMap[Setting, *RunResult]),
	}
}

// baseFor opens (once) the base System for an environment. The first
// requester's sampling ratio seeds the base; other ratios derive from
// it without regenerating the database or recalibrating.
func (l *Lab) baseFor(k baseKey, sr float64) (*uaqetp.System, error) {
	return l.bases.get(&l.mu, k, func() (*uaqetp.System, error) {
		return uaqetp.Open(uaqetp.Config{
			DB: k.DB, Machine: k.Machine, SamplingRatio: sr,
			Variant: core.All, Seed: k.Seed, Cache: l.cache,
		})
	})
}

// systemFor returns the (memoized) System for a setting's environment
// and sampling ratio, with the complete predictor; variants are derived
// by the caller via WithVariant.
func (l *Lab) systemFor(s Setting) (*uaqetp.System, error) {
	k := sysKey{baseKey{s.DB, s.Machine, s.Seed}, s.SR}
	return l.systems.get(&l.mu, k, func() (*uaqetp.System, error) {
		base, err := l.baseFor(k.baseKey, s.SR)
		if err != nil {
			return nil, err
		}
		return base.WithSamplingRatio(s.SR)
	})
}

// measureFor measures one query (once) through the instrumented execute
// path. Measurements are variant-independent, so every ablation cell
// over the same environment shares them.
func (l *Lab) measureFor(sys *uaqetp.System, k measKey, q *uaqetp.Query) (*uaqetp.Measurement, error) {
	return l.meas.get(&l.mu, k, func() (*uaqetp.Measurement, error) { return sys.Measure(q) })
}

// fanOut runs do(0..n-1) on a bounded worker pool and returns the
// lowest-index error.
func fanOut(n, workers int, do func(i int) error) error {
	return pool.FirstError(pool.RunCtx(context.Background(), n, workers, do))
}

// Run executes one experimental setting, memoizing the result.
// Concurrent calls with the same setting share one execution.
func (l *Lab) Run(s Setting) (*RunResult, error) {
	if s.NumQueries <= 0 {
		s.NumQueries = 24
	}
	return l.runCache.get(&l.mu, s, func() (*RunResult, error) { return l.run(s) })
}

// RunGrid executes every setting, fanning the cells out over a bounded
// worker pool (workers <= 0 selects GOMAXPROCS). Results arrive in
// input order and match a serial Run loop: each cell's randomness
// derives from its own setting, never from shared state, so the
// interleaving cannot change the numbers.
func (l *Lab) RunGrid(settings []Setting, workers int) ([]*RunResult, error) {
	out := make([]*RunResult, len(settings))
	err := fanOut(len(settings), workers, func(i int) error {
		r, err := l.Run(settings[i])
		out[i] = r
		return err
	})
	return out, err
}

func (l *Lab) run(s Setting) (*RunResult, error) {
	sys, err := l.systemFor(s)
	if err != nil {
		return nil, err
	}
	vsys := sys.WithVariant(s.Variant)
	queries, err := sys.GenerateWorkload(s.Bench, s.NumQueries)
	if err != nil {
		return nil, err
	}

	// Predictions ride the batched concurrent pipeline; measurements fan
	// out below it, memoized across variants.
	preds, err := vsys.PredictBatchContext(context.Background(), queries)
	if err != nil {
		return nil, fmt.Errorf("exper: %w", err)
	}
	sk := sysKey{baseKey{s.DB, s.Machine, s.Seed}, s.SR}
	ms := make([]*uaqetp.Measurement, len(queries))
	err = fanOut(len(queries), 0, func(i int) error {
		m, err := l.measureFor(sys, measKey{sk, s.Bench, s.NumQueries, queries[i].Name}, queries[i])
		if err != nil {
			return fmt.Errorf("exper: %s: %w", queries[i].Name, err)
		}
		ms[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &RunResult{Setting: s}
	var overheads []float64
	for i, q := range queries {
		pr, m := preds[i], ms[i]
		out := QueryOutcome{
			Name:       q.Name,
			Actual:     m.Actual,
			PredMean:   pr.Mean(),
			PredSigma:  pr.Sigma(),
			Err:        math.Abs(pr.Mean() - m.Actual),
			SampleCost: m.SampleCost,
			FullCost:   m.FullCost,
		}
		if out.FullCost > 0 {
			overheads = append(overheads, out.SampleCost/out.FullCost)
		}
		for _, od := range m.Ops {
			out.Ops = append(out.Ops, OpObservation{
				EstSel:   od.EstSel,
				EstSigma: od.EstSigma,
				TrueSel:  od.TrueSel,
			})
		}
		res.Outcomes = append(res.Outcomes, out)
	}

	res.RS = stats.Spearman(res.sigmas(), res.errors())
	res.RP = stats.Pearson(res.sigmas(), res.errors())
	res.Dn = stats.Dn(res.NormalizedErrors(), nil)
	res.MeanOverhead = stats.Mean(overheads)
	return res, nil
}

// CacheStats snapshots the lab's shared estimate cache — the same
// cross-tenant sharing observability the serving layer exposes.
func (l *Lab) CacheStats() uaqetp.CacheStats { return l.cache.Stats() }

// SelectivityMetrics computes the Table 6-9 statistics over all
// per-operator observations of a run: correlations between estimated
// and actual selectivity errors (Table 6), between estimated and actual
// selectivities (Table 7), the mean relative error (Table 8), and the
// error correlations restricted to relative errors above the threshold
// (Table 9, threshold 0.2 in the paper).
type SelectivityMetrics struct {
	ErrRS, ErrRP   float64 // estimated sigma vs |actual error|
	SelRS, SelRP   float64 // estimated vs actual selectivity
	MeanRelErr     float64
	LargeRS        float64 // restricted to rel. error > threshold
	LargeRP        float64
	NumObs         int
	NumLargeErrObs int
}

// computeSelectivityMetrics aggregates all operator observations.
func computeSelectivityMetrics(r *RunResult, threshold float64) SelectivityMetrics {
	var estSigma, absErr, est, truth, relErrs []float64
	var largeSigma, largeErr []float64
	for _, o := range r.Outcomes {
		for _, op := range o.Ops {
			e := math.Abs(op.EstSel - op.TrueSel)
			estSigma = append(estSigma, op.EstSigma)
			absErr = append(absErr, e)
			est = append(est, op.EstSel)
			truth = append(truth, op.TrueSel)
			if op.TrueSel > 0 {
				rel := e / op.TrueSel
				relErrs = append(relErrs, rel)
				if rel > threshold {
					largeSigma = append(largeSigma, op.EstSigma)
					largeErr = append(largeErr, e)
				}
			}
		}
	}
	return SelectivityMetrics{
		ErrRS:          stats.Spearman(estSigma, absErr),
		ErrRP:          stats.Pearson(estSigma, absErr),
		SelRS:          stats.Spearman(est, truth),
		SelRP:          stats.Pearson(est, truth),
		MeanRelErr:     stats.Mean(relErrs),
		LargeRS:        stats.Spearman(largeSigma, largeErr),
		LargeRP:        stats.Pearson(largeSigma, largeErr),
		NumObs:         len(estSigma),
		NumLargeErrObs: len(largeSigma),
	}
}
