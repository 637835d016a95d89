// Package calib is the calibration observatory: it turns streams of
// (predicted distribution, observed running time) pairs into rolling
// calibration metrics — MAPE, Pearson correlation, signed bias, mean
// standardized residual, and nominal-vs-observed central-interval
// coverage at 50/90/95% — the measured counterpart to the paper's
// claim that predicted *distributions* stay honest against reality.
//
// The package is deliberately tiny and dependency-light (stats only)
// so every layer that sees an observation — the serving layer's
// feedback loop, the simulator's execution loop — can feed the same
// accumulator without import cycles.
//
// Accumulators are plain values with fixed-order arithmetic: Observe
// uses Welford/West updates, Merge uses Chan's parallel formulas, and
// neither allocates. A producer that observes in a deterministic order
// and merges partial accumulators in a fixed order (the simulator
// observes per machine and merges in machine order) gets bit-identical
// metrics from run to run.
// Metrics is NaN-free by construction: zero and one-observation
// accumulators report zeros, never 0/0.
package calib

import (
	"math"

	"repro/internal/stats"
)

// coverageLevels are the nominal central-interval probability masses
// tracked by every accumulator, in ascending order. They mirror the
// serving layer's drift feedback so "coverage at 90%" means the same
// thing in a drift advisory, a sim report, and a /metrics scrape.
var coverageLevels = [3]float64{0.5, 0.9, 0.95}

// zLo and zHi bound the standard-normal central interval at each
// coverageLevels entry, computed once: [μ+σ·zLo[i], μ+σ·zHi[i]] is
// stats.Normal.Interval's arithmetic for N(μ, σ²) at level i.
var zLo, zHi = func() (lo, hi [len(coverageLevels)]float64) {
	for i, level := range coverageLevels {
		lo[i], hi[i] = stats.StdNormalQuantile((1-level)/2), stats.StdNormalQuantile(1-(1-level)/2)
	}
	return lo, hi
}()

// Accumulator is a streaming calibration aggregate over a sequence of
// observations. The zero value is ready to use. Not safe for
// concurrent use; shard per producer and Merge.
type Accumulator struct {
	n int64
	// Welford means and central second moments of predicted means and
	// observed times, plus their co-moment (for Pearson r).
	meanP, meanO  float64
	m2P, m2O, cPO float64
	// sumZ is the sum of standardized residuals (observed-mean)/sigma,
	// counting sigma==0 observations as zero residual.
	sumZ float64
	// sumErr is the sum of signed errors predicted-observed (positive =
	// overprediction).
	sumErr float64
	// sumAbsRel/relN accumulate |predicted-observed|/observed over
	// observations with observed > 0 (MAPE is undefined at zero).
	sumAbsRel float64
	relN      int64
	// within[i] counts observations inside the predicted central
	// interval at coverageLevels[i].
	within [len(coverageLevels)]int64
}

// Observe folds one (predicted, observed) pair into the aggregate.
func (a *Accumulator) Observe(predMean, predSigma, observed float64) {
	a.n++
	n := float64(a.n)
	dP := predMean - a.meanP
	dO := observed - a.meanO
	a.meanP += dP / n
	a.meanO += dO / n
	a.m2P += dP * (predMean - a.meanP)
	a.m2O += dO * (observed - a.meanO)
	a.cPO += dP * (observed - a.meanO)
	a.sumErr += predMean - observed
	if observed > 0 {
		a.sumAbsRel += math.Abs(predMean-observed) / observed
		a.relN++
	}
	if predSigma > 0 {
		a.sumZ += (observed - predMean) / predSigma
	}
	for i := range coverageLevels {
		// The z are finite, so σ == 0 collapses the interval to μ with no
		// branch, matching Normal.Quantile's σ == 0 case.
		if lo, hi := predMean+predSigma*zLo[i], predMean+predSigma*zHi[i]; observed >= lo && observed <= hi {
			a.within[i]++
		}
	}
}

// N returns the number of observations folded in.
func (a *Accumulator) N() int64 { return a.n }

// Merge folds b into a using Chan's parallel update formulas; the
// result aggregates both observation streams. Merging the same set of
// disjoint accumulators in a fixed order is deterministic; different
// merge orders agree to floating-point accuracy.
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	na, nb := float64(a.n), float64(b.n)
	n := na + nb
	dP := b.meanP - a.meanP
	dO := b.meanO - a.meanO
	a.m2P += b.m2P + dP*dP*na*nb/n
	a.m2O += b.m2O + dO*dO*na*nb/n
	a.cPO += b.cPO + dP*dO*na*nb/n
	a.meanP += dP * nb / n
	a.meanO += dO * nb / n
	a.n += b.n
	a.sumZ += b.sumZ
	a.sumErr += b.sumErr
	a.sumAbsRel += b.sumAbsRel
	a.relN += b.relN
	for i := range a.within {
		a.within[i] += b.within[i]
	}
}

// CoveragePoint compares one nominal central-interval mass against the
// fraction of observations that actually fell inside the predicted
// interval. Drift = observed - nominal: negative means the intervals
// are too narrow (overconfident predictions).
type CoveragePoint struct {
	Nominal  float64 `json:"nominal"`
	Observed float64 `json:"observed"`
	Drift    float64 `json:"drift"`
}

// Metrics is the point-in-time summary of an Accumulator. Every field
// is finite for any observation count, including zero and one.
type Metrics struct {
	// N is the observation count.
	N int64 `json:"n"`
	// MAPE is mean |predicted-observed|/observed over observations with
	// observed > 0; zero when none qualify.
	MAPE float64 `json:"mape"`
	// Bias is the mean signed error predicted-observed in seconds
	// (positive = the predictor overestimates).
	Bias float64 `json:"bias"`
	// MeanZ is the mean standardized residual (observed-mean)/sigma; a
	// calibrated predictor keeps it near zero.
	MeanZ float64 `json:"mean_z"`
	// PearsonR is the correlation between predicted means and observed
	// times; zero when fewer than two observations or either side is
	// constant.
	PearsonR float64 `json:"pearson_r"`
	// Coverage holds one point per coverageLevels entry, in order.
	Coverage []CoveragePoint `json:"coverage"`
}

// Metrics summarizes the accumulator.
func (a *Accumulator) Metrics() Metrics {
	m := Metrics{N: a.n, Coverage: make([]CoveragePoint, len(coverageLevels))}
	for i, level := range coverageLevels {
		m.Coverage[i].Nominal = level
	}
	if a.n == 0 {
		return m
	}
	n := float64(a.n)
	if a.relN > 0 {
		m.MAPE = a.sumAbsRel / float64(a.relN)
	}
	m.Bias = a.sumErr / n
	m.MeanZ = a.sumZ / n
	if a.n >= 2 && a.m2P > 0 && a.m2O > 0 {
		r := a.cPO / math.Sqrt(a.m2P*a.m2O)
		m.PearsonR = math.Max(-1, math.Min(1, r))
	}
	for i := range coverageLevels {
		m.Coverage[i].Observed = float64(a.within[i]) / n
		m.Coverage[i].Drift = m.Coverage[i].Observed - m.Coverage[i].Nominal
	}
	return m
}
