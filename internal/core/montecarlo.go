package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/sample"
)

// MCOptions configures the Monte-Carlo prediction path.
type MCOptions struct {
	// Draws is the number of (c, X) realizations; 0 selects
	// defaultMCDraws.
	Draws int
	Seed  int64
}

// defaultMCDraws keeps the Monte-Carlo path comfortably accurate while
// still fast (each draw is a handful of polynomial evaluations).
const defaultMCDraws = 20000

// MCPrediction is an empirical distribution of likely running times.
type MCPrediction struct {
	Samples  []float64 // sorted ascending
	MeanVal  float64
	Variance float64
}

// Mean returns the empirical mean.
func (m *MCPrediction) Mean() float64 { return m.MeanVal }

// Sigma returns the empirical standard deviation.
func (m *MCPrediction) Sigma() float64 { return math.Sqrt(m.Variance) }

// Quantile returns the empirical q-quantile, q in (0,1).
func (m *MCPrediction) Quantile(q float64) float64 {
	if len(m.Samples) == 0 {
		return 0
	}
	if q <= 0 {
		return m.Samples[0]
	}
	if q >= 1 {
		return m.Samples[len(m.Samples)-1]
	}
	i := int(q * float64(len(m.Samples)))
	if i >= len(m.Samples) {
		i = len(m.Samples) - 1
	}
	return m.Samples[i]
}

// Prob returns the empirical P(a <= T <= b).
func (m *MCPrediction) Prob(a, b float64) float64 {
	if len(m.Samples) == 0 || b < a {
		return 0
	}
	lo := sort.SearchFloat64s(m.Samples, a)
	hi := sort.SearchFloat64s(m.Samples, b)
	for hi < len(m.Samples) && m.Samples[hi] <= b {
		hi++
	}
	return float64(hi-lo) / float64(len(m.Samples))
}

// PredictMonteCarlo computes the distribution of likely running times by
// direct simulation instead of the analytic normal approximation: it
// draws realizations of the cost units c and the selectivity estimates
// X and evaluates t_q = sum_k sum_c f_kc(X) c for each.
//
// This is the "conceptually simpler" alternative discussed in Section
// 5.2.4 and Appendix B. It needs no normality assumption on the c's and
// no Theorem 1/2-style convergence arguments, but it cannot model the
// correlations between nested selectivity estimates either (their joint
// distribution is unobservable without rerunning the sampling pass), so
// distinct selectivity variables are drawn independently — the analytic
// path's upper bounds therefore dominate the Monte-Carlo variance on
// plans with correlated estimates, which TestMonteCarloVsAnalytic
// verifies.
func (p *Predictor) PredictMonteCarlo(root *engine.Node, est *sample.Estimates, opt MCOptions) (*MCPrediction, error) {
	if opt.Draws <= 0 {
		opt.Draws = defaultMCDraws
	}
	a, err := p.assemble(root, est)
	if err != nil {
		return nil, err
	}
	defer a.release()
	// Mark the variables the cost functions actually reference — every
	// variable of every nonzero function, zero-coefficient terms
	// included, not only the items' covarying terms: only those are
	// drawn, in node-ID order.
	used := make([]bool, len(a.vars))
	var ts [4]costmodel.Term
	for i := range a.items {
		n := a.items[i].f.Terms(&ts)
		for _, t := range ts[:n] {
			for k := 0; k < t.NVars; k++ {
				used[t.Vars[k]] = true
			}
		}
	}

	// The draw vector is indexed by node ID like a.vars and reused across
	// all draws, so the loop allocates nothing per draw.
	rng := rand.New(rand.NewSource(opt.Seed))
	draw := make([]float64, len(a.vars))
	samples := make([]float64, 0, opt.Draws)
	var acc mcAccum
	for d := 0; d < opt.Draws; d++ {
		// Selectivities: truncated normal draws in [0, 1].
		for id, x := range a.vars {
			if !used[id] {
				continue
			}
			v := x.Mu
			if x.Sigma > 0 && p.Variant != NoVarX {
				v = x.Mu + x.Sigma*rng.NormFloat64()
				if v < 0 {
					v = 0
				}
				if v > 1 {
					v = 1
				}
			}
			draw[id] = v
		}
		// Cost units: truncated-positive normal draws.
		var c [5]float64
		for u := 0; u < 5; u++ {
			cu := p.Units[u]
			v := cu.Mu
			if cu.Sigma > 0 && p.Variant != NoVarC {
				v = cu.Mu + cu.Sigma*rng.NormFloat64()
				if v < 0 {
					v = 0
				}
			}
			c[u] = v
		}
		var t float64
		for i := range a.items {
			t += a.items[i].f.Eval(draw) * c[a.items[i].unit]
		}
		samples = append(samples, t)
		acc.add(t)
	}
	sort.Float64s(samples)
	return &MCPrediction{Samples: samples, MeanVal: acc.mean, Variance: acc.variance()}, nil
}

// mcAccum accumulates count, mean, and the sum of squared deviations M2
// (Welford's online update) — numerically stabler than naive
// sum/sum-of-squares.
type mcAccum struct {
	n    float64
	mean float64
	m2   float64
}

func (a *mcAccum) add(x float64) {
	a.n++
	d := x - a.mean
	a.mean += d / a.n
	a.m2 += d * (x - a.mean)
}

// variance returns the sample variance (n-1 denominator), 0 for n < 2.
func (a *mcAccum) variance() float64 {
	if a.n < 2 {
		return 0
	}
	v := a.m2 / (a.n - 1)
	if v < 0 {
		v = 0
	}
	return v
}

// CompareAnalytic summarizes how the Monte-Carlo distribution relates to
// an analytic prediction: the ratio of standard deviations and the
// difference of means, both relative to the analytic values.
func (m *MCPrediction) CompareAnalytic(p *Prediction) (sigmaRatio, meanRelDiff float64, err error) {
	if p.Sigma() <= 0 {
		return 0, 0, fmt.Errorf("core: analytic prediction has zero sigma")
	}
	sigmaRatio = m.Sigma() / p.Sigma()
	meanRelDiff = (m.Mean() - p.Mean()) / p.Mean()
	return sigmaRatio, meanRelDiff, nil
}
