package sample

import (
	"math"
	"slices"

	"repro/internal/catalog"
	"repro/internal/engine"
)

// EstimateHistogram is an alternative selectivity-distribution estimator
// built on the catalog's equi-depth histograms instead of samples. The
// paper names histogram-based estimators as interesting future work
// (Section 3.2); this implementation models the estimate's uncertainty
// from the histogram's resolution:
//
//   - A range predicate's cumulative-fraction estimate is exact up to
//     the position of the value inside one bucket, i.e. an error that is
//     uniform on ±1/(2B) for B buckets, giving variance (1/B)^2 / 12 per
//     probed boundary.
//   - A join's selectivity factor 1/max(d_l, d_r) relies on the
//     containment and uniformity assumptions; its error is modeled with
//     a configurable relative standard deviation (default 50%), the
//     empirical ballpark for System-R style join estimates.
//
// No sampling pass is run, so there are no leaf variance components and
// no covariance information — exactly the trade-off the paper's
// sampling-based design avoids. The estimator exists to make that
// comparison measurable (see BenchmarkAblationEstimators).
type HistogramOpts struct {
	// JoinRelSigma is the relative standard deviation assigned to join
	// selectivity factors; 0 selects DefaultJoinRelSigma.
	JoinRelSigma float64
}

// DefaultJoinRelSigma is the default relative uncertainty of a
// histogram-era join selectivity estimate.
const DefaultJoinRelSigma = 0.5

// EstimateHistogram computes per-operator selectivity distributions for
// the plan from catalog statistics alone.
func EstimateHistogram(root *engine.Node, cat *catalog.Catalog, opts HistogramOpts) (*Estimates, error) {
	if opts.JoinRelSigma <= 0 {
		opts.JoinRelSigma = DefaultJoinRelSigma
	}
	est := newEstimates(root)
	leafCounter := 0

	var walk func(n *engine.Node) (*OpEstimate, error)
	walk = func(n *engine.Node) (*OpEstimate, error) {
		e, err := est.Get(n)
		if err != nil {
			return nil, err
		}
		full, err := cat.FullSize(n)
		if err != nil {
			return nil, err
		}
		// At and above an aggregate, as in the sampling pass: a cardinality
		// over the full Cartesian size, zero variance, no leaf run.
		fromOptimizer := func(card float64) {
			*e = OpEstimate{FromOptimizer: true, EstCard: card}
			if full > 0 {
				e.Rho = card / full
			}
		}
		switch {
		case n.Kind.IsScan():
			ts, err := cat.Table(n.Table)
			if err != nil {
				return nil, err
			}
			rho := 1.0
			variance := 0.0
			for pi := range n.Preds {
				sel, err := cat.PredicateSelectivity(n.Table, &n.Preds[pi])
				if err != nil {
					return nil, err
				}
				boundaries := 1.0
				if n.Preds[pi].Op == engine.Between {
					boundaries = 2
				}
				b := float64(catalog.HistogramBuckets)
				if ts.Rows < catalog.HistogramBuckets {
					b = math.Max(float64(ts.Rows), 1)
				}
				// Error uniform on +-1/(2B) per boundary.
				bv := boundaries * (1 / b) * (1 / b) / 12
				// Combine multiplicatively: Var[XY] ~ mu_x^2 v_y +
				// mu_y^2 v_x for small independent errors.
				variance = rho*rho*bv + sel*sel*variance
				rho *= sel
			}
			*e = OpEstimate{
				Rho:      rho,
				Var:      variance,
				LeafOff:  leafCounter,
				LeafComp: []float64{variance},
				LeafN:    []int{ts.Rows},
				EstCard:  rho * full,
			}
			leafCounter++
		case n.Kind.IsJoin():
			le, err := walk(n.Left)
			if err != nil {
				return nil, err
			}
			re, err := walk(n.Right)
			if err != nil {
				return nil, err
			}
			f, err := cat.JoinFactor(n)
			if err != nil {
				return nil, err
			}
			if le.FromOptimizer || re.FromOptimizer {
				fromOptimizer(le.EstCard * re.EstCard * f)
				break
			}
			rho := le.Rho * re.Rho * f
			// Relative variances add for products of (approximately)
			// independent factors.
			rel := relVar(le) + relVar(re) + opts.JoinRelSigma*opts.JoinRelSigma
			variance := rho * rho * rel
			// The children's leaf runs are adjacent. Split the variance
			// across the leaves proportionally to the children's shares so
			// restricted sums stay meaningful.
			comp := slices.Concat(le.LeafComp, re.LeafComp)
			childSum := 0.0
			for _, v := range comp {
				childSum += v
			}
			for i, v := range comp {
				if childSum > 0 {
					comp[i] = variance * v / childSum
				} else {
					comp[i] = variance / float64(len(comp))
				}
			}
			*e = OpEstimate{
				Rho:      rho,
				Var:      variance,
				LeafOff:  le.LeafOff,
				LeafComp: comp,
				LeafN:    slices.Concat(le.LeafN, re.LeafN),
				EstCard:  rho * full,
			}
		case n.Kind == engine.Aggregate:
			ce, err := walk(n.Left)
			if err != nil {
				return nil, err
			}
			card := 1.0
			if n.GroupCol != "" {
				tab, _, err := cat.FindColumn(n.GroupCol)
				if err != nil {
					return nil, err
				}
				card, err = cat.GroupCount(tab, n.GroupCol, ce.EstCard)
				if err != nil {
					return nil, err
				}
			}
			fromOptimizer(card)
		default: // Sort, Materialize
			ce, err := walk(n.Left)
			if err != nil {
				return nil, err
			}
			*e = *ce
		}
		return e, nil
	}
	if _, err := walk(root); err != nil {
		return nil, err
	}
	return est, nil
}

func relVar(e *OpEstimate) float64 {
	if e.Rho <= 0 {
		return 0
	}
	return e.Var / (e.Rho * e.Rho)
}
