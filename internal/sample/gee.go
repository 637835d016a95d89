package sample

import (
	"context"
	"fmt"
	"math"

	"repro/internal/catalog"
	"repro/internal/engine"
)

// GEE implements the Guaranteed-Error Estimator of Charikar et al. [11]
// for the number of distinct values in a population of size total, given
// the value frequencies observed in a sample of size n:
//
//	D_GEE = sqrt(total/n) * f1 + sum_{j>=2} f_j
//
// where f_j is the number of values appearing exactly j times in the
// sample. The paper names GEE as the estimator it plans to incorporate
// for aggregate operators ("we are working to incorporate sampling-based
// estimators for aggregates (e.g., the GEE estimator [11])",
// Section 3.2.2); this package provides exactly that integration.
func GEE(sampleValues []int64, total float64) float64 {
	n := float64(len(sampleValues))
	if n == 0 || total <= 0 {
		return 0
	}
	counts := make(map[int64]int, len(sampleValues))
	for _, v := range sampleValues {
		counts[v]++
	}
	var f1, rest float64
	for _, c := range counts {
		if c == 1 {
			f1++
		} else {
			rest++
		}
	}
	scale := math.Sqrt(total / n)
	if scale < 1 {
		scale = 1
	}
	d := scale*f1 + rest
	if d > total {
		d = total
	}
	if d < 1 && len(counts) > 0 {
		d = 1
	}
	return d
}

// AggEstimator selects how aggregate output cardinalities are estimated.
type AggEstimator int

// Aggregate estimation strategies.
const (
	// OptimizerAgg uses the optimizer's catalog statistics (the paper's
	// default, Algorithm 1 lines 3-5).
	OptimizerAgg AggEstimator = iota
	// GEEAgg applies the GEE distinct-value estimator to the aggregate's
	// sampled input: it sees only the groups that survive the query's
	// selections and joins, which the catalog cannot.
	GEEAgg
)

// String implements fmt.Stringer.
func (a AggEstimator) String() string {
	switch a {
	case OptimizerAgg:
		return "optimizer"
	case GEEAgg:
		return "GEE"
	default:
		return fmt.Sprintf("AggEstimator(%d)", int(a))
	}
}

// Opts configures the estimation pass.
type Opts struct {
	Agg AggEstimator
}

// EstimateWithOpts is Estimate with configuration; see Estimate.
func EstimateWithOpts(root *engine.Node, sdb *DB, cat *catalog.Catalog, opts Opts) (*Estimates, error) {
	return estimatePlan(context.Background(), root, sdb, cat, nil, opts.Agg)
}

// geeAggregateCard estimates an aggregate's output cardinality from its
// sampled input rows: the distinct group keys surviving upstream
// selections and joins, extrapolated by GEE to the estimated input
// cardinality.
func geeAggregateCard(n *engine.Node, child *Pass) (float64, bool) {
	if n.GroupCol == "" {
		return 1, true // scalar aggregate
	}
	col, ord := child.column(n.GroupCol)
	if ord < 0 || child.rows() == 0 {
		return 0, false
	}
	vals := make([]int64, child.rows())
	for i := range vals {
		vals[i] = col[child.prov[i*child.numLeaves+ord]]
	}
	return GEE(vals, math.Max(child.est.EstCard, float64(len(vals)))), true
}
