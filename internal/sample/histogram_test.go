package sample

import (
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
)

func TestHistogramScanEstimate(t *testing.T) {
	db := synthDB(20000, 100, 100, 30)
	cat := catalog.Build(db)
	plan := scanPlan(&engine.Predicate{Col: "b", Op: engine.Lt, Lo: 30})
	truth := trueSelectivity(t, db, plan)
	est, err := EstimateHistogram(plan, cat, HistogramOpts{})
	if err != nil {
		t.Fatal(err)
	}
	e := est.Ops[plan.ID]
	if math.Abs(e.Rho-truth) > 0.05 {
		t.Errorf("histogram scan estimate %v vs truth %v", e.Rho, truth)
	}
	if e.Var <= 0 {
		t.Error("scan estimate has zero variance")
	}
	// Bucket-resolution variance must be small relative to the estimate.
	if e.Sigma() > 0.1 {
		t.Errorf("scan sigma %v implausibly large", e.Sigma())
	}
}

func TestHistogramJoinUncertaintyGrowsWithDepth(t *testing.T) {
	db := synthDB(4000, 4000, 20, 31)
	cat := catalog.Build(db)
	plan := joinPlan()
	est, err := EstimateHistogram(plan, cat, HistogramOpts{})
	if err != nil {
		t.Fatal(err)
	}
	joinE := &est.Ops[plan.ID]
	leftE := &est.Ops[plan.Left.ID]
	if joinE.Var <= 0 {
		t.Fatal("join estimate has zero variance")
	}
	// Relative uncertainty of the join must exceed that of its inputs
	// (the join factor adds its own error).
	if relVar(joinE) <= relVar(leftE) {
		t.Errorf("join rel var %v not above scan rel var %v", relVar(joinE), relVar(leftE))
	}
}

func TestHistogramJoinRelSigmaDefault(t *testing.T) {
	db := synthDB(2000, 2000, 10, 32)
	cat := catalog.Build(db)
	plan := joinPlan()
	def, err := EstimateHistogram(plan, cat, HistogramOpts{})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := EstimateHistogram(plan, cat, HistogramOpts{JoinRelSigma: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Ops[plan.ID].Var >= def.Ops[plan.ID].Var {
		t.Error("smaller JoinRelSigma did not reduce the join variance")
	}
}

func TestHistogramLeafComponentsSumToVariance(t *testing.T) {
	db := synthDB(3000, 3000, 10, 33)
	cat := catalog.Build(db)
	plan := joinPlan()
	est, err := EstimateHistogram(plan, cat, HistogramOpts{})
	if err != nil {
		t.Fatal(err)
	}
	e := est.Ops[plan.ID]
	var sum float64
	for _, v := range e.LeafComp {
		sum += v
	}
	if math.Abs(sum-e.Var) > 1e-12*math.Max(1, e.Var) {
		t.Errorf("leaf components %v do not sum to variance %v", sum, e.Var)
	}
}

func TestHistogramAggregatePassThrough(t *testing.T) {
	db := synthDB(5000, 100, 10, 34)
	cat := catalog.Build(db)
	plan := &engine.Node{Kind: engine.Aggregate, GroupCol: "b",
		Left: &engine.Node{Kind: engine.Sort,
			Left: &engine.Node{Kind: engine.SeqScan, Table: "r"}}}
	plan.Finalize()
	est, err := EstimateHistogram(plan, cat, HistogramOpts{})
	if err != nil {
		t.Fatal(err)
	}
	agg := est.Ops[plan.ID]
	if !agg.FromOptimizer {
		t.Error("aggregate should be marked FromOptimizer")
	}
	if agg.EstCard < 5 || agg.EstCard > 15 {
		t.Errorf("aggregate card %v, want ~10", agg.EstCard)
	}
	sortE := est.Ops[plan.Left.ID]
	scanE := est.Ops[plan.Left.Left.ID]
	if sortE.Rho != scanE.Rho || sortE.Var != scanE.Var {
		t.Error("sort did not pass its child's estimate through")
	}
}

// TestHistogramJoinAboveAggregateIsTainted pins the one shape whose leaf
// set would not be a contiguous run — a join above a mid-tree aggregate:
// like the sampling pass, the histogram estimator gives such a join, and
// every join above it, the optimizer-style cardinality with zero
// variance and no leaf run, while the scans beside the aggregate keep
// theirs.
func TestHistogramJoinAboveAggregateIsTainted(t *testing.T) {
	db := synthDB(1000, 800, 12, 35)
	cat := catalog.Build(db)
	// (r join Aggregate(s)) join r: without the taint the inner join's
	// leaves would be {0} and the outer's {0, 2}.
	plan := &engine.Node{
		Kind: engine.HashJoin, LeftCol: "b", RightCol: "b",
		Left: &engine.Node{
			Kind: engine.HashJoin, LeftCol: "b", RightCol: "d",
			Left: &engine.Node{Kind: engine.SeqScan, Table: "r"},
			Right: &engine.Node{Kind: engine.Aggregate, GroupCol: "d",
				Left: &engine.Node{Kind: engine.SeqScan, Table: "s"}},
		},
		Right: &engine.Node{Kind: engine.SeqScan, Table: "r"},
	}
	plan.Finalize()
	est, err := EstimateHistogram(plan, cat, HistogramOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*engine.Node{plan, plan.Left, plan.Left.Right} {
		e := est.Ops[n.ID]
		if !e.FromOptimizer || e.Var != 0 || len(e.LeafComp) != 0 || len(e.LeafN) != 0 || e.Rho <= 0 || e.EstCard <= 0 {
			t.Errorf("node %d (%v): %+v, want an optimizer estimate with zero variance and no leaf run", n.ID, n.Kind, e)
		}
	}
	for ord, n := range []*engine.Node{plan.Left.Left, plan.Left.Right.Left, plan.Right} {
		e := est.Ops[n.ID]
		if e.FromOptimizer || e.LeafOff != ord || len(e.LeafComp) != 1 || len(e.LeafN) != 1 {
			t.Errorf("scan %d: %+v, want the one-leaf run at ordinal %d", n.ID, e, ord)
		}
	}
}
