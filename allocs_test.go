package uaqetp

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/sample"
)

// TestPredictWarmAllocs is the alloc-regression gate on the Predict hot
// path. With the plan memo, estimate cache, and prediction memo warm, a
// Predict call is three memo probes: the plan memo by a stack-built
// query fingerprint, the estimate cache by the key the plan memoizes,
// the prediction memo by pointers. The seed trajectory spent ~366 allocs
// and ~61 KB per call; the path allocates nothing now, and the budget
// of 2 catches a fingerprint, key or option struct moving back to the
// heap.
func TestPredictWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	sys := testSystem(t)
	q := joinQuery()
	if _, err := sys.PredictContext(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	perCall := testing.AllocsPerRun(100, func() {
		if _, err := sys.PredictContext(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 2
	if perCall > budget {
		t.Errorf("warm Predict allocates %.1f allocs/call, budget %d", perCall, budget)
	}
	t.Logf("warm Predict: %.1f allocs/call", perCall)
}

// coldJoin3 plans the fixed three-way join both cold gates measure.
func coldJoin3(t *testing.T, sys *System) *Plan {
	t.Helper()
	p, err := sys.Planner().BuildPlan(context.Background(), &Query{
		Name:   "cold-join3",
		Tables: []string{"customer", "orders", "lineitem"},
		Preds:  []Predicate{{Col: "o_totalprice", Op: Le, Lo: 25000}},
		Joins: []JoinCond{
			{LeftTable: "customer", LeftCol: "c_custkey", RightTable: "orders", RightCol: "o_custkey"},
			{LeftTable: "orders", LeftCol: "o_orderkey", RightTable: "lineitem", RightCol: "l_orderkey"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEstimateColdAllocs is the alloc-regression gate on the sampling
// pass itself: a memo-less estimate of a fixed three-way join. The
// row-materializing pass spent two slice headers per surviving sample
// row here (thousands of allocations); the provenance-only pass
// allocates per operator — one block, its two leaf slices, its memo key
// — plus one slice of estimates per plan, so the budget (the measured
// 42 plus a quarter) catches any return of per-row or per-tuple
// allocation, or of a memo key rendering its subtree (88 when it did).
func TestEstimateColdAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	sys := testSystem(t)
	p := coldJoin3(t, sys)
	perCall := testing.AllocsPerRun(100, func() {
		if _, err := sample.Estimate(p.root, sys.samples, sys.cat); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 53
	if perCall > budget {
		t.Errorf("cold Estimate allocates %.1f allocs/call, budget %d", perCall, budget)
	}
	t.Logf("cold Estimate: %.1f allocs/call", perCall)
}

// TestPredictColdAllocs is the sibling gate on the predictor itself: one
// memo-less core.Predict of the same three-way join from estimates
// computed beforehand. What it spends is its result: the Prediction and
// its per-operator slice. Cost functions and their terms are values, and
// the preorder, variables, models and items live in a pooled scratch.
// The budget (the measured 2 plus a quarter, rounded up) catches any
// per-function, per-term or per-plan scratch allocation coming back (88
// per call when each cost function allocated itself, its coefficients
// and two term lists).
func TestPredictColdAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	sys := testSystem(t)
	p := coldJoin3(t, sys)
	est, err := sample.Estimate(p.root, sys.samples, sys.cat)
	if err != nil {
		t.Fatal(err)
	}
	pred := core.New(sys.cat, sys.cal.Units, core.All)
	perCall := testing.AllocsPerRun(100, func() {
		if _, err := pred.Predict(p.root, est); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 3
	if perCall > budget {
		t.Errorf("cold Predict allocates %.1f allocs/call, budget %d", perCall, budget)
	}
	t.Logf("cold Predict: %.1f allocs/call", perCall)
}
