package uaqetp

import (
	"context"
	"testing"

	"repro/internal/sample"
)

// TestPredictWarmAllocs is the alloc-regression gate on the Predict hot
// path. With the plan memo, estimate cache, and prediction memo warm, a
// Predict call is two memo probes plus the query fingerprint — the seed
// trajectory spent ~366 allocs and ~61 KB per call, the memoized path
// runs near 10 allocs. The budget leaves headroom for map growth and
// interface boxing noise while catching any return of per-call sampling
// or assembly work.
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
	const budget = 40
	if perCall > budget {
		t.Errorf("warm Predict allocates %.1f allocs/call, budget %d", perCall, budget)
	}
	t.Logf("warm Predict: %.1f allocs/call", perCall)
}

// TestEstimateColdAllocs is the alloc-regression gate on the sampling
// pass itself: a memo-less estimate of a fixed three-way join. The
// row-materializing pass spent two slice headers per surviving sample
// row here (thousands of allocations); the provenance-only pass
// allocates per operator — one block, its leaf maps, its memo key — so
// the budget catches any return of per-row or per-tuple allocation.
func TestEstimateColdAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	sys := testSystem(t)
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
	perCall := testing.AllocsPerRun(100, func() {
		if _, err := sample.Estimate(p.root, sys.samples, sys.cat); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 190
	if perCall > budget {
		t.Errorf("cold Estimate allocates %.1f allocs/call, budget %d", perCall, budget)
	}
	t.Logf("cold Estimate: %.1f allocs/call", perCall)
}
