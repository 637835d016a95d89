package uaqetp

import (
	"context"
	"testing"
)

// TestRunCacheStripsRows pins the run-section memory contract on the
// pooled execution path: the LRU must hold only stripped result trees —
// per-operator counts, cardinalities, and selectivities, never the
// materialized rows, which are the overwhelming bulk of an OpResult.
// Execute here reaches the cache through the same runSimulated seam the
// serve drain path's pooled outcomes use, so a regression in either
// pins row data fleet-wide.
func TestRunCacheStripsRows(t *testing.T) {
	sys := testSystem(t)
	q := joinQuery()
	if _, err := sys.ExecuteContext(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	p, err := sys.planner.BuildPlan(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	k := p.key(&p.run, sys.runNS)
	res, ok := sys.estCache.runs.lru.Get(k.key, k.hash)
	if !ok {
		t.Fatal("executed plan not in the run cache")
	}
	for _, op := range res.Results() {
		if op.Rows != nil || op.Cols != nil {
			t.Errorf("cached result for %v retains materialized rows (%d rows, %d cols)",
				op.Node.Kind, len(op.Rows), len(op.Cols))
		}
	}
}
