package uaqetp

import (
	"context"
	"testing"
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
