// Concurrency tests: one System shared by many goroutines must be
// race-free (run with -race) and fully deterministic — for a fixed
// Config.Seed, every Predict/PredictBatch/Execute result is
// byte-identical to the serial baseline no matter how calls interleave
// or how many workers a batch uses.
package uaqetp

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
)

// predFingerprint renders every float of a prediction via its exact bit
// pattern, so equality means byte-identical results.
func predFingerprint(p *Prediction) string {
	s := fmt.Sprintf("mu=%x sigma=%x covD=%x covB=%x",
		math.Float64bits(p.Dist.Mu), math.Float64bits(p.Dist.Sigma),
		math.Float64bits(p.CovDirect), math.Float64bits(p.CovBound))
	for _, op := range p.PerOperator {
		s += fmt.Sprintf(" %d:%v:%x:%x", op.NodeID, op.Kind,
			math.Float64bits(op.Mean), math.Float64bits(op.Var))
	}
	return s
}

// stressQueries is a small mixed workload: scans, 2-way and 3-way joins.
func stressQueries() []*Query {
	return []*Query{
		{
			Name:   "c-scan",
			Tables: []string{"customer"},
			Preds:  []Predicate{{Col: "c_acctbal", Op: Le, Lo: 3000}},
		},
		{
			Name:   "l-scan",
			Tables: []string{"lineitem"},
			Preds:  []Predicate{{Col: "l_quantity", Op: Le, Lo: 30}},
		},
		{
			Name:   "ol-join",
			Tables: []string{"orders", "lineitem"},
			Preds:  []Predicate{{Col: "o_totalprice", Op: Le, Lo: 40000}},
			Joins: []JoinCond{{
				LeftTable: "orders", LeftCol: "o_orderkey",
				RightTable: "lineitem", RightCol: "l_orderkey",
			}},
		},
		{
			Name:   "co-join",
			Tables: []string{"customer", "orders"},
			Preds:  []Predicate{{Col: "c_acctbal", Op: Le, Lo: 5000}},
			Joins: []JoinCond{{
				LeftTable: "customer", LeftCol: "c_custkey",
				RightTable: "orders", RightCol: "o_custkey",
			}},
		},
		{
			Name:   "col-3way",
			Tables: []string{"customer", "orders", "lineitem"},
			Preds:  []Predicate{{Col: "o_orderdate", Op: Le, Lo: 1500}},
			Joins: []JoinCond{
				{LeftTable: "customer", LeftCol: "c_custkey", RightTable: "orders", RightCol: "o_custkey"},
				{LeftTable: "orders", LeftCol: "o_orderkey", RightTable: "lineitem", RightCol: "l_orderkey"},
			},
		},
	}
}

// TestConcurrentUseDeterministic fires 64+ goroutines through Predict,
// PredictBatch, and Execute on one System and asserts every result
// matches the serial baseline bit for bit.
func TestConcurrentUseDeterministic(t *testing.T) {
	sys := testSystem(t)
	queries := stressQueries()

	// Serial baselines, computed before any concurrency. Use a second
	// System with the same seed for the baselines so memo state cannot
	// mask a divergence.
	base, err := Open(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantPred := make([]string, len(queries))
	wantExec := make([]float64, len(queries))
	for i, q := range queries {
		p, err := base.PredictContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		wantPred[i] = predFingerprint(p)
		a, err := base.ExecuteContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		wantExec[i] = a
	}

	const goroutines = 64
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qi := g % len(queries)
			switch g % 3 {
			case 0: // single prediction
				p, err := sys.PredictContext(context.Background(), queries[qi])
				if err != nil {
					errc <- err
					return
				}
				if got := predFingerprint(p); got != wantPred[qi] {
					errc <- fmt.Errorf("goroutine %d: Predict(%s) diverged:\n got %s\nwant %s",
						g, queries[qi].Name, got, wantPred[qi])
				}
			case 1: // batch with a goroutine-dependent worker count
				preds, err := sys.PredictBatchContext(context.Background(), queries, WithWorkers(1+g%8))
				if err != nil {
					errc <- err
					return
				}
				for i, p := range preds {
					if got := predFingerprint(p); got != wantPred[i] {
						errc <- fmt.Errorf("goroutine %d: PredictBatch[%d] diverged", g, i)
						return
					}
				}
			case 2: // simulated execution
				a, err := sys.ExecuteContext(context.Background(), queries[qi])
				if err != nil {
					errc <- err
					return
				}
				if a != wantExec[qi] {
					errc <- fmt.Errorf("goroutine %d: Execute(%s) = %v, want %v",
						g, queries[qi].Name, a, wantExec[qi])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestPredictBatchMatchesSerialAcrossWorkerCounts is the acceptance
// check for batch determinism: for a fixed seed, PredictBatch returns
// byte-identical predictions for every worker count, equal to a serial
// Predict loop.
func TestPredictBatchMatchesSerialAcrossWorkerCounts(t *testing.T) {
	sys := testSystem(t)
	queries := stressQueries()

	want := make([]string, len(queries))
	for i, q := range queries {
		p, err := sys.PredictContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = predFingerprint(p)
	}
	for _, workers := range []int{0, 1, 2, 4, 8, 32} {
		preds, err := sys.PredictBatchContext(context.Background(), queries, WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(preds) != len(queries) {
			t.Fatalf("workers=%d: %d predictions for %d queries", workers, len(preds), len(queries))
		}
		for i, p := range preds {
			if got := predFingerprint(p); got != want[i] {
				t.Errorf("workers=%d: query %d (%s) diverged from serial",
					workers, i, queries[i].Name)
			}
		}
	}
}

// TestPredictBatchErrors: a failing query yields an error naming it,
// while the healthy queries still produce predictions.
func TestPredictBatchErrors(t *testing.T) {
	sys := testSystem(t)
	queries := []*Query{
		stressQueries()[0],
		{Name: "broken", Tables: []string{"no_such_table"}},
		stressQueries()[1],
	}
	preds, err := sys.PredictBatchContext(context.Background(), queries, WithWorkers(2))
	if err == nil {
		t.Fatal("expected an error for the broken query")
	}
	if preds[0] == nil || preds[2] == nil {
		t.Error("healthy queries lost their predictions")
	}
	if preds[1] != nil {
		t.Error("broken query produced a prediction")
	}

	if _, err := sys.PredictBatchContext(context.Background(), []*Query{nil}); err == nil {
		t.Error("expected an error for a nil query")
	}
	empty, err := sys.PredictBatchContext(context.Background(), nil)
	if err != nil || len(empty) != 0 {
		t.Errorf("empty batch: %v, %v", empty, err)
	}
}

// TestEstimateMemoHits: repeated predictions of the same query must be
// served from the plan-signature memo.
func TestEstimateMemoHits(t *testing.T) {
	sys := testSystem(t)
	q := stressQueries()[2]
	if _, err := sys.PredictContext(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	h0 := sys.CacheStats().Hits
	if _, err := sys.PredictContext(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	h1 := sys.CacheStats().Hits
	if h1 != h0+1 {
		t.Errorf("second Predict did not hit the memo: hits %d -> %d", h0, h1)
	}
}

// TestConcurrentExecutionsShareOnePlanKey: many goroutines execute
// distinctly named queries through one shared Plan, so they fill and
// read its stream-key memo at once (run with -race). Every execution
// equals the same query executed alone on a fresh Plan over the same
// tree, and every memoized key equals rng.ExecKey.
func TestConcurrentExecutionsShareOnePlanKey(t *testing.T) {
	sys := testSystem(t)
	ctx := context.Background()
	q := joinQuery()
	shared, err := sys.Planner().BuildPlan(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	x := simExecutor{db: sys.db, profile: sys.profile, seed: sys.cfg.Seed, cache: sys.estCache, runNS: sys.runNS, ver: RNGv2}
	const workers, perWorker = 8, 200
	names := make([]string, workers*perWorker)
	want := make([]float64, len(names))
	for i := range names {
		names[i] = fmt.Sprintf("tenant/%s#%05d", q.Name, i)
		qi := *q
		qi.Name = names[i]
		if want[i], err = x.Execute(ctx, &qi, &Plan{root: shared.root}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(names); i += workers {
				qi := *q
				qi.Name = names[i]
				got, err := x.Execute(ctx, &qi, shared)
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[i] {
					t.Errorf("%s on the shared plan: %v, alone on a fresh plan: %v", names[i], got, want[i])
				}
				if k, ref := shared.execKey(sys.cfg.Seed, rng.NameOf(names[i])), rng.ExecKey(sys.cfg.Seed, names[i], shared.root.Sig); k != ref {
					t.Errorf("%s: memoized key %d, rng.ExecKey %d", names[i], k, ref)
				}
			}
		}(w)
	}
	wg.Wait()
}
