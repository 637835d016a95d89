package core

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"repro/internal/datagen"
)

// predictionBits is the SHA-256 of every field of pred, every float as
// %x: equal strings are bit-equal predictions.
func predictionBits(pred *Prediction) string {
	h := sha256.New()
	digestPrediction(h, pred)
	return string(h.Sum(nil))
}

// TestConcurrentPredictBitEqual shares one Predictor among 4 goroutines,
// each predicting all 64 generated plans (analytically and by a short
// Monte-Carlo run) from a different starting plan, so pooled assemblies
// pass between plans of different sizes. Every result must be bit-equal
// to a serial run's; under -race it also checks that no two calls share
// an assembly.
func TestConcurrentPredictBitEqual(t *testing.T) {
	plans, ests, cat := genPlans(t, datagen.Uniform1G, 32, 1)
	p := New(cat, pinnedUnits(t), All)
	run := func(i int) (string, error) {
		pred, err := p.Predict(plans[i], ests[i])
		if err != nil {
			return "", err
		}
		mc, err := p.PredictMonteCarlo(plans[i], ests[i], MCOptions{Draws: 50, Seed: int64(i)})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s %x %x", predictionBits(pred), mc.MeanVal, mc.Variance), nil
	}
	want := make([]string, len(plans))
	for i := range plans {
		var err error
		if want[i], err = run(i); err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range plans {
				i := (k + w*len(plans)/workers) % len(plans)
				got, err := run(i)
				if err != nil {
					t.Errorf("worker %d plan %d: %v", w, i, err)
					return
				}
				if got != want[i] {
					t.Errorf("worker %d plan %d: prediction differs from the serial run", w, i)
				}
			}
		}()
	}
	wg.Wait()
}

// TestAssemblyPoolRetainsNoReferences pins the pooling contract of the
// predictor's scratch: an assembly back in assemblyPool holds no
// *engine.Node (not in its preorder, not in a cost model) and no slice
// of the estimates, anywhere in its arrays' capacity, so the pool never
// pins a plan or a memoized sampling pass. On one goroutine sync.Pool's
// per-P slot hands Predict's released assembly straight back; a Put the
// race detector drops, or a GC, leaves an empty one, and the test
// predicts again.
func TestAssemblyPoolRetainsNoReferences(t *testing.T) {
	plans, ests, cat := genPlans(t, datagen.Uniform1G, 2, 1)
	p := New(cat, pinnedUnits(t), All)
	for attempt := 0; attempt < 8; attempt++ {
		if _, err := p.Predict(plans[3], ests[3]); err != nil {
			t.Fatal(err)
		}
		a := assemblyPool.Get().(*assembly)
		if cap(a.nodes) == 0 {
			continue
		}
		if len(a.nodes)+len(a.vars)+len(a.info)+len(a.items)+len(a.models)+len(a.selfRho) != 0 {
			t.Errorf("released assembly is not empty: %d nodes, %d items", len(a.nodes), len(a.items))
		}
		for i, n := range a.nodes[:cap(a.nodes)] {
			if n != nil {
				t.Errorf("nodes[%d] retains node %d", i, n.ID)
			}
		}
		for i, m := range a.models[:cap(a.models)] {
			if m.Node != nil {
				t.Errorf("models[%d] retains node %d", i, m.Node.ID)
			}
		}
		for i, v := range a.info[:cap(a.info)] {
			if v.leafComp != nil {
				t.Errorf("info[%d] retains the estimate's leaf slice", i)
			}
		}
		return
	}
	t.Fatal("the pool never returned a used assembly")
}
