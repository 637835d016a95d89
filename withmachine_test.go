package uaqetp

import (
	"context"
	"testing"

	"repro/internal/hardware"
	"repro/internal/workload"
)

// openMachineTestSystem opens a small System over a fresh shared cache
// for the WithMachine tests.
func openMachineTestSystem(t *testing.T) (*System, *EstimateCache) {
	t.Helper()
	cache := NewEstimateCache(64)
	sys, err := Open(Config{
		DB: Uniform1G, Machine: "PC1", SamplingRatio: 0.05, Seed: 7, Cache: cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, cache
}

// TestWithMachineSharesCachesNotUnits is the cache-namespace audit as a
// test: WithMachine siblings must share the machine-independent cache
// sections (plan estimates, subtree passes, run results) and must NOT
// share anything machine-dependent (calibrated units, measured times).
func TestWithMachineSharesCachesNotUnits(t *testing.T) {
	sys, cache := openMachineTestSystem(t)
	sib, err := sys.WithMachine(hardware.PC2())
	if err != nil {
		t.Fatal(err)
	}
	if sib == sys {
		t.Fatal("WithMachine(PC2) returned the receiver")
	}

	// Units are per machine: a PC2 sibling calibrates its own, and they
	// match what a from-scratch Open on PC2 would have found.
	u1, u2 := sys.UnitDists(), sib.UnitDists()
	if u1 == u2 {
		t.Fatal("WithMachine sibling shares calibration units with its parent")
	}
	fresh, err := Open(Config{DB: Uniform1G, Machine: "PC2", SamplingRatio: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.UnitDists() != u2 {
		t.Error("WithMachine(PC2) units differ from Open(Machine: PC2) units")
	}

	qs, err := sys.GenerateWorkload(workload.SelJoin, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]

	// Estimates are machine-independent: the sibling's first prediction
	// of a plan the parent already predicted must hit the plan section,
	// not recompute the sampling pass.
	if _, err := sys.PredictContext(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	pred2, err := sib.PredictContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Errorf("sibling prediction did not reuse the parent's sampling pass: hits %d→%d, misses %d→%d",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}
	if after.SubtreeMisses != before.SubtreeMisses {
		t.Errorf("sibling prediction recomputed subtree passes: subtree misses %d→%d",
			before.SubtreeMisses, after.SubtreeMisses)
	}

	// ... but the predictions themselves reflect each machine's units:
	// PC2 is strictly faster, so its predicted mean must be lower.
	pred1, err := sys.PredictContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if pred2.Mean() >= pred1.Mean() {
		t.Errorf("PC2 predicted mean %g not below PC1's %g despite cheaper units",
			pred2.Mean(), pred1.Mean())
	}

	// Run results are machine-independent (the run-section namespace
	// omits the machine): the sibling's execution of the same query must
	// hit the run the parent computed, while its measured time reflects
	// the faster machine.
	t1, err := sys.ExecuteContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	beforeRun := cache.Stats()
	t2, err := sib.ExecuteContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	afterRun := cache.Stats()
	if afterRun.RunHits != beforeRun.RunHits+1 || afterRun.RunMisses != beforeRun.RunMisses {
		t.Errorf("sibling execution did not reuse the run result: run hits %d→%d, misses %d→%d",
			beforeRun.RunHits, afterRun.RunHits, beforeRun.RunMisses, afterRun.RunMisses)
	}
	if t1 == t2 {
		t.Error("PC1 and PC2 measured identical times for the same query")
	}
}

// TestWithMachineDriftedProfile pins the fleet-synthesis path: a
// drifted sibling calibrates honestly against its slower truth, so its
// units — and therefore its predictions — shift with the drift, while
// the same-profile fast path returns the receiver.
func TestWithMachineDriftedProfile(t *testing.T) {
	sys, _ := openMachineTestSystem(t)

	same, err := sys.WithMachine(hardware.PC1())
	if err != nil {
		t.Fatal(err)
	}
	if same != sys {
		t.Error("WithMachine with the current profile did not return the receiver")
	}

	drifted, err := hardware.PC1().WithDrift(0.5)
	if err != nil {
		t.Fatal(err)
	}
	sib, err := sys.WithMachine(drifted)
	if err != nil {
		t.Fatal(err)
	}
	if got := sib.Machine().Name; got != "PC1+d0.5" {
		t.Errorf("sibling machine name %q", got)
	}
	if got := sib.Config().Machine; got != "PC1+d0.5" {
		t.Errorf("sibling Config().Machine %q", got)
	}
	// Calibration sees the drift: every unit mean estimate should land
	// well above the undrifted one (50% drift dwarfs calibration noise).
	u0, ud := sys.UnitDists(), sib.UnitDists()
	for i := range u0 {
		if ud[i].Mu <= u0[i].Mu {
			t.Errorf("unit %d: drifted calibrated mean %g not above base %g", i, ud[i].Mu, u0[i].Mu)
		}
	}

	qs, err := sys.GenerateWorkload(workload.SelJoin, 1)
	if err != nil {
		t.Fatal(err)
	}
	p0, err := sys.PredictContext(context.Background(), qs[0])
	if err != nil {
		t.Fatal(err)
	}
	pd, err := sib.PredictContext(context.Background(), qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if pd.Mean() <= p0.Mean() {
		t.Errorf("drifted machine predicted mean %g not above base %g", pd.Mean(), p0.Mean())
	}

	// Recalibrating the sibling stays on the sibling: the parent's units
	// are untouched (per-machine recalibration is what lets drifted
	// machines diverge honestly in the serving layer).
	if _, err := sib.Recalibrate(999); err != nil {
		t.Fatal(err)
	}
	if sys.UnitDists() != u0 {
		t.Error("recalibrating a sibling changed the parent's units")
	}
}
