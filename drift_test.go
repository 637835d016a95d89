package uaqetp

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/hardware"
)

// sameTruth fails the test unless got executes, measures and
// recalibrates joinQuery exactly as want does. Recalibration runs on a
// façade of want, so want's own units stay as they were.
func sameTruth(t *testing.T, what string, got, want *System) {
	t.Helper()
	ctx := context.Background()
	q := joinQuery()
	ge, err := got.ExecuteContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	we, err := want.ExecuteContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if ge != we {
		t.Errorf("%s: Execute measured %v, want %v", what, ge, we)
	}
	gm, err := got.Measure(q)
	if err != nil {
		t.Fatal(err)
	}
	wm, err := want.Measure(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gm, wm) {
		t.Errorf("%s: Measure read %+v, want %+v", what, *gm, *wm)
	}
	const seed = 404
	gu, err := got.With().Recalibrate(seed)
	if err != nil {
		t.Fatal(err)
	}
	wu, err := want.With().Recalibrate(seed)
	if err != nil {
		t.Fatal(err)
	}
	if gu != wu {
		t.Errorf("%s: Recalibrate(%d) calibrated %v, want %v", what, seed, gu, wu)
	}
}

// TestDriftInjectedTruth: a drift-injected System executes, measures
// and recalibrates as its pre-drift receiver until the switch fires,
// and as the drifted machine's sibling after; it predicts on the
// receiver's units throughout.
func TestDriftInjectedTruth(t *testing.T) {
	sys, _ := openMachineTestSystem(t)
	slow, err := sys.WithMachine(hardware.PC2())
	if err != nil {
		t.Fatal(err)
	}
	drifted, sw, err := sys.WithDriftInjection(hardware.PC2())
	if err != nil {
		t.Fatal(err)
	}
	if drifted.UnitDists() != sys.UnitDists() {
		t.Error("drift-injected System does not predict on its receiver's units")
	}
	sameTruth(t, "before the switch", drifted, sys)
	sw.Switch()
	sameTruth(t, "after the switch", drifted, slow)
	if drifted.UnitDists() != sys.UnitDists() {
		t.Error("the switch moved the drift-injected System's units")
	}
}

// TestDriftInjectedWithMachine: WithMachine on a drift-injected System,
// before or after its switch, yields the undrifted System on the new
// machine — the one WithMachine derives from the pre-drift receiver.
func TestDriftInjectedWithMachine(t *testing.T) {
	sys, _ := openMachineTestSystem(t)
	drifted, sw, err := sys.WithDriftInjection(hardware.PC2())
	if err != nil {
		t.Fatal(err)
	}
	pc1Drift, err := hardware.PC1().WithDrift(0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"before the switch", "after the switch"} {
		for _, p := range []*hardware.Profile{hardware.PC1(), hardware.PC2(), pc1Drift} {
			got, err := drifted.WithMachine(p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sys.WithMachine(p)
			if err != nil {
				t.Fatal(err)
			}
			if got.UnitDists() != want.UnitDists() {
				t.Errorf("%s, %s: units differ from the undrifted sibling's", phase, p.Name)
			}
			sameTruth(t, phase+", "+p.Name, got, want)
		}
		sw.Switch()
	}
}
