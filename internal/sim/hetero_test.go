package sim

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// heteroTestScenario is a small fast mixed-profile scenario for the
// determinism tests: three machines across two profiles plus drift.
func heteroTestScenario() Scenario {
	sc := testScenario()
	sc.Machines = FleetList(
		MachineSpec{Profile: "PC2"},
		MachineSpec{Profile: "PC1"},
		MachineSpec{Profile: "PC1", Drift: 0.5},
	)
	return sc
}

// TestSimHeterogeneousDeterministic extends the core determinism
// contract to mixed-profile fleets: same scenario + seed => deep-equal
// Report and byte-identical JSON across repeated runs and across
// GOMAXPROCS, with per-machine WithMachine siblings in play.
func TestSimHeterogeneousDeterministic(t *testing.T) {
	sc := heteroTestScenario()
	r1, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("heterogeneous reports differ across runs:\n%+v\nvs\n%+v", r1, r2)
	}

	prev := runtime.GOMAXPROCS(1)
	r3, err := Run(sc)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := r1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j3, err := r3.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j3) {
		t.Fatal("heterogeneous JSON report depends on GOMAXPROCS")
	}

	// Labeled fleets surface their machines' hardware in the report.
	if len(r1.PerMachine) != 3 {
		t.Fatalf("expected 3 machines, got %d", len(r1.PerMachine))
	}
	wantProfiles := []string{"PC2", "PC1", "PC1"}
	wantDrift := []float64{0, 0, 0.5}
	for m, mr := range r1.PerMachine {
		if mr.Profile != wantProfiles[m] || mr.Drift != wantDrift[m] {
			t.Errorf("machine %d labeled (%q, %g), want (%q, %g)",
				m, mr.Profile, mr.Drift, wantProfiles[m], wantDrift[m])
		}
		if mr.Executed == 0 {
			t.Errorf("machine %d executed nothing — routing starved it entirely", m)
		}
	}
}

// TestLabeledHomogeneousMatchesShorthand pins that the per-machine
// prediction path degenerates correctly: a labeled fleet of identical
// default-profile machines makes the same placement, admission, and
// deadline decisions as the count shorthand — only the report's machine
// labels (and cache traffic) differ.
func TestLabeledHomogeneousMatchesShorthand(t *testing.T) {
	sc := testScenario()
	sc.Machines = FleetOf(2)
	short, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Machines = FleetList(MachineSpec{Count: 2})
	labeled, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(short.Tenants, labeled.Tenants) {
		t.Errorf("tenant outcomes differ between shorthand and labeled homogeneous fleets:\n%+v\nvs\n%+v",
			short.Tenants, labeled.Tenants)
	}
	if short.PerMachine[0].Profile != "" {
		t.Error("count shorthand leaked a profile label into the report")
	}
	if labeled.PerMachine[0].Profile != "PC1" {
		t.Errorf("labeled fleet machine 0 profile %q, want PC1", labeled.PerMachine[0].Profile)
	}
}

// TestHeterogeneousLeastRiskAdvantage is the acceptance criterion: on
// the shipped heterogeneous scenario, routing with each machine's own
// units (least-risk) attains strictly more SLOs than load-only routing
// (least-queue) AND than the same risk arithmetic with fleet-shared
// units (least-risk-shared) — and the least-risk-over-least-queue
// margin is strictly wider than on the homogeneous flattening of the
// same scenario, where per-machine units have nothing to exploit.
func TestHeterogeneousLeastRiskAdvantage(t *testing.T) {
	sc := loadShipped(t, "scenario-hetero.json")
	// One Open for all five runs (the placement decisions are pure
	// functions of the scenario; sharing the cache only saves work).
	_, sys, cache := openScenario(t, sc)
	att := func(router string, machines Fleet) float64 {
		t.Helper()
		sc := sc
		sc.Router = router
		sc.Machines = machines
		rs, err := sc.resolve()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := runOn(rs, sys, cache, runSinks{})
		if err != nil {
			t.Fatal(err)
		}
		return rep.SLOAttainment
	}

	hetero := sc.Machines
	lr := att(RouterLeastRisk, hetero)
	lq := att(RouterLeastQueue, hetero)
	shared := att(RouterLeastRiskShared, hetero)
	if lr <= lq {
		t.Errorf("per-machine least-risk attainment %.4f not above least-queue %.4f", lr, lq)
	}
	if lr <= shared {
		t.Errorf("per-machine least-risk attainment %.4f not above fleet-shared-units least-risk %.4f", lr, shared)
	}

	homog := FleetOf(hetero.Size())
	lrH := att(RouterLeastRisk, homog)
	lqH := att(RouterLeastQueue, homog)
	if (lr - lq) <= (lrH - lqH) {
		t.Errorf("heterogeneous least-risk margin %.4f not wider than homogeneous %.4f",
			lr-lq, lrH-lqH)
	}
	t.Logf("hetero: least-risk %.4f, shared-units %.4f, least-queue %.4f; homog margin %.4f",
		lr, shared, lq, lrH-lqH)
}

// TestFleetJSON pins the polymorphic machines schema: a bare count and
// a spec list both parse, marshal back in their own form, and resolve
// to the expected machines; unknown profiles are rejected with the
// registered vocabulary in the error.
func TestFleetJSON(t *testing.T) {
	var f Fleet
	if err := f.UnmarshalJSON([]byte(`3`)); err != nil {
		t.Fatal(err)
	}
	if f.Labeled() || f.Size() != 3 {
		t.Errorf("count form parsed as labeled=%v size=%d", f.Labeled(), f.Size())
	}
	specs, err := f.resolve("PC2")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 || specs[0].Profile != "PC2" {
		t.Errorf("count form resolved to %+v", specs)
	}
	if b, _ := f.MarshalJSON(); string(b) != "3" {
		t.Errorf("count form marshaled to %s", b)
	}

	if err := f.UnmarshalJSON([]byte(`[{"profile": "PC2"}, {"drift": 0.5, "count": 2}]`)); err != nil {
		t.Fatal(err)
	}
	if !f.Labeled() || f.Size() != 3 {
		t.Errorf("list form parsed as labeled=%v size=%d", f.Labeled(), f.Size())
	}
	specs, err = f.resolve("PC1")
	if err != nil {
		t.Fatal(err)
	}
	want := []MachineSpec{
		{Profile: "PC2", Count: 1},
		{Profile: "PC1", Drift: 0.5, Count: 1},
		{Profile: "PC1", Drift: 0.5, Count: 1},
	}
	if !reflect.DeepEqual(specs, want) {
		t.Errorf("list form resolved to %+v, want %+v", specs, want)
	}
	if b, _ := f.MarshalJSON(); !strings.HasPrefix(string(b), "[") {
		t.Errorf("list form marshaled to %s", b)
	}

	if err := f.UnmarshalJSON([]byte(`[{"profile": "PC9"}]`)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.resolve("PC1"); err == nil || !strings.Contains(err.Error(), "PC1, PC2") {
		t.Errorf("unknown profile error does not list the registry: %v", err)
	}

	// Typo'd spec keys must be rejected, not silently dropped into the
	// default machine (the outer decoder's DisallowUnknownFields does
	// not reach into a custom Unmarshaler).
	if err := f.UnmarshalJSON([]byte(`[{"profle": "PC2"}]`)); err == nil {
		t.Error("unknown machine-spec field accepted")
	}
	if err := f.UnmarshalJSON([]byte(`[{"profile": "PC1", "dirft": 0.5}]`)); err == nil {
		t.Error("typo'd drift field accepted")
	}
}
