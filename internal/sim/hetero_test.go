package sim

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/hardware"
	"repro/internal/trace"
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
// GOMAXPROCS, with per-machine WithMachine siblings in play; and the
// shipped heterogeneous fleet's report labels and uses every machine.
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

	// Labeled fleets surface their machines' hardware in the report, and
	// least-risk spreads a loaded fleet over every machine. The labels
	// and the spread are read off the shipped four-machine fleet: the
	// light in-code fleet above leaves its drifted third machine idle,
	// as least-risk should when no backlog builds.
	rep := shipped(t, "scenario-hetero.json").rep
	if len(rep.PerMachine) != 4 {
		t.Fatalf("expected 4 machines, got %d", len(rep.PerMachine))
	}
	wantProfiles := []string{"PC2", "PC1", "PC1", "PC1"}
	wantDrift := []float64{0, 0, 2, 2}
	for m, mr := range rep.PerMachine {
		if mr.Profile != wantProfiles[m] || mr.Drift != wantDrift[m] {
			t.Errorf("machine %d labeled (%q, %g), want (%q, %g)",
				m, mr.Profile, mr.Drift, wantProfiles[m], wantDrift[m])
		}
		if mr.Executed == 0 {
			t.Errorf("machine %d executed nothing — routing starved it entirely", m)
		}
	}
}

// TestLabeledHomogeneousMatchesShorthand pins that a fleet means the
// same thing however it is written: two default-profile machines as the
// count shorthand and as a one-entry machine list give byte-equal
// reports — same routing, same cache traffic, same profile labels.
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
	if got, want := reportBytes(t, labeled), reportBytes(t, short); !bytes.Equal(got, want) {
		t.Errorf("labeled homogeneous fleet's report (%d bytes) differs from the count shorthand's (%d bytes)", len(got), len(want))
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

// TestCountFleetRoutesOnRecalibratedUnits pins that a count fleet reads
// each machine's own units, not only a labeled one's: on a homogeneous
// fleet of a machine whose model error is far wider than its
// calibration predicts, the recalibration cadence fires, and from the
// moment a machine's tenant façade swaps in its recalibrated predictor,
// that machine's least-risk candidates carry the façade's prediction;
// until then every candidate carries the base System's.
func TestCountFleetRoutesOnRecalibratedUnits(t *testing.T) {
	sc := testScenario()
	sc.RecalEvery = 2
	rs, pc1, cache := openScenario(t, sc)
	p := hardware.PC1()
	p.Name, p.ModelErrSigma = "test-wide-model-error", 0.6
	sys, err := pc1.WithMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	buf := trace.NewBuffer(trace.Full)
	if _, err := runOn(rs, sys, cache, runSinks{trace: buf}); err != nil {
		t.Fatal(err)
	}
	pool, err := sys.GenerateWorkload(rs.bench[0], rs.Tenants[0].Queries)
	if err != nil {
		t.Fatal(err)
	}
	baseMean := make(map[string]float64, len(pool))
	for _, q := range pool {
		pred, err := sys.PredictContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		baseMean[q.Name] = pred.Mean()
	}
	recalibrated := make(map[int]bool)
	own := 0
	for _, ev := range buf.Events() {
		switch {
		case ev.Kind == trace.KindRecalibration && ev.Recalibrated:
			recalibrated[ev.Machine] = true
		case ev.Kind == trace.KindPlacement:
			// Arrivals are clones named tenant/template#ordinal.
			_, tmpl, _ := strings.Cut(ev.Query, "/")
			tmpl, _, _ = strings.Cut(tmpl, "#")
			base, ok := baseMean[tmpl]
			if !ok {
				t.Fatalf("placement of %q, which is not in the pool", ev.Query)
			}
			for _, c := range ev.Candidates {
				if recalibrated[c.Machine] {
					own++
					if c.PredMean == base {
						t.Fatalf("seq %d: machine %d recalibrated, but its candidate carries the base prediction %g",
							ev.Seq, c.Machine, base)
					}
				} else if c.PredMean != base {
					t.Fatalf("seq %d: machine %d still on the base units, but its candidate predicts %g, base %g",
						ev.Seq, c.Machine, c.PredMean, base)
				}
			}
		}
	}
	if own == 0 {
		t.Fatalf("no placement after a recalibration (recalibrated machines %v): the scenario no longer exercises the swap", recalibrated)
	}
}
