package sim

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/serve"
)

// testScenario is a small fast scenario shared by the determinism and
// arrival-process tests.
func testScenario() Scenario {
	return Scenario{
		Name:     "test",
		Seed:     11,
		Horizon:  20,
		Machines: FleetOf(2),
		Router:   RouterLeastRisk,
		DB:       "uniform-1G",
		Tenants: []TenantSpec{{
			Name:     "alpha",
			Bench:    "seljoin",
			Queries:  8,
			Deadline: 1.2,
			SLO:      serve.SLO{Confidence: 0.9, DefaultDeadline: 1.2, Quantile: 0.9},
			Arrivals: ArrivalSpec{Process: processPoisson, Rate: 4},
		}},
	}
}

// TestSimDeterministic is the core contract: same scenario + seed =>
// deep-equal Report and byte-identical JSON, across repeated runs and
// across GOMAXPROCS settings (the prediction stack may parallelize
// internally; results must not depend on it).
func TestSimDeterministic(t *testing.T) {
	sc := testScenario()
	r1, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("reports differ across runs:\n%+v\nvs\n%+v", r1, r2)
	}

	prev := runtime.GOMAXPROCS(1)
	r3, err := Run(sc)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r3) {
		t.Fatalf("report depends on GOMAXPROCS:\n%+v\nvs\n%+v", r1, r3)
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
		t.Fatal("JSON reports not byte-identical")
	}
	if r1.Arrivals == 0 || r1.Events <= r1.Arrivals {
		t.Fatalf("implausible event counts: %d events, %d arrivals", r1.Events, r1.Arrivals)
	}
}

// TestBurstyRejectsMoreThanPoisson pins that admission actually reacts
// to burstiness: at equal mean arrival rate, the bursty process — the
// same offered load compressed into on-phases — must draw strictly more
// rejections than Poisson arrivals.
func TestBurstyRejectsMoreThanPoisson(t *testing.T) {
	base := testScenario()
	base.Machines = FleetOf(1)
	base.Tenants[0].Arrivals = ArrivalSpec{Process: processPoisson, Rate: 4}

	poisson, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Tenants[0].Arrivals = ArrivalSpec{
		Process: processBursty, Rate: 4, OnFraction: 0.2, Cycle: 5,
	}
	bursty, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	pRej, bRej := poisson.Tenants[0].Rejected, bursty.Tenants[0].Rejected
	pSub, bSub := poisson.Tenants[0].Submitted, bursty.Tenants[0].Submitted
	if pSub == 0 || bSub == 0 {
		t.Fatalf("empty simulation: poisson %d, bursty %d submissions", pSub, bSub)
	}
	// Compare rejection *fractions* so a random excess of bursty
	// arrivals cannot fake the effect.
	pFrac := float64(pRej) / float64(pSub)
	bFrac := float64(bRej) / float64(bSub)
	if bFrac <= pFrac {
		t.Fatalf("bursty rejection fraction %.4f (%d/%d) not above poisson %.4f (%d/%d)",
			bFrac, bRej, bSub, pFrac, pRej, pSub)
	}
}

// TestLeastRiskBeatsRoundRobin is the acceptance criterion: on the
// shipped bursty scenario, routing on the predicted distributions
// (least-risk) attains strictly more SLOs than blind round-robin.
func TestLeastRiskBeatsRoundRobin(t *testing.T) {
	sc := loadShipped(t, "scenario.json")

	sc.Router = RouterRoundRobin
	rr, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Router = RouterLeastRisk
	lr, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}

	if lr.Arrivals != rr.Arrivals {
		t.Fatalf("router changed the offered load: %d vs %d arrivals", lr.Arrivals, rr.Arrivals)
	}
	if lr.SLOAttainment <= rr.SLOAttainment {
		t.Fatalf("least-risk attainment %.4f not above round-robin %.4f",
			lr.SLOAttainment, rr.SLOAttainment)
	}
}

// TestQueuePolicyComparison is the Section 6.5.3 scheduling comparison
// as examples/sim prints it: examples/sim/scenario.json (seed 5, router
// least-risk) on 2 machines instead of 3, identical arrivals, only
// queue_policy varying. The counts are the ones that run measured. What
// they show is that draining on the point estimate alone (sjf) misses
// the most deadlines, while draining on the SLO quantile (risk-slack)
// ties the prediction-blind orders (fifo, edf) at none — not a win for
// the distribution-aware order, so none is asserted.
func TestQueuePolicyComparison(t *testing.T) {
	sc := loadShipped(t, "scenario.json")
	sc.Machines = FleetOf(2)
	const arrivals = 344
	cases := []struct {
		policy                     string
		admitted, rejected, missed int
	}{
		{serve.FIFO.Name, 317, 27, 0},
		{serve.EDF.Name, 317, 27, 0},
		{serve.RiskSlack.Name, 317, 27, 0},
		{serve.SJF.Name, 314, 30, 12},
	}
	for _, c := range cases {
		sc.QueuePolicy = c.policy
		rep, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", c.policy, err)
		}
		again, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", c.policy, err)
		}
		if !reflect.DeepEqual(rep, again) {
			t.Errorf("%s: reports differ across two runs", c.policy)
		}
		if rep.QueuePolicy != c.policy {
			t.Errorf("%s: report names queue policy %q", c.policy, rep.QueuePolicy)
		}
		var admitted, rejected, missed int
		for _, tr := range rep.Tenants {
			admitted += tr.Admitted
			rejected += tr.Rejected
			missed += tr.DeadlinesMissed
		}
		if rep.Arrivals != arrivals || admitted+rejected != rep.Arrivals {
			t.Errorf("%s: %d arrivals (want %d) != %d admitted + %d rejected",
				c.policy, rep.Arrivals, arrivals, admitted, rejected)
		}
		if rep.SLOAttainment < 0 || rep.SLOAttainment > 1 {
			t.Errorf("%s: attainment %v outside [0, 1]", c.policy, rep.SLOAttainment)
		}
		if admitted != c.admitted || rejected != c.rejected || missed != c.missed {
			t.Errorf("%s: admitted/rejected/missed = %d/%d/%d, want %d/%d/%d",
				c.policy, admitted, rejected, missed, c.admitted, c.rejected, c.missed)
		}
	}
}

// TestAutoRecalibrationTriggers pins the cadence policy end to end: the
// drift scenario's machine really drifts and the scenario sets
// recal_every, so the virtual clock must trigger drift-advised
// recalibrations during the run and surface the counts.
func TestAutoRecalibrationTriggers(t *testing.T) {
	if auto := autoRecalibrations(t, "scenario-drift.json"); auto == 0 {
		t.Fatal("no automatic recalibrations triggered despite drift and recal_every")
	}
}

// TestNoRecalibrationWithoutDrift is the cadence policy's false-positive
// check: the bursty scenario sets recal_every on a fleet that never
// drifts, so every automatic recalibration there is spurious. (Observing
// the five-run mean instead of one run over-covered the predicted
// intervals enough to trigger five.)
func TestNoRecalibrationWithoutDrift(t *testing.T) {
	if auto := autoRecalibrations(t, "scenario.json"); auto != 0 {
		t.Fatalf("%d automatic recalibrations on a drift-free fleet", auto)
	}
}

// autoRecalibrations returns a shipped scenario's automatic
// recalibrations over all tenants, failing if the scenario does not set
// recal_every or a tenant's automatic count exceeds its total.
func autoRecalibrations(t *testing.T, file string) uint64 {
	t.Helper()
	fix := shipped(t, file)
	if fix.sc.RecalEvery <= 0 {
		t.Fatalf("%s no longer exercises recal_every", file)
	}
	var auto uint64
	for _, tr := range fix.rep.Tenants {
		auto += tr.AutoRecalibrations
		if tr.AutoRecalibrations > tr.Recalibrations {
			t.Fatalf("%s: tenant %s: auto count %d exceeds total %d",
				file, tr.Name, tr.AutoRecalibrations, tr.Recalibrations)
		}
	}
	return auto
}

// TestScenarioValidation rejects malformed scenarios with clear errors.
func TestScenarioValidation(t *testing.T) {
	cases := []func(*Scenario){
		func(sc *Scenario) { sc.Horizon = 0 },
		func(sc *Scenario) { sc.Router = "teleport" },
		func(sc *Scenario) { sc.DB = "nonesuch" },
		func(sc *Scenario) { sc.QueuePolicy = "lifo" },
		func(sc *Scenario) { sc.Tenants = nil },
		func(sc *Scenario) { sc.Tenants[0].Name = "" },
		func(sc *Scenario) { sc.Tenants = append(sc.Tenants, sc.Tenants[0]) },
		func(sc *Scenario) { sc.Tenants[0].Bench = "tpcds" },
		func(sc *Scenario) { sc.Tenants[0].Arrivals.Rate = -1 },
		func(sc *Scenario) { sc.Tenants[0].Arrivals.Process = "constant" },
		func(sc *Scenario) { sc.MachineProfile = "PC9" },
		func(sc *Scenario) { sc.Machines = FleetList(MachineSpec{Profile: "warp-core"}) },
		func(sc *Scenario) { sc.Machines = FleetList(MachineSpec{Drift: -1}) },
		func(sc *Scenario) { sc.Machines = FleetList(MachineSpec{Count: -2}) },
		func(sc *Scenario) { sc.Machines = FleetList() },
	}
	for i, mutate := range cases {
		sc := testScenario()
		mutate(&sc)
		if _, err := sc.resolve(); err == nil {
			t.Errorf("case %d: invalid scenario accepted", i)
		}
	}
	if _, err := testScenario().resolve(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}

	// The deleted processes fail like any unknown one, listing what is
	// accepted.
	for _, process := range []string{"diurnal", "trace"} {
		sc := testScenario()
		sc.Tenants[0].Arrivals.Process = process
		want := `unknown arrival process "` + process + `" (want poisson, bursty)`
		if _, err := sc.resolve(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("process %q: err = %v, want %q", process, err, want)
		}
	}

	// Unknown profile names surface the registered vocabulary instead of
	// silently defaulting.
	sc := testScenario()
	sc.MachineProfile = "PC9"
	if _, err := sc.resolve(); err == nil || !strings.Contains(err.Error(), "registered: PC1, PC2") {
		t.Errorf("unknown machine_profile error does not list registered profiles: %v", err)
	}
}
