package serve

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"

	uaqetp "repro"
	"repro/internal/workload"
)

// runTenant registers one tenant over sys on a fresh server, submits
// every query with a deadline nothing misses, runs the queue dry
// through Drain (drain) or through StepOneInto with the clock
// advanced to each finish, and returns the tenant's stats.
func runTenant(t *testing.T, sys *uaqetp.System, cfg Config, qs []*uaqetp.Query, drain bool) TenantStats {
	t.Helper()
	srv := New(cfg)
	if _, err := srv.AddTenantSystem("t", sys, SLO{Confidence: 0.5, DefaultDeadline: 1e6}); err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if d, err := srv.Submit(context.Background(), Request{Tenant: "t", Query: q}); err != nil || !d.Admitted {
			t.Fatalf("submit %s: %+v, %v", q.Name, d, err)
		}
	}
	if drain {
		if _, err := srv.Drain(); err != nil {
			t.Fatal(err)
		}
	} else {
		for {
			var out Outcome
			ok, err := srv.StepOneInto(&out)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			srv.AdvanceClock(out.Finish)
		}
	}
	st := srv.Stats().Tenants[0]
	if st.Executed != uint64(len(qs)) {
		t.Fatalf("executed %d of %d queries", st.Executed, len(qs))
	}
	return st
}

// TestStepOneIntoFeedbackFollowsCadence pins who feeds the drift loop:
// StepOneInto records only under a recalibration cadence, then exactly
// what Drain records, and Drain records with or without one.
func TestStepOneIntoFeedbackFollowsCadence(t *testing.T) {
	sys, err := uaqetp.Open(uaqetp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	qs, err := sys.GenerateWorkload(workload.SelJoin, 8)
	if err != nil {
		t.Fatal(err)
	}
	driftJSON := func(st TenantStats) string {
		b, err := json.Marshal(st.Drift)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	// (a) No cadence: nothing reads the loop, so stepping leaves it empty.
	if d := runTenant(t, sys, Config{}, qs, false).Drift; d.Observations != 0 || d.PerUnit != nil {
		t.Errorf("StepOneInto without RecalEvery recorded %d observations in %d units, want none",
			d.Observations, len(d.PerUnit))
	}

	// (b) A cadence that never fires within the run: stepping records
	// what draining records, byte for byte.
	cadence := Config{RecalEvery: 1e9}
	stepped := runTenant(t, sys, cadence, qs, false)
	drained := runTenant(t, sys, cadence, qs, true)
	if stepped.Drift.Observations != len(qs) {
		t.Errorf("StepOneInto under RecalEvery recorded %d observations, want %d", stepped.Drift.Observations, len(qs))
	}
	if a, b := driftJSON(stepped), driftJSON(drained); a != b {
		t.Errorf("drift after StepOneInto\n%s\ndiffers from drift after Drain\n%s", a, b)
	}

	// (c) Drain is the live path: it records without a cadence too.
	if a, b := driftJSON(runTenant(t, sys, Config{}, qs, true)), driftJSON(drained); a != b {
		t.Errorf("Drain without RecalEvery recorded\n%s\nwant\n%s", a, b)
	}
}

// TestStepOneIntoAllocs is the alloc gate on the simulator's step: a
// fresh server, like one simulated machine, on an estimate cache another
// server has already warmed, steps 16 distinct plans once each without
// a recalibration cadence. One step pops the queue, looks the plan's
// run result up in the shared cache, measures its running time (the
// hardware model seeds a fresh random source per execution: the one
// allocation a step pays) and fills the caller's Outcome. It feeds no
// drift loop.
func TestStepOneIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	cache := uaqetp.NewEstimateCache(DefaultCacheCapacity)
	cfg := uaqetp.DefaultConfig()
	cfg.Cache = cache
	sys, err := uaqetp.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := sys.GenerateWorkload(workload.SelJoin, 16)
	if err != nil {
		t.Fatal(err)
	}
	warm := runTenant(t, sys, Config{Cache: cache}, qs, true)
	if warm.Drift.Observations != len(qs) {
		t.Fatalf("warm-up ran %d plans, want %d", warm.Drift.Observations, len(qs))
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 8
	var allocs uint64
	var before, after runtime.MemStats
	for r := 0; r < rounds; r++ {
		srv := New(Config{Cache: cache})
		if _, err := srv.AddTenantSystem("t", sys, SLO{Confidence: 0.5, DefaultDeadline: 1e6}); err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			if d, err := srv.Submit(context.Background(), Request{Tenant: "t", Query: q}); err != nil || !d.Admitted {
				t.Fatalf("submit %s: %+v, %v", q.Name, d, err)
			}
		}
		var out Outcome
		runtime.ReadMemStats(&before)
		for range qs {
			if ok, err := srv.StepOneInto(&out); !ok || err != nil {
				t.Fatalf("step ok=%v err=%v", ok, err)
			}
		}
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
	}
	perStep := float64(allocs) / float64(rounds*len(qs))
	const budget = 1.3 // 1.03 measured, plus a quarter, rounded up
	if perStep > budget {
		t.Errorf("StepOneInto allocates %.2f allocs/step, budget %.1f", perStep, budget)
	}
	t.Logf("StepOneInto: %.2f allocs/step", perStep)
}
