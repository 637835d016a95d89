package sim

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/serve"
)

// TestAllRejectedTenantReport pins the empty-sample edges of the report
// path: a tenant whose every query is rejected (an impossible deadline
// under a strict confidence floor) must produce a finite, marshalable
// report — zero-N quantiles, no NaN attainment, no panic.
func TestAllRejectedTenantReport(t *testing.T) {
	sc := testScenario()
	sc.Name = "all-rejected"
	sc.Tenants = append([]TenantSpec(nil), sc.Tenants...)
	sc.Tenants = append(sc.Tenants, TenantSpec{
		Name:     "doomed",
		Bench:    "seljoin",
		Queries:  4,
		Deadline: 1e-9, // unmeetable: P(T_q <= d) ~ 0 for every query
		SLO:      serve.SLO{Confidence: 0.99, DefaultDeadline: 1e-9, Quantile: 0.9},
		Arrivals: ArrivalSpec{Process: processPoisson, Rate: 2},
	})
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.JSON(); err != nil {
		t.Fatalf("report not marshalable (NaN/Inf leak?): %v", err)
	}
	var doomed *TenantReport
	for i := range rep.Tenants {
		if rep.Tenants[i].Name == "doomed" {
			doomed = &rep.Tenants[i]
		}
	}
	if doomed == nil {
		t.Fatal("doomed tenant missing from report")
	}
	if doomed.Submitted == 0 || doomed.Rejected != doomed.Submitted {
		t.Fatalf("doomed tenant not all-rejected: %+v", doomed)
	}
	if doomed.Executed != 0 || doomed.Latency.N != 0 || doomed.QueueWait.N != 0 {
		t.Fatalf("doomed tenant executed work: %+v", doomed)
	}
	for name, v := range map[string]float64{
		"slo_attainment":      doomed.SLOAttainment,
		"attainment_executed": doomed.AttainmentExecuted,
		"latency_mean":        doomed.Latency.Mean,
		"latency_p99":         doomed.Latency.P99,
		"queue_wait_mean":     doomed.QueueWait.Mean,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("doomed tenant %s = %v, want finite", name, v)
		}
	}
}

// TestEventDispatchAllocs is the alloc-regression gate on the event
// loop: with the System opened and caches warm, dispatching one event
// (arrival routing + admission or completion + next-request execution)
// must stay within a fixed allocation budget. The seed trajectory spent
// ~300 allocs/event; with each request planned once and its cache keys
// memoized on the plan and each execution named by hash, an event
// allocates ~0.8 times: the run's set-up and report spread over its
// events (TestUntracedArrivalAllocs holds an arrival itself at zero).
// The budget of 4 catches a per-request fingerprint, key or option
// struct coming back.
func TestEventDispatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	rs, sys, cache := openScenario(t, testScenario())
	// Warm run: fills the plan memo and the estimate/run cache sections.
	warm, err := runOn(rs, sys, cache, runSinks{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Events == 0 {
		t.Fatal("warm run processed no events")
	}
	perRun := testing.AllocsPerRun(3, func() {
		if _, err := runOn(rs, sys, cache, runSinks{}); err != nil {
			t.Fatal(err)
		}
	})
	perEvent := perRun / float64(warm.Events)
	const budget = 4
	if perEvent > budget {
		t.Errorf("event dispatch allocates %.1f allocs/event (%.0f/run over %d events), budget %d",
			perEvent, perRun, warm.Events, budget)
	}
	t.Logf("event dispatch: %.1f allocs/event", perEvent)
}

// TestReportAllocs is the alloc gate on the report: simRun.report reads
// each registered (member, machine) pair's counters from the tenant
// handles the run already holds, so what it allocates scales with
// tenant groups, machines and shards, never with the number of members.
// The same sharded fleet, carrying the same offered load, is reported
// once with 100 members and once with 10,000; both must stay within the
// budget, and the larger may not allocate more than the smaller.
func TestReportAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	measure := func(members int) float64 {
		sc := Scenario{
			Name: "report-allocs", Seed: 3, Horizon: 10, Machines: FleetOf(8),
			Router: RouterLeastRisk, DB: "uniform-1G",
			Shards: &ShardsSpec{
				Count: 4, VNodes: 64,
				FrontDoor: &FrontDoorSpec{Rate: 300, Burst: 60, Predictive: true},
				CacheTier: &CacheTierSpec{LocalFraction: 0.75, RemoteLatency: 0.002},
			},
			Tenants: []TenantSpec{{
				Name: "grid", Count: members, Bench: "seljoin", Queries: 8, Deadline: 1.2,
				SLO:      serve.SLO{Confidence: 0.9, DefaultDeadline: 1.2, Quantile: 0.9},
				Arrivals: ArrivalSpec{Process: processPoisson, Rate: 200 / float64(members)},
			}},
		}
		rs, sys, cache := openScenario(t, sc)
		s, err := newRun(rs, sys, cache, runSinks{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.loop(); err != nil {
			t.Fatal(err)
		}
		if s.processed == 0 {
			t.Fatalf("%d members: the run processed no events", members)
		}
		return testing.AllocsPerRun(5, func() { s.report() })
	}
	small, large := measure(100), measure(10000)
	// 42 measured at 10,000 members, plus a quarter.
	const budget = 52
	if large > budget {
		t.Errorf("report of a 10,000-member run allocates %.0f times, budget %d", large, budget)
	}
	if large > small {
		t.Errorf("report allocates %.0f times with 10,000 members and %.0f with 100: it grows with the member count", large, small)
	}
	t.Logf("report: %.0f allocs at 100 members, %.0f at 10,000", small, large)
}

// TestUntracedArrivalAllocs pins what an untraced arrival allocates
// with the caches warm: nothing. An arrival — named by hash, routed,
// admitted and started on its machine — submits its template's shared
// query under an execution name it never builds. The event loop of a
// 200-second run, 800 arrivals and their completions, allocates about
// 10 times, all of it growth: the server's queue, the pending-admission
// map, the completion heap and a queued-request pool miss. A query
// copied or a name built per arrival (2 to 3 allocations each) would
// exceed the budget a hundredfold. The third run rejects arrivals, on
// tight deadlines and a one-slot queue: a rejection's reason is never
// formatted, since nothing in the run reads it.
func TestUntracedArrivalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		router    string
		rejecting bool
	}{{RouterRoundRobin, false}, {RouterLeastRisk, false}, {RouterLeastRisk, true}} {
		sc := testScenario()
		sc.Router = c.router
		sc.Horizon = 200
		if c.rejecting {
			sc.MaxQueue = 1
			sc.Tenants[0].Deadline = 0.25
		}
		rs, sys, cache := openScenario(t, sc)
		if _, err := runOn(rs, sys, cache, runSinks{}); err != nil {
			t.Fatal(err)
		}
		s, err := newRun(rs, sys, cache, runSinks{})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := s.loop(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocs := after.Mallocs - before.Mallocs
		rejected := s.report().Tenants[0].Rejected
		if c.rejecting != (rejected > 0) {
			t.Fatalf("%s: %d of %d arrivals rejected, want rejections %v", c.router, rejected, len(s.arrivals), c.rejecting)
		}
		// 8 to 12 measured, with room for the runtime's growth policies.
		const budget = 16
		if allocs > budget {
			t.Errorf("%s: %d arrivals (%d rejected) allocate %d times, budget %d: an arrival allocates again", c.router, len(s.arrivals), rejected, allocs, budget)
		}
		t.Logf("%s: %d allocs over %d arrivals, %d rejected", c.router, allocs, len(s.arrivals), rejected)
	}
}
