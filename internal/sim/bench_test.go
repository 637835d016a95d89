package sim

import (
	"testing"

	uaqetp "repro"
	"repro/internal/serve"
)

// openScenario resolves sc and opens its base System once, for tests
// and benchmarks that amortize the expensive Open over several runOn
// calls.
func openScenario(tb testing.TB, sc Scenario) (*resolved, *uaqetp.System, *uaqetp.EstimateCache) {
	tb.Helper()
	rs, err := sc.resolve()
	if err != nil {
		tb.Fatal(err)
	}
	sys, cache, err := openBase(rs)
	if err != nil {
		tb.Fatal(err)
	}
	return rs, sys, cache
}

// BenchmarkSimPoisson measures simulator throughput — events per second
// of virtual cluster activity — with the expensive System Open
// amortized outside the loop, so the number tracks the event loop,
// admission, routing, and cached execution rather than database
// generation.
func BenchmarkSimPoisson(b *testing.B) {
	sc := Scenario{
		Name:     "bench",
		Seed:     3,
		Horizon:  30,
		Machines: FleetOf(2),
		Router:   RouterLeastRisk,
		DB:       "uniform-1G",
		Tenants: []TenantSpec{{
			Name:     "alpha",
			Bench:    "seljoin",
			Queries:  8,
			Deadline: 1.2,
			SLO:      serve.SLO{Confidence: 0.9, DefaultDeadline: 1.2, Quantile: 0.9},
			Arrivals: ArrivalSpec{Process: processPoisson, Rate: 6},
		}},
	}
	rs, sys, cache := openScenario(b, sc)

	b.ReportAllocs()
	b.ResetTimer()
	var events int
	var attainment float64
	for i := 0; i < b.N; i++ {
		rep, err := runOn(rs, sys, cache, runSinks{})
		if err != nil {
			b.Fatal(err)
		}
		events += rep.Events
		attainment = rep.SLOAttainment
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	}
	// Deterministic per (scenario, seed): policy quality is reported next
	// to raw speed, so a change that makes the simulator faster by making
	// its decisions worse shows in the same output.
	b.ReportMetric(attainment, "attainment")
}

// BenchmarkSimHeterogeneous measures per-machine routing throughput on
// a mixed-profile fleet: every least-risk placement predicts the
// arrival through each machine's own units (the sampling pass shared
// via the fleet cache), so events/sec here tracks the cost of
// heterogeneity-aware placement — per-machine WithMachine calibration
// included, since rebuilding the fleet is part of each run.
func BenchmarkSimHeterogeneous(b *testing.B) {
	sc := Scenario{
		Name:    "bench-hetero",
		Seed:    3,
		Horizon: 30,
		Machines: FleetList(
			MachineSpec{Profile: "PC2"},
			MachineSpec{Profile: "PC1"},
			MachineSpec{Profile: "PC1", Drift: 1.0},
		),
		Router:      RouterLeastRisk,
		QueuePolicy: "fifo",
		DB:          "uniform-1G",
		Tenants: []TenantSpec{{
			Name:     "alpha",
			Bench:    "seljoin",
			Queries:  8,
			Deadline: 1.2,
			SLO:      serve.SLO{Confidence: 0.9, DefaultDeadline: 1.2, Quantile: 0.9},
			Arrivals: ArrivalSpec{Process: processPoisson, Rate: 6},
		}},
	}
	rs, sys, cache := openScenario(b, sc)

	b.ReportAllocs()
	b.ResetTimer()
	var events int
	var attainment float64
	for i := 0; i < b.N; i++ {
		rep, err := runOn(rs, sys, cache, runSinks{})
		if err != nil {
			b.Fatal(err)
		}
		events += rep.Events
		attainment = rep.SLOAttainment
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	}
	b.ReportMetric(attainment, "attainment")
}

// BenchmarkSimDrift measures the calibration observatory end to end: a
// two-machine fleet where one machine's truth flips mid-run
// (WithDriftInjection rebuilt each iteration, like the fleet), every
// executed request streaming through the per-machine accumulators, and
// the drift window assembled at report time. Besides raw events/sec,
// it reports the observatory's quality numbers — fleet MAPE, 90%
// coverage, and time-to-detection — so a change that speeds the
// simulator up by making its calibration accounting wrong shows in the
// same output.
func BenchmarkSimDrift(b *testing.B) {
	sc := Scenario{
		Name:    "bench-drift",
		Seed:    3,
		Horizon: 30,
		Machines: FleetList(
			MachineSpec{Profile: "PC1"},
			MachineSpec{Profile: "PC1", Drift: 2.0, DriftAt: 10},
		),
		Router:      RouterLeastRisk,
		QueuePolicy: "fifo",
		DB:          "uniform-1G",
		RecalEvery:  5,
		Tenants: []TenantSpec{{
			Name:     "alpha",
			Bench:    "seljoin",
			Queries:  8,
			Deadline: 1.2,
			SLO:      serve.SLO{Confidence: 0.9, DefaultDeadline: 1.2, Quantile: 0.9},
			Arrivals: ArrivalSpec{Process: processPoisson, Rate: 6},
		}},
	}
	rs, sys, cache := openScenario(b, sc)

	b.ReportAllocs()
	b.ResetTimer()
	var events int
	var rep *Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = runOn(rs, sys, cache, runSinks{})
		if err != nil {
			b.Fatal(err)
		}
		events += rep.Events
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	}
	b.ReportMetric(rep.SLOAttainment, "attainment")
	if cal := rep.Calibration; cal != nil {
		b.ReportMetric(cal.Overall.MAPE, "mape")
		for _, cp := range cal.Overall.Coverage {
			if cp.Nominal == 0.9 {
				b.ReportMetric(cp.Observed, "cov90")
			}
		}
	}
	if dw := rep.DriftWindow; dw != nil && dw.Detected {
		b.ReportMetric(dw.TimeToDetection, "ttd_s")
	}
}

// BenchmarkSimSharded measures the sharded topology end to end: 10k
// tenants placed by the consistent-hash directory over 4 shards of 2
// machines, every arrival passing the front door (token bucket plus
// predictive shedding) and the tiered estimate cache. Events/sec here
// tracks the cost the sharding layer adds on top of flat routing —
// placement lookups, per-shard routing ranges, front-door probability
// bounds — amortizing tenant expansion into each run, since group
// expansion is part of a sharded run.
func BenchmarkSimSharded(b *testing.B) {
	sc := Scenario{
		Name:     "bench-sharded",
		Seed:     3,
		Horizon:  10,
		Machines: FleetOf(8),
		Router:   RouterLeastRisk,
		DB:       "uniform-1G",
		Shards: &ShardsSpec{
			Count:     4,
			VNodes:    64,
			FrontDoor: &FrontDoorSpec{Rate: 300, Burst: 60, Predictive: true},
			CacheTier: &CacheTierSpec{LocalFraction: 0.75, RemoteLatency: 0.002},
		},
		Tenants: []TenantSpec{{
			Name:     "grid",
			Count:    10000,
			Bench:    "seljoin",
			Queries:  8,
			Deadline: 1.2,
			SLO:      serve.SLO{Confidence: 0.9, DefaultDeadline: 1.2, Quantile: 0.9},
			Arrivals: ArrivalSpec{Process: processPoisson, Rate: 0.02},
		}},
	}
	rs, sys, cache := openScenario(b, sc)

	b.ReportAllocs()
	b.ResetTimer()
	var events int
	var attainment float64
	for i := 0; i < b.N; i++ {
		rep, err := runOn(rs, sys, cache, runSinks{})
		if err != nil {
			b.Fatal(err)
		}
		events += rep.Events
		attainment = rep.SLOAttainment
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	}
	b.ReportMetric(attainment, "attainment")
}

// BenchmarkSimCluster is the million-event shape in miniature: the
// scenario-cluster.json proportions (round-robin over a large
// homogeneous fleet, fifo queues, one high-rate poisson tenant) scaled
// so one iteration is ~60k events —
// big enough that the per-event hot path (measurement stream included)
// dominates, small enough to iterate. The events/s here tracks exactly
// what scenario-cluster.json's wall clock tracks.
func BenchmarkSimCluster(b *testing.B) {
	sc := Scenario{
		Name:        "bench-cluster",
		Seed:        7,
		Horizon:     20,
		Machines:    FleetOf(100),
		Router:      RouterRoundRobin,
		QueuePolicy: "fifo",
		DB:          "uniform-1G",
		Tenants: []TenantSpec{{
			Name:     "fleet",
			Bench:    "seljoin",
			Queries:  16,
			Deadline: 2.0,
			SLO:      serve.SLO{Confidence: 0.9, DefaultDeadline: 2.0, Quantile: 0.9},
			Arrivals: ArrivalSpec{Process: processPoisson, Rate: 1500},
		}},
	}
	rs, sys, cache := openScenario(b, sc)

	b.ReportAllocs()
	b.ResetTimer()
	var events int
	var attainment float64
	for i := 0; i < b.N; i++ {
		rep, err := runOn(rs, sys, cache, runSinks{})
		if err != nil {
			b.Fatal(err)
		}
		events += rep.Events
		attainment = rep.SLOAttainment
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	}
	b.ReportMetric(attainment, "attainment")
}
