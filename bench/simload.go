package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	uaqetp "repro"
	"repro/internal/calib"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The two simulator workloads run sim.Run on an embedded scenario in
// repetitions: repetition 0 keeps the scenario file's own seed (its
// report is the byte-identity check and the source of the exact sim.*
// counts), repetitions 1, 2, … take seeds derived from the workload
// seed. An op is one simulated event, timed in host time; the latency
// sample is one repetition's host milliseconds per thousand events.

// warmHorizonShare is the share of the scenario's horizon the set-up
// run simulates, so that the heap is grown and lazy initialisation is
// done before the first timed repetition.
const warmHorizonShare = 0.1

type simState struct {
	sc      sim.Scenario
	dropped []string
}

func setupSim(o options, name string) (*simState, error) {
	sc, dropped, err := loadScenario(name)
	if err != nil {
		return nil, err
	}
	if o.smoke {
		sc.Horizon /= 20
		if sc.Machines.Size() > 50 {
			sc.Machines = sim.FleetOf(50)
			for i := range sc.Tenants {
				sc.Tenants[i].Arrivals.Rate /= 20
			}
		}
		for i := range sc.Tenants {
			if sc.Tenants[i].Count > 200 {
				sc.Tenants[i].Count = 200
			}
		}
	}
	warm := sc
	warm.Horizon = sc.Horizon * warmHorizonShare
	if _, err := sim.Run(warm); err != nil {
		return nil, fmt.Errorf("%s: warm-up run: %w", name, err)
	}
	return &simState{sc: sc, dropped: dropped}, nil
}

// checkReport is the sims' output check: conservation, rates in [0, 1],
// no NaN or Inf anywhere in the report.
func checkReport(rep *sim.Report) (data []byte, problems []string) {
	data, err := rep.JSON()
	if err != nil {
		return nil, []string{fmt.Sprintf("report JSON: %v (NaN or Inf in the report?)", err)}
	}
	var submitted, admitted, rejected, shed, executed, failed int
	for _, t := range rep.Tenants {
		submitted += t.Submitted
		admitted += t.Admitted
		rejected += t.Rejected
		shed += t.Shed
		executed += t.Executed
		failed += t.ExecFailed
		for what, r := range map[string]float64{"slo_attainment": t.SLOAttainment, "attainment_executed": t.AttainmentExecuted} {
			if !(r >= 0 && r <= 1) {
				problems = append(problems, fmt.Sprintf("tenant %s: %s %g outside [0, 1]", t.Name, what, r))
			}
		}
	}
	if rep.Arrivals != submitted || submitted != shed+rejected+admitted {
		problems = append(problems, fmt.Sprintf("conservation: arrivals %d, submitted %d, shed %d + rejected %d + admitted %d",
			rep.Arrivals, submitted, shed, rejected, admitted))
	}
	if admitted != executed+failed {
		problems = append(problems, fmt.Sprintf("conservation: admitted %d, executed %d + failed %d", admitted, executed, failed))
	}
	if !(rep.SLOAttainment >= 0 && rep.SLOAttainment <= 1) {
		problems = append(problems, fmt.Sprintf("slo_attainment %g outside [0, 1]", rep.SLOAttainment))
	}
	for _, m := range rep.PerMachine {
		if !(m.Utilization >= 0 && m.Utilization <= 1) {
			problems = append(problems, fmt.Sprintf("machine %d: utilization %g outside [0, 1]", m.Machine, m.Utilization))
		}
	}
	// encoding/json refuses NaN and Inf, so a report that marshalled has
	// none in its floats; a decode round trip catches a stringly one.
	var generic any
	if err := json.Unmarshal(data, &generic); err != nil {
		problems = append(problems, fmt.Sprintf("report does not decode: %v", err))
	}
	if s := string(data); strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
		problems = append(problems, "report mentions NaN or Inf")
	}
	return data, problems
}

func reportCounts(rep *sim.Report) (executed, rejected, shed int) {
	for _, t := range rep.Tenants {
		executed += t.Executed
		rejected += t.Rejected
		shed += t.Shed
	}
	return
}

func coverage90(m calib.Metrics) (float64, bool) {
	for _, c := range m.Coverage {
		if c.Nominal == 0.9 {
			return c.Observed, true
		}
	}
	return 0, false
}

// repSeed derives repetition r's scenario seed from the workload seed;
// repetition 0 keeps the file's.
func (s *simState) repSeed(seed int64, r int) int64 {
	if r == 0 {
		return s.sc.Seed
	}
	return seed*1000 + int64(r)
}

func runSim(ctx context.Context, o options, name string) (*outcome, error) {
	out := newOutcome(o)
	st, setupS, err := repeatSetup(o.setupReps(true), func() (*simState, error) { return setupSim(o, name) }, nil)
	if err != nil {
		return nil, err
	}
	out.notef("scenario %s: %d machines, horizon %g, %d tenant groups; optional keys dropped: %v",
		st.sc.Name, st.sc.Machines.Size(), st.sc.Horizon, len(st.sc.Tenants), st.dropped)

	run := func(r int) (*sim.Report, time.Duration, error) {
		sc := st.sc
		sc.Seed = st.repSeed(o.seed, r)
		t0 := time.Now()
		rep, err := sim.Run(sc)
		return rep, time.Since(t0), err
	}
	if o.trace {
		return out, traceSim(ctx, o, out, st, run)
	}

	// Timed run: repetitions until the time is up, never fewer than three,
	// each from a collected heap. The reported rate and latencies are
	// medians (and the p95) over the repetitions.
	var lat latencies
	var rate []float64
	var wall time.Duration
	var first []byte
	deadline := time.Duration(o.seconds * float64(time.Second))
	for r := 0; wall < deadline || r < 3; r++ {
		runtime.GC()
		rep, took, err := run(r)
		if err != nil {
			return nil, fmt.Errorf("%s: repetition %d: %w", name, r, err)
		}
		wall += took
		out.attempted += int64(rep.Events)
		rate = append(rate, float64(rep.Events)/took.Seconds())
		lat = append(lat, ms(took)/float64(rep.Events)*1000)
		data, problems := checkReport(rep)
		for _, p := range problems {
			out.failOp(int64(rep.Events), "repetition %d: %s", r, p)
		}
		if r == 0 {
			first = data
		}
	}
	if err := out.recordPeakRSS(); err != nil {
		return nil, err
	}
	sorted := lat.sorted()
	out.metrics["ops_per_s"] = median(rate)
	out.metrics["lat_p50_ms"] = percentile(sorted, 0.50)
	out.metrics["lat_p95_ms"] = percentile(sorted, 0.95)
	out.metrics["setup_s"] = setupS
	p, ok := supportedPercentile(len(lat))
	out.notef("%d events in %d repetitions, %.3fs; a latency sample is one repetition's host ms per 1000 events; highest supported percentile p%g (ten beyond it: %v)",
		out.attempted, len(lat), wall.Seconds(), p*100, ok)

	// Determinism: the fixed-seed repetition again, byte for byte.
	again, _, err := run(0)
	if err != nil {
		return nil, err
	}
	data, _ := checkReport(again)
	if !bytes.Equal(first, data) {
		out.problemf("report of the fixed-seed repetition is not byte-identical on a second run")
	}

	fid, err := simFidelity(ctx, o, st)
	if err != nil {
		return nil, err
	}
	fid.into(out.metrics)
	return out, nil
}

// twinOf opens the System a scenario's machines serve: same database,
// profile and sampling ratio. The measurement stream is left at its
// default — the benchmark never sets Config.RNG.
func twinOf(sc sim.Scenario) (*uaqetp.System, uaqetp.DBKind, error) {
	for _, kind := range []uaqetp.DBKind{uaqetp.Uniform1G, uaqetp.Skewed1G, uaqetp.Uniform10G, uaqetp.Skewed10G} {
		if strings.EqualFold(kind.String(), sc.DB) {
			sys, err := uaqetp.Open(uaqetp.Config{DB: kind, Machine: sc.MachineProfile, SamplingRatio: sc.SamplingRatio, Seed: dbSeed})
			return sys, kind, err
		}
	}
	return nil, 0, fmt.Errorf("scenario %s: unknown database %q", sc.Name, sc.DB)
}

func benchOf(name string) (workload.Benchmark, error) {
	for _, b := range workload.Benchmarks {
		if strings.EqualFold(b.String(), name) {
			return b, nil
		}
	}
	return 0, fmt.Errorf("unknown benchmark %q", name)
}

// simFidelity is the fidelity phase of a sim workload: there is no seam
// into sim.Run, so it runs on a twin of the scenario's System, over the
// first tenant's benchmark.
func simFidelity(ctx context.Context, o options, st *simState) (fidelity, error) {
	sys, kind, err := twinOf(st.sc)
	if err != nil {
		return fidelity{}, err
	}
	b, err := benchOf(st.sc.Tenants[0].Bench)
	if err != nil {
		return fidelity{}, err
	}
	return measureFidelity(ctx, sys, buildCatalog(kind), []workload.Benchmark{b}, o.fidelityN(kind))
}

func traceSim(ctx context.Context, o options, out *outcome, st *simState, run func(int) (*sim.Report, time.Duration, error)) error {
	// The traced run of a sim is the fixed-seed repetition twice: counts
	// and host cost from the first, byte identity against the second.
	mark := markMem()
	rep, took, err := run(0)
	if err != nil {
		return err
	}
	allocs, _ := mark.since()
	data, problems := checkReport(rep)
	out.attempted = int64(rep.Events)
	for _, p := range problems {
		out.failOp(int64(rep.Events), "%s", p)
	}
	again, _, err := run(0)
	if err != nil {
		return err
	}
	if data2, _ := checkReport(again); !bytes.Equal(data, data2) {
		out.problemf("report of the fixed-seed repetition is not byte-identical on a second run")
	}

	events := float64(rep.Events)
	executed, rejected, shed := reportCounts(rep)
	out.metrics["sim.events"] = events
	out.metrics["sim.arrivals"] = float64(rep.Arrivals)
	out.metrics["sim.executed"] = float64(executed)
	out.metrics["sim.rejected"] = float64(rejected)
	out.metrics["sim.shed"] = float64(shed)
	out.metrics["sim.host_us_per_event"] = us(took) / events
	out.metrics["sim.allocs_per_event"] = float64(allocs) / events
	out.metrics["sim.slo_attainment"] = rep.SLOAttainment
	out.metrics["sim.report_bytes"] = float64(len(data))
	if h, m := rep.Cache.Hits, rep.Cache.Misses; h+m > 0 {
		out.metrics["sim.cache_hit_share"] = float64(h) / float64(h+m)
	}
	if rep.Shards != nil && rep.Shards.CacheTier != nil {
		if t := rep.Shards.CacheTier; t.LocalLookups+t.RemoteLookups > 0 {
			out.metrics["sim.tier_remote_share"] = float64(t.RemoteLookups) / float64(t.LocalLookups+t.RemoteLookups)
		}
	}
	if rep.Calibration != nil {
		out.metrics["sim.mape"] = rep.Calibration.Overall.MAPE
		if c, ok := coverage90(rep.Calibration.Overall); ok {
			out.metrics["sim.cov90_err"] = math.Abs(c - 0.90)
		}
	}
	out.notef("fixed-seed repetition: %d events in %.3fs", rep.Events, took.Seconds())

	// The layers under the event loop, on the scenario's own tenant and
	// queries: a twin server driven through the same Submit / StepOneInto
	// the simulator calls.
	sys, kind, err := twinOf(st.sc)
	if err != nil {
		return err
	}
	spec := st.sc.Tenants[0]
	b, err := benchOf(spec.Bench)
	if err != nil {
		return err
	}
	nq := spec.Queries
	if nq <= 0 {
		nq = 16
	}
	cat := buildCatalog(kind)
	t0 := time.Now()
	pool, err := workload.Generate(b, cat, nq, dbSeed+5)
	if err != nil {
		return err
	}
	out.metrics["workload.generate_s"] = time.Since(t0).Seconds()
	srv := serve.New(serve.Config{})
	t0 = time.Now()
	if _, err := srv.AddTenantSystem(spec.Name, sys, spec.SLO); err != nil {
		return err
	}
	out.metrics["serve.add_tenant_s"] = time.Since(t0).Seconds()
	n := int(o.seconds*2000) / mixLen * mixLen
	if n < 2*mixLen {
		n = 2 * mixLen
	}
	ops := make([]serveOp, n)
	for i := range ops {
		op := &ops[i]
		op.kind, op.tenant, op.query, op.deadline = mixKind(i), spec.Name, pool[i%len(pool)], spec.Deadline
	}
	before := countersOf(srv)
	if err := serveDirect(ctx, out, newSpanRecorder(), srv, ops); err != nil {
		return err
	}
	if err := serveDirect(ctx, out, newSpanRecorder(), srv, ops); err != nil {
		return err
	}
	// Two passes of n ops; 3 predicts and 12 submits in every mixLen.
	countersOf(srv).minus(before).into(out, uint64(2*3*n/mixLen), uint64(2*12*n/mixLen))

	t0 = time.Now()
	if _, _, err := twinOf(st.sc); err != nil {
		return err
	}
	out.metrics["open.total_s"] = time.Since(t0).Seconds()
	return commonLayers(ctx, out, o, kind, sys, cat)
}
