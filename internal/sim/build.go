package sim

import (
	"context"
	"fmt"
	"sort"

	uaqetp "repro"
	"repro/internal/calib"
	"repro/internal/hardware"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

// openBase opens a resolved scenario's base System over its shared
// cache — the one expensive Open for the whole fleet: machines with the
// default profile serve façades over this System; machines with other
// profiles (or drift) get cheap WithMachine siblings sharing its
// database, catalog, samples, and cache — sampling passes, subtree
// passes, and run results computed by any machine are reused by all of
// them, while calibration stays per machine.
func openBase(sc *resolved) (*uaqetp.System, *uaqetp.EstimateCache, error) {
	cacheCap := sc.CacheCapacity
	if cacheCap <= 0 {
		cacheCap = 1024
	}
	cache := uaqetp.NewEstimateCache(cacheCap)
	if sc.Shards != nil && sc.Shards.CacheTier != nil {
		ct := sc.Shards.CacheTier
		cache = uaqetp.NewTieredCache(uaqetp.TierConfig{
			LocalFraction: ct.LocalFraction, RemoteLatency: ct.RemoteLatency,
			Seed: sc.Seed, Capacity: cacheCap,
		})
	}
	sys, err := uaqetp.Open(uaqetp.Config{
		DB: sc.kind, Machine: sc.MachineProfile, SamplingRatio: sc.SamplingRatio,
		Seed: sc.Seed, RNG: uaqetp.RNGv2, Cache: cache,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("sim: open system: %w", err)
	}
	return sys, cache, nil
}

// machineSystems derives one System per machine from the base System:
// the base itself for default machines, one WithMachine sibling per
// distinct (profile, drift, drift_at) otherwise — same machines share
// one calibration, like same-config tenants share one Open. Machines
// with DriftAt > 0 get a drift-injected System (uaqetp.
// WithDriftInjection): calibrated against the undrifted profile, with a
// TruthSwitch the event loop fires at DriftAt; identical specs share
// one switch, flipped once for all of them.
func machineSystems(sc *resolved, base *uaqetp.System) ([]*uaqetp.System, []*uaqetp.TruthSwitch, error) {
	type derivation struct {
		sys *uaqetp.System
		sw  *uaqetp.TruthSwitch
	}
	derived := make(map[MachineSpec]derivation, len(sc.fleet))
	out := make([]*uaqetp.System, len(sc.fleet))
	sws := make([]*uaqetp.TruthSwitch, len(sc.fleet))
	for m, spec := range sc.fleet {
		if spec.Spec == nil && spec.Profile == sc.MachineProfile && spec.Drift == 0 {
			out[m] = base
			continue
		}
		if d, ok := derived[spec]; ok {
			out[m], sws[m] = d.sys, d.sw
			continue
		}
		prof, err := spec.profileFor()
		if err != nil {
			return nil, nil, fmt.Errorf("sim: machine %d: %w", m, err)
		}
		sys, err := base.WithMachine(prof)
		if err != nil {
			return nil, nil, fmt.Errorf("sim: machine %d: %w", m, err)
		}
		var sw *uaqetp.TruthSwitch
		if spec.DriftAt > 0 {
			pre := spec
			pre.Drift, pre.DriftAt = 0, 0
			preProf, err := pre.profileFor()
			if err != nil {
				return nil, nil, fmt.Errorf("sim: machine %d: %w", m, err)
			}
			if sys, sw, err = sys.WithDriftInjection(preProf); err != nil {
				return nil, nil, fmt.Errorf("sim: machine %d: %w", m, err)
			}
		}
		derived[spec] = derivation{sys, sw}
		out[m], sws[m] = sys, sw
	}
	return out, sws, nil
}

// runOn builds a resolved scenario's fleet over an already opened
// base System and its cache, then runs the event loop — the seam
// benchmarks use to amortize the expensive Open across iterations. The
// fleet (servers, queues, clocks, per-machine sibling Systems) is
// rebuilt fresh per call.
func runOn(sc *resolved, sys *uaqetp.System, cache *uaqetp.EstimateCache, sinks runSinks) (*Report, error) {
	fleet := sc.fleet
	msys, msws, err := machineSystems(sc, sys)
	if err != nil {
		return nil, err
	}
	s := &simRun{
		sc: sc, ctx: context.Background(), router: sc.Router, cache: cache,
		rec:       sinks.trace,
		decisions: sinks.trace != nil && sinks.trace.Enabled(trace.Decisions),
		calibRec:  sinks.calib,
		predMemo:  make(map[*uaqetp.Query]sharedPredEntry, 64),
	}
	s.expandTenants(sys)
	s.sidOf = make([]int, len(fleet))
	if sc.Shards != nil {
		sh, err := buildSharded(sc.Scenario, len(fleet), s.tenants)
		if err != nil {
			return nil, err
		}
		s.sh = sh
		for si, r := range sh.ranges {
			for m := r[0]; m < r[1]; m++ {
				s.sidOf[m] = si
			}
		}
		s.rrNexts = make([]int, sh.spec.Count)
	} else {
		s.rrNexts = make([]int, 1)
	}
	for m := range fleet {
		shardName := ""
		if s.sh != nil {
			shardName = s.sh.names[s.sidOf[m]]
		}
		cfg := serve.Config{
			Cache: cache, MaxQueue: sc.MaxQueue, Policy: sc.policy, RecalEvery: sc.RecalEvery,
		}
		if sinks.trace != nil {
			cfg.Trace = &machineRecorder{Recorder: sinks.trace, machine: m, shard: shardName}
		}
		srv := serve.New(cfg)
		ms := &machineState{
			srv: srv, sys: msys[m], spec: fleet[m], pending: make(map[uint64]pendingArrival), shard: shardName,
			acc: make([][hardware.NumUnits]calib.Accumulator, len(sc.Tenants)),
		}
		// Register each tenant's façade only on the machines of the
		// shard(s) the directory places it on — every machine on flat
		// fleets. Off-shard slots stay nil: routing never reads them,
		// because placement confines a tenant's arrivals to its shard.
		for ti, ts := range s.tenants {
			if s.sh != nil && !s.sh.onShard(ti, s.sidOf[m]) {
				ms.tenants = append(ms.tenants, nil)
				continue
			}
			t, err := srv.AddTenantSystem(ts.name, msys[m], ts.spec.SLO)
			if err != nil {
				return nil, fmt.Errorf("sim: machine %d: %w", m, err)
			}
			ms.tenants = append(ms.tenants, t)
		}
		s.machines = append(s.machines, ms)
	}

	// Scheduled drifts: remember which machines flip, and build the
	// fleet's flip sequence — one entry per distinct switch, in firing
	// order (machine order breaks ties, matching machineSystems' dedup).
	s.detectedAt = make([]float64, len(fleet))
	seenSw := make(map[*uaqetp.TruthSwitch]bool)
	for m := range fleet {
		s.detectedAt[m] = -1
		if sw := msws[m]; sw != nil {
			s.driftMachines = append(s.driftMachines, m)
			if !seenSw[sw] {
				seenSw[sw] = true
				s.flips = append(s.flips, truthFlip{at: fleet[m].DriftAt, sw: sw})
			}
		}
	}
	sort.SliceStable(s.flips, func(i, j int) bool { return s.flips[i].at < s.flips[j].at })

	if err := s.buildArrivals(sys); err != nil {
		return nil, err
	}
	if err := s.loop(); err != nil {
		return nil, err
	}
	return s.report(), nil
}

// arrivalSeed derives one tenant's arrival RNG seed from the scenario
// seed; well-separated streams per tenant index.
func arrivalSeed(seed int64, tenant int) int64 {
	z := uint64(seed) + uint64(tenant+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	return int64(z)
}

// expandTenants materializes the scenario's tenant specs into the
// run's member list: one tenantState per spec, or Count members per
// group — each named "spec.Name/0000"…, each with its own arrival
// stream and directory placement, all aggregating under the group's
// TenantReport. Scenarios without Count expand to exactly the legacy
// one-state-per-spec list, member index == spec index.
func (s *simRun) expandTenants(sys *uaqetp.System) {
	for gi := range s.sc.Tenants {
		spec := s.sc.Tenants[gi]
		eff := spec.Deadline
		if eff == 0 {
			eff = spec.SLO.DefaultDeadline
		}
		if eff == 0 {
			eff = 1.0
		}
		conf := spec.SLO.Confidence
		if conf == 0 {
			conf = 0.95
		}
		class := spec.Class
		if class == "" {
			class = spec.Name
		}
		n := spec.Count
		if n < 1 {
			n = 1
		}
		for k := 0; k < n; k++ {
			name := spec.Name
			if spec.Count > 1 {
				name = fmt.Sprintf("%s/%04d", spec.Name, k)
			}
			s.tenants = append(s.tenants, &tenantState{
				spec: spec, name: name, group: gi, class: class,
				confidence: conf, sys: sys, effDeadline: eff,
			})
		}
	}
}

// buildArrivals draws every tenant member's arrival sequence into one
// sorted slice — template references only; queries are cloned when the
// event fires — and sizes each member's latency series for its share.
// Members of a Count group share one generated query pool (the pool
// depends only on the benchmark and pool size) but draw from it with
// independent per-member RNG streams.
func (s *simRun) buildArrivals(sys *uaqetp.System) error {
	pools := make(map[int][]*uaqetp.Query)
	for ti, ts := range s.tenants {
		spec, bench := ts.spec, s.sc.bench[ts.group]
		if spec.Arrivals.Process == ProcessTrace {
			// External trace: recorded arrival times and template indexes,
			// resolved against the tenant's query pool.
			pool, err := sys.GenerateWorkload(bench, spec.Queries)
			if err != nil {
				return fmt.Errorf("sim: tenant %q workload: %w", spec.Name, err)
			}
			entries, err := workload.LoadTrace(spec.Arrivals.TraceFile, pool)
			if err != nil {
				return fmt.Errorf("sim: tenant %q: %w", spec.Name, err)
			}
			for k, e := range entries {
				if e.At >= s.sc.Horizon {
					break
				}
				s.arrivals = append(s.arrivals, arrival{
					at: e.At, tenant: int32(ti), ord: int32(k), tmpl: e.Query,
				})
			}
			continue
		}
		// One counter-based stream per tenant: no seeding ritual, which
		// at 10k tenants is measurable.
		src := rng.NewStream(arrivalSeed(s.sc.Seed, ti))
		pool := pools[ts.group]
		if pool == nil {
			var err error
			if pool, err = sys.GenerateWorkload(bench, spec.Queries); err != nil {
				return fmt.Errorf("sim: tenant %q workload: %w", ts.name, err)
			}
			pools[ts.group] = pool
		}
		for k, at := range spec.Arrivals.times(&src, s.sc.Horizon) {
			s.arrivals = append(s.arrivals, arrival{
				at: at, tenant: int32(ti), ord: int32(k), tmpl: pool[src.Intn(len(pool))],
			})
		}
	}
	// One global deterministic order: by time, ties by (tenant,
	// ordinal) — the order the event loop consumes through its cursor.
	sort.Slice(s.arrivals, func(i, j int) bool {
		a, b := s.arrivals[i], s.arrivals[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.tenant != b.tenant {
			return a.tenant < b.tenant
		}
		return a.ord < b.ord
	})
	// Preallocate each tenant's latency series at its arrival count (an
	// upper bound: rejected work records nothing), so million-event
	// runs never regrow them.
	counts := make([]int, len(s.tenants))
	for _, a := range s.arrivals {
		counts[a.tenant]++
	}
	for ti, ts := range s.tenants {
		ts.latencies = make([]float64, 0, counts[ti])
		ts.queueWaits = make([]float64, 0, counts[ti])
	}
	return nil
}
