package sim

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
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
		cacheCap = serve.DefaultCacheCapacity
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
// with DriftAt > 0 get their undrifted machine's System, drift-injected
// (uaqetp.WithDriftInjection) with a TruthSwitch the event loop fires
// at DriftAt; identical specs share one switch, flipped once for all of
// them.
func machineSystems(sc *resolved, base *uaqetp.System) ([]*uaqetp.System, []*uaqetp.TruthSwitch, error) {
	type derivation struct {
		sys *uaqetp.System
		sw  *uaqetp.TruthSwitch
	}
	derived := make(map[MachineSpec]derivation, len(sc.fleet))
	out := make([]*uaqetp.System, len(sc.fleet))
	sws := make([]*uaqetp.TruthSwitch, len(sc.fleet))
	for m, spec := range sc.fleet {
		if spec.Profile == sc.MachineProfile && spec.Drift == 0 {
			out[m] = base
			continue
		}
		if d, ok := derived[spec]; ok {
			out[m], sws[m] = d.sys, d.sw
			continue
		}
		pre := spec
		if spec.DriftAt > 0 {
			pre.Drift = 0
		}
		prof, err := pre.profileFor()
		if err != nil {
			return nil, nil, fmt.Errorf("sim: machine %d: %w", m, err)
		}
		sys, err := base.WithMachine(prof)
		if err != nil {
			return nil, nil, fmt.Errorf("sim: machine %d: %w", m, err)
		}
		var sw *uaqetp.TruthSwitch
		if spec.DriftAt > 0 {
			drifted, err := spec.profileFor()
			if err != nil {
				return nil, nil, fmt.Errorf("sim: machine %d: %w", m, err)
			}
			if sys, sw, err = sys.WithDriftInjection(drifted); err != nil {
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
	s, err := newRun(sc, sys, cache, sinks)
	if err != nil {
		return nil, err
	}
	if err := s.loop(); err != nil {
		return nil, err
	}
	return s.report(), nil
}

// newRun builds a run's fleet, tenants and arrivals, ready for loop.
func newRun(sc *resolved, sys *uaqetp.System, cache *uaqetp.EstimateCache, sinks runSinks) (*simRun, error) {
	fleet := sc.fleet
	msys, msws, err := machineSystems(sc, sys)
	if err != nil {
		return nil, err
	}
	s := &simRun{
		sc: sc, ctx: context.Background(), router: sc.Router, sys: sys, cache: cache,
		rec:       sinks.trace,
		decisions: sinks.trace != nil && sinks.trace.Enabled(trace.Decisions),
		calibRec:  sinks.calib,
	}
	if err := s.expandTenants(); err != nil {
		return nil, err
	}
	s.sidOf = make([]int, len(fleet))
	if sc.Shards != nil {
		s.sh = buildSharded(*sc.Shards, sc.dir, len(fleet), s.tenants)
		for si, r := range s.sh.ranges {
			for m := r[0]; m < r[1]; m++ {
				s.sidOf[m] = si
			}
		}
		s.rrNexts = make([]int, sc.Shards.Count)
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
			srv: srv, spec: fleet[m], pending: make(map[uint64]pendingArrival), shard: shardName,
			tenants: make([]*serve.Tenant, len(s.groups)),
			acc:     make([][hardware.NumUnits]calib.Accumulator, len(s.groups)),
		}
		// One serving tenant per group on every machine: a group's
		// members differ only in name and arrival stream, which the
		// server never reads.
		for gi, spec := range sc.Tenants {
			if ms.tenants[gi], err = srv.AddTenantSystem(spec.Name, msys[m], spec.SLO); err != nil {
				return nil, fmt.Errorf("sim: machine %d: %w", m, err)
			}
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

	if err := s.buildArrivals(); err != nil {
		return nil, err
	}
	return s, nil
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
// run's groups, one per spec, and its member list: one tenantState per
// spec, or Count members per group — each named "spec.Name/0000"…, each
// with its own arrival stream and directory placement, all serving and
// aggregating under the group's tenant. Scenarios without Count expand
// to exactly one member per spec, member index == spec index.
func (s *simRun) expandTenants() error {
	s.groups = make([]groupState, len(s.sc.Tenants))
	for gi, spec := range s.sc.Tenants {
		slo, err := spec.SLO.Normalized()
		if err != nil {
			return fmt.Errorf("sim: tenant %q: %w", spec.Name, err)
		}
		g := &s.groups[gi]
		g.class, g.confidence, g.effDeadline = spec.Class, slo.Confidence, spec.Deadline
		if g.class == "" {
			g.class = spec.Name
		}
		if g.effDeadline == 0 {
			g.effDeadline = slo.DefaultDeadline
		}
		if spec.Count <= 1 {
			s.tenants = append(s.tenants, newMember(spec.Name, gi))
			continue
		}
		for k := 0; k < spec.Count; k++ {
			s.tenants = append(s.tenants, newMember(fmt.Sprintf("%s/%04d", spec.Name, k), gi))
		}
	}
	return nil
}

// newMember is the member named name of group gi.
func newMember(name string, gi int) tenantState {
	return tenantState{name: name, exec: uaqetp.NewExecMember(name), group: gi}
}

// buildArrivals draws every tenant member's arrival sequence into one
// sorted slice — template references and ordinals only, which name an
// execution when the event fires — and sizes each group's latency
// samples for its share.
// Members of a Count group share one generated query pool (the pool
// depends only on the benchmark and pool size) but draw from it with
// independent per-member RNG streams.
func (s *simRun) buildArrivals() error {
	// Both processes' mean rate is Rate, so the expected total plus four
	// Poisson standard deviations sizes the slice; an unlucky burst
	// grows it.
	var expect float64
	for _, ts := range s.tenants {
		expect += s.sc.Tenants[ts.group].Arrivals.Rate * s.sc.Horizon
	}
	s.arrivals = make([]arrival, 0, int(expect+4*math.Sqrt(expect))+1)
	counts := make([]int, len(s.sc.Tenants))
	pools := make(map[int][]*template)
	var times []float64
	for ti, ts := range s.tenants {
		spec := &s.sc.Tenants[ts.group]
		// One counter-based stream per tenant: no seeding ritual, which
		// at 10k tenants is measurable.
		src := rng.NewStream(arrivalSeed(s.sc.Seed, ti))
		pool := pools[ts.group]
		if pool == nil {
			var err error
			if pool, err = s.templates(s.sc.bench[ts.group], spec.Queries); err != nil {
				return fmt.Errorf("sim: tenant %q workload: %w", ts.name, err)
			}
			pools[ts.group] = pool
		}
		times = spec.Arrivals.times(times[:0], &src, s.sc.Horizon)
		for k, at := range times {
			s.arrivals = append(s.arrivals, arrival{
				at: at, tenant: int32(ti), ord: uint32(k), tmpl: pool[src.Intn(len(pool))],
			})
		}
		counts[ts.group] += len(times)
	}
	slices.SortFunc(s.arrivals, compareArrivals)
	// Size each group's samples at its arrival count (an upper bound:
	// rejected work records nothing), so million-event runs never
	// regrow them.
	s.groupLat = make([][]float64, len(counts))
	s.groupQW = make([][]float64, len(counts))
	for g, n := range counts {
		s.groupLat[g] = make([]float64, 0, n)
		s.groupQW[g] = make([]float64, 0, n)
	}
	return nil
}

// templates generates a pool of n bench queries and plans each once
// through the base System's planner (see template).
func (s *simRun) templates(bench workload.Benchmark, n int) ([]*template, error) {
	qs, err := s.sys.GenerateWorkload(bench, n)
	if err != nil {
		return nil, err
	}
	pool := make([]*template, len(qs))
	for i, q := range qs {
		plan, _ := s.sys.Planner().BuildPlan(s.ctx, q) // on failure nil: Submit plans and rejects it
		pool[i] = &template{q: q, plan: plan}
	}
	return pool, nil
}

// compareArrivals is the one global deterministic order the event loop
// consumes through its cursor: by time, ties by (tenant, ordinal). No
// two arrivals share a (tenant, ordinal), so the order is total and any
// correct sort yields the same slice.
func compareArrivals(a, b arrival) int {
	switch {
	case a.at < b.at:
		return -1
	case a.at > b.at:
		return 1
	case a.tenant != b.tenant:
		return cmp.Compare(a.tenant, b.tenant)
	}
	return cmp.Compare(a.ord, b.ord)
}
