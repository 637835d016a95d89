package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	uaqetp "repro"
	"repro/internal/calib"
	"repro/internal/datagen"
	"repro/internal/hardware"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The event engine holds the two discrete event kinds in separate
// structures shaped for their sizes. Arrivals — the bulk, potentially
// millions — are drawn up front, sorted once, and consumed through a
// cursor: no heap traffic, no per-event allocation, and the query clone
// each arrival needs is made lazily at processing time, so a
// million-arrival scenario never holds a million cloned queries at
// once. Completions (one in-flight query per machine, so at most
// #machines outstanding) live in a small value-based binary heap over a
// reused backing slice.
//
// The merged order is (time, tie: arrivals first, then completion push
// order) — exactly the order the previous pointer-heap produced, where
// arrivals were assigned the lowest sequence numbers up front.

// arrival is one query arriving at the router: a template reference
// plus placement, cloned into a uniquely named query only when the
// event fires.
type arrival struct {
	at     float64
	tenant int32
	ord    int32
	tmpl   *uaqetp.Query
}

// freeEvent is a machine finishing its in-flight query.
type freeEvent struct {
	at      float64
	seq     uint64 // tie-break at equal times: push order
	machine int
}

func freeLess(a, b freeEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// pendingArrival remembers when an admitted request arrived (and whose
// it was), so outcomes can be turned into end-to-end latencies.
type pendingArrival struct {
	tenant int
	at     float64
}

// machineState is one simulated execution server: a serve.Server over
// the machine's own System (profile-specific calibration, predictor,
// and executor — a WithMachine sibling of the scenario's base System,
// or the base itself for default machines).
type machineState struct {
	srv *serve.Server
	sys *uaqetp.System
	// spec labels the machine (resolved profile name + drift) on
	// labeled fleets; zero on count-shorthand fleets, which keep the
	// pre-heterogeneity report shape.
	spec MachineSpec
	// tenants are this machine's tenant façades in scenario tenant
	// order: each carries the machine's units behind its own
	// hot-swappable predictor handle, so per-machine routing sees
	// recalibrations the moment they land.
	tenants  []*serve.Tenant
	busy     bool
	busyTime float64
	executed int
	pending  map[uint64]pendingArrival

	// shard is the machine's shard name, empty on flat fleets.
	shard string
	// acc[g][u] aggregates the (predicted distribution, observed time)
	// pairs of tenant group g's executions on this machine whose
	// predicted mean unit u dominates. The accumulators stay per machine
	// because calibrationReport's fixed merge order over them fixes the
	// report's float bytes.
	acc [][hardware.NumUnits]calib.Accumulator
}

// machineRecorder is the trace.Recorder the simulator installs as each
// server's Config.Trace: serve has no notion of its own fleet position,
// so the machine index (and, on sharded topologies, the shard name;
// empty and omitted from the JSON on flat fleets) is stamped here
// before the event is forwarded to the run's recorder.
type machineRecorder struct {
	trace.Recorder
	machine int
	shard   string
}

func (r *machineRecorder) Record(ev *trace.Event) {
	ev.Machine = r.machine
	ev.Shard = r.shard
	r.Recorder.Record(ev)
}

// tenantState is one traffic source: a single TenantSpec, or one member
// of a Count-expanded group.
type tenantState struct {
	spec TenantSpec
	// name is the member's unique name ("spec.Name/0007" in groups,
	// spec.Name itself otherwise); group indexes the TenantSpec this
	// member aggregates under; class is the front door's SLO class.
	name        string
	group       int
	class       string
	confidence  float64
	sys         *uaqetp.System
	effDeadline float64
	// shed counts front-door refusals (before placement).
	shed       int
	latencies  []float64
	queueWaits []float64
}

// simRun is the mutable state of one simulation.
type simRun struct {
	sc       Scenario
	ctx      context.Context
	router   string
	cache    *uaqetp.EstimateCache
	machines []*machineState
	tenants  []*tenantState
	// perMachine selects per-machine least-risk predictions (labeled
	// fleets); count-shorthand fleets keep the fleet-shared prediction
	// path, byte-identical to the homogeneous simulator.
	perMachine bool

	arrivals []arrival
	cursor   int
	frees    []freeEvent
	freeSeq  uint64
	// templates are the distinct pool queries the arrivals draw from,
	// in first-appearance order; their plans are executed once up front
	// (see the prewarm in runOn).
	templates []*uaqetp.Query
	// ver is the scenario's measurement-stream version (internal/rng),
	// parsed once from sc.RNG.
	ver rng.Version
	// predMemo caches the base System's prediction per template: every
	// tenant's façade-free prediction path (the front door's bestP
	// bound, the shared-units router) resolves through the base System,
	// whose predictor never swaps mid-run, and clones share their
	// template's plan fingerprint — so one probe of this map replaces
	// re-deriving fingerprints and memo keys per arrival. Failures are
	// memoized too (a template that cannot be predicted never will be).
	predMemo map[*uaqetp.Query]sharedPredEntry

	processed int
	// out is the scratch Outcome the drain path fills in place.
	out serve.Outcome
	// rrNexts is the round-robin rotation per shard — one entry (the
	// whole fleet's) on unsharded runs.
	rrNexts []int

	// sh is the sharded topology, nil on flat fleets; sidOf maps each
	// machine index to its shard.
	sh    *shardedRun
	sidOf []int

	// Decision tracing. rec is the run's recorder (WithTrace; nil for
	// untraced runs) and decisions whether it records placements and
	// front-door verdicts; cands/tieBreak are the router's scratch for
	// the current placement (filled only when decisions is set, so the
	// untraced hot path never touches them).
	rec       trace.Recorder
	decisions bool
	cands     []trace.Candidate
	tieBreak  string
	// calibRec is the run's calibration-event recorder
	// (WithCalibration), nil unless the run streams calibration events.
	calibRec trace.Recorder

	// Drift injection. flips are the pending truth switches in firing
	// order (one per distinct drift-at spec); the event loop fires each
	// before processing the first event at or past its instant.
	// driftMachines lists machines with a scheduled drift; detectedAt is
	// the per-machine virtual time the first post-onset automatic
	// recalibration landed (-1 until then); phaseSamples records every
	// executed request's (finish, met) so the report can split attainment
	// into before/during/after-detection phases.
	flips         []truthFlip
	flipCursor    int
	driftMachines []int
	detectedAt    []float64
	phaseSamples  []phaseSample
}

// truthFlip is one scheduled drift onset: the switch shared by every
// machine of one drift-at spec, fired at its instant.
type truthFlip struct {
	at float64
	sw *uaqetp.TruthSwitch
}

// phaseSample is one executed request's contribution to the drift
// window's per-phase attainment.
type phaseSample struct {
	finish float64
	met    bool
}

// RunOption attaches an event sink to a run. Sinks observe; they never
// change a byte of the report.
type RunOption func(*runSinks)

type runSinks struct {
	trace trace.Recorder
	calib trace.Recorder
}

// WithTrace records the run's decision events — placements and
// front-door verdicts from the simulator, admissions, outcomes and
// recalibrations from each machine's server, stamped with machine and
// shard — on rec, in event order, at whatever level rec is enabled for.
// A trace.Buffer numbers them as they arrive, so same scenario + seed
// => byte-identical trace JSONL.
func WithTrace(rec trace.Recorder) RunOption {
	return func(o *runSinks) { o.trace = rec }
}

// WithCalibration streams the calibration observatory's raw feed to
// rec (enabled at trace.Full): one KindCalibration event per executed
// request, in event order (`uaqp sim -calib`). Give it a recorder of
// its own — the stream is numbered separately from the decision trace,
// so neither stream's bytes depend on whether the other is on.
func WithCalibration(rec trace.Recorder) RunOption {
	return func(o *runSinks) { o.calib = rec }
}

// Run executes the scenario to completion — every arrival routed,
// admitted work drained — and returns the report. The whole run is one
// serial event loop on the calling goroutine, so same scenario + seed
// => identical Report (and identical event streams on the sinks the
// options attach), regardless of GOMAXPROCS or the race detector.
func Run(sc Scenario, opts ...RunOption) (*Report, error) {
	var sinks runSinks
	for _, opt := range opts {
		opt(&sinks)
	}
	sc, err := sc.normalized()
	if err != nil {
		return nil, err
	}
	sys, cache, err := openBase(sc)
	if err != nil {
		return nil, err
	}
	return runOn(sc, sys, cache, sinks)
}

// openBase opens a normalized scenario's base System over its shared
// cache — the one expensive Open for the whole fleet: machines with the
// default profile serve façades over this System; machines with other
// profiles (or drift) get cheap WithMachine siblings sharing its
// database, catalog, samples, and cache — sampling passes, subtree
// passes, and run results computed by any machine are reused by all of
// them, while calibration stays per machine.
func openBase(sc Scenario) (*uaqetp.System, *uaqetp.EstimateCache, error) {
	kind, err := datagen.ParseKind(sc.DB)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: %w", err)
	}
	ver, err := rng.ParseVersion(sc.RNG)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: rng: %w", err)
	}
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
		DB: kind, Machine: sc.MachineProfile, SamplingRatio: sc.SamplingRatio,
		Seed: sc.Seed, RNG: ver, Cache: cache,
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
func machineSystems(sc Scenario, fleet []MachineSpec, base *uaqetp.System) ([]*uaqetp.System, []*uaqetp.TruthSwitch, error) {
	type derivation struct {
		sys *uaqetp.System
		sw  *uaqetp.TruthSwitch
	}
	derived := make(map[MachineSpec]derivation, len(fleet))
	out := make([]*uaqetp.System, len(fleet))
	sws := make([]*uaqetp.TruthSwitch, len(fleet))
	for m, spec := range fleet {
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

// runOn builds a normalized scenario's fleet over an already opened
// base System and its cache, then runs the event loop — the seam
// benchmarks use to amortize the expensive Open across iterations. The
// fleet (servers, queues, clocks, per-machine sibling Systems) is
// rebuilt fresh per call.
func runOn(sc Scenario, sys *uaqetp.System, cache *uaqetp.EstimateCache, sinks runSinks) (*Report, error) {
	qpol, err := serve.QueuePolicyByName(sc.QueuePolicy)
	if err != nil {
		return nil, err
	}
	fleet, err := sc.Machines.resolve(sc.MachineProfile)
	if err != nil {
		return nil, err
	}
	msys, msws, err := machineSystems(sc, fleet, sys)
	if err != nil {
		return nil, err
	}
	ver, err := rng.ParseVersion(sc.RNG)
	if err != nil {
		return nil, fmt.Errorf("sim: rng: %w", err)
	}
	s := &simRun{
		sc: sc, ctx: context.Background(), router: sc.Router, cache: cache,
		perMachine: sc.Machines.Labeled(),
		rec:        sinks.trace,
		decisions:  sinks.trace != nil && sinks.trace.Enabled(trace.Decisions),
		calibRec:   sinks.calib,
		ver:        ver,
		predMemo:   make(map[*uaqetp.Query]sharedPredEntry, 64),
	}
	s.expandTenants(sys)
	s.sidOf = make([]int, len(fleet))
	if sc.Shards != nil {
		sh, err := buildSharded(sc, len(fleet), s.tenants)
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
			Cache: cache, MaxQueue: sc.MaxQueue, Policy: qpol, RecalEvery: sc.RecalEvery,
		}
		if sinks.trace != nil {
			cfg.Trace = &machineRecorder{Recorder: sinks.trace, machine: m, shard: shardName}
		}
		srv := serve.New(cfg)
		ms := &machineState{
			srv: srv, sys: msys[m], pending: make(map[uint64]pendingArrival), shard: shardName,
			acc: make([][hardware.NumUnits]calib.Accumulator, len(sc.Tenants)),
		}
		if s.perMachine {
			ms.spec = fleet[m]
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
	// Execute each distinct template once before the loop. Nothing in
	// the serial loop needs the warm cache; the pass stays because its
	// lookups are counted in the report's cache section (every template's
	// first execution misses here instead of inside the loop), so dropping
	// it moves every pinned golden. Templates that fail to execute are
	// simply skipped; the loop tallies such failures per arrival.
	for _, q := range s.templates {
		_, _ = sys.ExecuteContext(s.ctx, q)
	}
	if err := s.loop(); err != nil {
		return nil, err
	}
	return s.report(), nil
}

// sharedPredEntry is one memoized base-System prediction (or its
// sticky failure).
type sharedPredEntry struct {
	pred *uaqetp.Prediction
	err  error
}

// sharedPred resolves the base System's prediction for an arrival: on
// v2 scenarios through the run-level memo keyed by the arrival's
// template (see the predMemo field for why one map probe is equivalent
// to predicting the clone); on v1 scenarios through the full
// per-arrival PredictContext the simulator has always issued — the memo
// changes the shared cache's hit/miss counters (and with them the
// report's cache-economy figure), so the v1 compatibility gate must not
// take it.
func (s *simRun) sharedPred(ts *tenantState, q, tmpl *uaqetp.Query) (*uaqetp.Prediction, error) {
	if s.ver != rng.V2 {
		return ts.sys.PredictContext(s.ctx, q)
	}
	if e, ok := s.predMemo[tmpl]; ok {
		return e.pred, e.err
	}
	pred, err := ts.sys.PredictContext(s.ctx, tmpl)
	s.predMemo[tmpl] = sharedPredEntry{pred, err}
	return pred, err
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

// cloneQuery gives one arrival its own copy of a pool query under a
// unique name (tenant/template#ordinal, ordinal zero-padded to five
// digits). The plan (and therefore every cached sampling pass and run
// result) is unchanged — only the executor's measurement stream, which
// is seeded per query name, differs — so repeated arrivals of the same
// template draw independent deterministic running times instead of
// replaying one number.
func cloneQuery(base *uaqetp.Query, tenant string, ordinal int) *uaqetp.Query {
	q := *base
	o := strconv.Itoa(ordinal)
	var b strings.Builder
	b.Grow(len(tenant) + len(base.Name) + len(o) + 7)
	b.WriteString(tenant)
	b.WriteByte('/')
	b.WriteString(base.Name)
	b.WriteByte('#')
	for i := len(o); i < 5; i++ {
		b.WriteByte('0')
	}
	b.WriteString(o)
	q.Name = b.String()
	return &q
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
	seen := make(map[*uaqetp.Query]bool)
	note := func(q *uaqetp.Query) *uaqetp.Query {
		if !seen[q] {
			seen[q] = true
			s.templates = append(s.templates, q)
		}
		return q
	}
	pools := make(map[int][]*uaqetp.Query)
	for ti, ts := range s.tenants {
		spec := ts.spec
		bench, err := workload.ParseBenchmark(spec.Bench)
		if err != nil {
			return err
		}
		if spec.Arrivals.Process == ProcessTrace {
			var entries []workload.TraceEntry
			if spec.Arrivals.TraceFile != "" {
				// External trace: recorded arrival times and template
				// indexes, resolved against the tenant's query pool.
				pool, err := sys.GenerateWorkload(bench, spec.Queries)
				if err != nil {
					return fmt.Errorf("sim: tenant %q workload: %w", spec.Name, err)
				}
				if entries, err = workload.LoadTrace(spec.Arrivals.TraceFile, pool); err != nil {
					return fmt.Errorf("sim: tenant %q: %w", spec.Name, err)
				}
			} else {
				n := int(math.Round(spec.Arrivals.Rate * s.sc.Horizon))
				if n < 1 {
					n = 1
				}
				// Each tenant replays its own generated trace stream: same
				// catalog, independent arrival sequences.
				var err error
				entries, err = sys.GenerateTrace(bench, n, spec.Arrivals.Rate, arrivalSeed(s.sc.Seed, ti))
				if err != nil {
					return fmt.Errorf("sim: tenant %q trace: %w", spec.Name, err)
				}
			}
			for k, e := range entries {
				if e.At >= s.sc.Horizon {
					break
				}
				s.arrivals = append(s.arrivals, arrival{
					at: e.At, tenant: int32(ti), ord: int32(k), tmpl: note(e.Query),
				})
			}
			continue
		}
		// The arrival stream rides the scenario's measurement-stream
		// version: v1 keeps the historical math/rand source, v2 skips
		// its per-tenant seeding ritual — at 10k tenants the seeding
		// alone is measurable. Both satisfy rng.Source; the boxing costs
		// once per tenant, not per draw.
		var src rng.Source
		if s.ver == rng.V2 {
			st := rng.NewStream(arrivalSeed(s.sc.Seed, ti))
			src = &st
		} else {
			src = rand.New(rand.NewSource(arrivalSeed(s.sc.Seed, ti)))
		}
		pool := pools[ts.group]
		if pool == nil {
			pool, err = sys.GenerateWorkload(bench, spec.Queries)
			if err != nil {
				return fmt.Errorf("sim: tenant %q workload: %w", ts.name, err)
			}
			pools[ts.group] = pool
		}
		for k, at := range spec.Arrivals.times(src, s.sc.Horizon) {
			s.arrivals = append(s.arrivals, arrival{
				at: at, tenant: int32(ti), ord: int32(k), tmpl: note(pool[src.Intn(len(pool))]),
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

// pushFree schedules a machine completion, assigning the next sequence
// number (completion ties at equal times resolve in push order, after
// any arrival at the same instant).
func (s *simRun) pushFree(at float64, machine int) {
	s.frees = append(s.frees, freeEvent{at: at, seq: s.freeSeq, machine: machine})
	s.freeSeq++
	i := len(s.frees) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !freeLess(s.frees[i], s.frees[p]) {
			break
		}
		s.frees[i], s.frees[p] = s.frees[p], s.frees[i]
		i = p
	}
}

// popFree removes and returns the earliest completion.
func (s *simRun) popFree() freeEvent {
	top := s.frees[0]
	n := len(s.frees) - 1
	s.frees[0] = s.frees[n]
	s.frees = s.frees[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		sm := i
		if l < n && freeLess(s.frees[l], s.frees[sm]) {
			sm = l
		}
		if r < n && freeLess(s.frees[r], s.frees[sm]) {
			sm = r
		}
		if sm == i {
			break
		}
		s.frees[i], s.frees[sm] = s.frees[sm], s.frees[i]
		i = sm
	}
	return top
}

// loop processes events until none remain, one at a time in merged
// (time, arrivals-first) order. Arrivals route, advance the chosen
// machine's clock to event time, and run admission; admitted work
// starts immediately on an idle machine. A machine finishing its query
// frees at the outcome's finish time and starts the next queued
// request, so queues drain to completion after the arrival horizon.
//
// Clocks advance lazily: an arrival touches only the machine it lands
// on (the routers read other machines' states at event time through
// the read-only QueueStateAt, which is arithmetic-identical to
// advancing them first), a completion touches its own machine, and the
// loop ends by aligning every machine with the final arrival instant —
// so each machine's clock finishes exactly where the broadcast version
// left it.
func (s *simRun) loop() error {
	for {
		hasArr := s.cursor < len(s.arrivals)
		hasFree := len(s.frees) > 0
		if !hasArr && !hasFree {
			break
		}
		// Fire every scheduled drift whose instant the next event has
		// reached, before any event at or past its time is processed, so
		// executions at t >= drift_at measure on the drifted truth.
		if s.flipCursor < len(s.flips) {
			next := math.Inf(1)
			if hasArr {
				next = s.arrivals[s.cursor].at
			}
			if hasFree && s.frees[0].at < next {
				next = s.frees[0].at
			}
			for s.flipCursor < len(s.flips) && next >= s.flips[s.flipCursor].at {
				s.flips[s.flipCursor].sw.Switch()
				s.flipCursor++
			}
		}
		s.processed++
		if hasArr && (!hasFree || s.arrivals[s.cursor].at <= s.frees[0].at) {
			a := s.arrivals[s.cursor]
			s.cursor++
			if err := s.handleArrival(a); err != nil {
				return err
			}
			continue
		}
		// A completion: mark the machine free, advance its clock to the
		// completion instant, and start its next queued request.
		ev := s.popFree()
		ms := s.machines[ev.machine]
		ms.busy = false
		ms.srv.AdvanceClock(ev.at)
		s.stepMachine(ev.machine)
	}
	// Align every machine with the last arrival instant, exactly as the
	// per-arrival clock broadcast used to. The alignment may trigger
	// final auto-recalibration checks, in machine order.
	if n := len(s.arrivals); n > 0 {
		last := s.arrivals[n-1].at
		for _, ms := range s.machines {
			ms.srv.AdvanceClock(last)
		}
		s.pollDetection()
	}
	return nil
}

// handleArrival clones the arrival's template, passes the fleet's
// front door (sharded topologies only), routes it within its tenant's
// shard, and runs admission on the chosen machine at event time. Its
// trace emissions land in call order: the placement event, then
// whatever the clock advance and the admission make the server emit.
func (s *simRun) handleArrival(a arrival) error {
	ts := s.tenants[a.tenant]
	q := cloneQuery(a.tmpl, ts.name, int(a.ord))
	lo, hi, sid := 0, len(s.machines), 0
	shardName := ""
	if s.sh != nil {
		sid = s.sh.placeAt(int(a.tenant), a.at)
		lo, hi = s.sh.ranges[sid][0], s.sh.ranges[sid][1]
		shardName = s.sh.names[sid]
		if fd := s.sh.front; fd != nil {
			// Shed before placement: the predictive check asks whether any
			// machine of the tenant's shard could plausibly make the
			// deadline; a hopeless request is refused without spending a
			// token (prediction failures pass through with bestP = 1 and
			// are tallied by server-side admission exactly as when
			// unsharded).
			bestP := 1.0
			if fd.Predictive() && ts.effDeadline > 0 {
				bestP = s.bestPIn(ts, q, a.tmpl, ts.effDeadline, a.at, lo, hi)
			}
			if v := fd.Admit(ts.class, a.at, bestP, ts.confidence); v != shard.VerdictAdmit {
				ts.shed++
				if s.decisions {
					s.rec.Record(&trace.Event{
						Kind: trace.KindAdmission, At: a.at, Machine: -1, Shard: shardName,
						Tenant: ts.name, Query: q.Name,
						Verdict: string(v), Reason: "front-door",
						Deadline: ts.effDeadline, PMeet: bestP, Threshold: ts.confidence,
					})
				}
				return nil
			}
		}
	}
	m, err := s.route(ts, int(a.tenant), q, a.tmpl, ts.effDeadline, a.at, lo, hi, sid)
	if err != nil {
		return err
	}
	ms := s.machines[m]
	if s.decisions {
		ev := trace.Event{
			Kind: trace.KindPlacement, At: a.at, Machine: m, Shard: shardName,
			Tenant: ts.name, Query: q.Name,
			Router: s.router, TieBreak: s.tieBreak,
		}
		if len(s.cands) > 0 {
			ev.Candidates = append([]trace.Candidate(nil), s.cands...)
		}
		s.rec.Record(&ev)
	}
	ms.srv.AdvanceClock(a.at)
	dec, err := ms.srv.Submit(s.ctx, serve.Request{
		Tenant: ts.name, Query: q, Deadline: ts.spec.Deadline,
	})
	if err != nil {
		// An unpredictable query is already tallied as a rejection
		// by the server; the simulation carries on.
		return nil
	}
	if dec.Admitted {
		ms.pending[dec.ID] = pendingArrival{tenant: int(a.tenant), at: a.at}
		if !ms.busy {
			s.stepMachine(m)
		}
	}
	return nil
}

// stepMachine pops and executes machine m's best queued request at its
// current clock, appends the latency sample to the tenant's series and
// schedules the completion. Execution failures consume the request
// (tallied by the server) and the next queued request is tried; an
// empty queue leaves the machine idle.
func (s *simRun) stepMachine(m int) {
	ms := s.machines[m]
	for {
		ok, err := ms.srv.StepOneInto(&s.out)
		if !ok {
			break
		}
		if err != nil {
			// The failed request is consumed (tallied by the server);
			// release its admission-tracking entry and try the next.
			delete(ms.pending, s.out.ID)
			continue
		}
		ms.busy = true
		ms.busyTime += s.out.Elapsed
		ms.executed++
		if p, found := ms.pending[s.out.ID]; found {
			delete(ms.pending, s.out.ID)
			ts := s.tenants[p.tenant]
			ts.latencies = append(ts.latencies, s.out.Finish-p.at)
			ts.queueWaits = append(ts.queueWaits, s.out.Start-p.at)
			// The outcome is one calibration observation, attributed to
			// the member's tenant group like the report's per-tenant rows.
			ms.acc[ts.group][s.out.Unit].Observe(s.out.PredMean, s.out.PredSigma, s.out.Elapsed)
			if s.calibRec != nil && s.calibRec.Enabled(trace.Full) {
				s.calibRec.Record(&trace.Event{
					Kind: trace.KindCalibration, At: s.out.Finish, Machine: m, Shard: ms.shard,
					Tenant: s.out.Tenant, Unit: s.out.Unit.String(),
					PredMean: s.out.PredMean, PredSigma: s.out.PredSigma, Elapsed: s.out.Elapsed,
				})
			}
			// finish/met let drift experiments attribute each outcome to a
			// before/during/after-detection phase at report time.
			if len(s.driftMachines) > 0 {
				s.phaseSamples = append(s.phaseSamples, phaseSample{finish: s.out.Finish, met: s.out.Met})
			}
		}
		s.pushFree(s.out.Finish, m)
		break
	}
	s.pollDetection()
}

// pollDetection checks every drift machine whose truth has switched for
// its first post-onset automatic recalibration — the feedback loop
// noticing the drift. The server records the exact virtual instant the
// recalibration fired, so polling once per service step loses no
// precision.
func (s *simRun) pollDetection() {
	for _, m := range s.driftMachines {
		if s.detectedAt[m] >= 0 {
			continue
		}
		ms := s.machines[m]
		at, n := ms.srv.LastAutoRecalibration()
		if n > 0 && at >= ms.spec.DriftAt {
			s.detectedAt[m] = at
		}
	}
}

// report aggregates the fleet into the final Report.
func (s *simRun) report() *Report {
	rep := &Report{
		Scenario:    s.sc.Name,
		Seed:        s.sc.Seed,
		Router:      s.router,
		QueuePolicy: s.sc.QueuePolicy,
		Machines:    len(s.machines),
		Events:      s.processed,
		Arrivals:    len(s.arrivals),
		Cache:       s.cache.Stats(),
	}
	if rep.QueuePolicy == "" {
		rep.QueuePolicy = serve.RiskSlack.Name
	}

	// Per-machine stats, snapshotted once each.
	perMachine := make([]serve.Stats, len(s.machines))
	for m, ms := range s.machines {
		st := ms.srv.Stats()
		perMachine[m] = st
		mr := MachineReport{
			Machine:  m,
			Profile:  ms.spec.Profile,
			Drift:    ms.spec.Drift,
			DriftAt:  ms.spec.DriftAt,
			Executed: ms.executed,
			Clock:    st.Clock,
			BusyTime: ms.busyTime,
		}
		if ms.spec.DriftAt > 0 && s.detectedAt[m] >= 0 {
			mr.DriftDetectedAt = s.detectedAt[m]
		}
		if st.Clock > 0 {
			mr.Utilization = ms.busyTime / st.Clock
		}
		rep.PerMachine = append(rep.PerMachine, mr)
		if st.Clock > rep.MakeSpan {
			rep.MakeSpan = st.Clock
		}
	}

	// Aggregate per group (one TenantReport per TenantSpec, covering all
	// its expanded members): serve-side counters are matched to members
	// through a name index rather than a per-tenant fleet scan, so a
	// 10k-tenant run aggregates in one pass over the per-machine stats.
	// Every sum is over integers (or sorted by summarize), so the result
	// is independent of member and machine iteration order.
	groups := make([]TenantReport, len(s.sc.Tenants))
	groupLat := make([][]float64, len(groups))
	groupQW := make([][]float64, len(groups))
	for gi := range groups {
		groups[gi].Name = s.sc.Tenants[gi].Name
	}
	memberOf := make(map[string]int, len(s.tenants))
	for _, ts := range s.tenants {
		memberOf[ts.name] = ts.group
	}
	for m := range s.machines {
		for _, st := range perMachine[m].Tenants {
			gi, ok := memberOf[st.Name]
			if !ok {
				continue
			}
			tr := &groups[gi]
			tr.Admitted += int(st.Admitted)
			tr.Rejected += int(st.Rejected)
			tr.Executed += int(st.Executed)
			tr.ExecFailed += int(st.ExecFailed)
			tr.DeadlinesMet += int(st.DeadlinesMet)
			tr.DeadlinesMissed += int(st.DeadlinesMissed)
			tr.Recalibrations += st.Recalibrations
			tr.AutoRecalibrations += st.AutoRecalibrations
		}
	}
	var fleetMet, fleetSubmitted int
	var fleetLat []float64
	for _, ts := range s.tenants {
		fleetLat = append(fleetLat, ts.latencies...)
		groups[ts.group].Shed += ts.shed
		groupLat[ts.group] = append(groupLat[ts.group], ts.latencies...)
		groupQW[ts.group] = append(groupQW[ts.group], ts.queueWaits...)
	}
	for gi := range groups {
		tr := &groups[gi]
		tr.Submitted = tr.Admitted + tr.Rejected + tr.Shed
		if tr.Submitted > 0 {
			tr.SLOAttainment = float64(tr.DeadlinesMet) / float64(tr.Submitted)
		}
		if tr.Executed > 0 {
			tr.AttainmentExecuted = float64(tr.DeadlinesMet) / float64(tr.Executed)
		}
		tr.Latency = summarize(groupLat[gi])
		tr.QueueWait = summarize(groupQW[gi])
		fleetMet += tr.DeadlinesMet
		fleetSubmitted += tr.Submitted
	}
	rep.Tenants = groups
	if fleetSubmitted > 0 {
		rep.SLOAttainment = float64(fleetMet) / float64(fleetSubmitted)
	}
	rep.Latency = summarize(fleetLat)
	sort.Slice(rep.Tenants, func(i, j int) bool { return rep.Tenants[i].Name < rep.Tenants[j].Name })
	rep.Calibration = s.calibrationReport()
	rep.DriftWindow = s.driftWindow()
	if s.sh != nil {
		rep.Shards = s.shardsReport()
	}
	rep.Fitness = ComputeFitness(rep, DefaultFitnessWeights())
	return rep
}
