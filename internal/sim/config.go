// Package sim is a seeded discrete-event cluster simulator for the
// uncertainty-aware serving layer: it drives a fleet of simulated
// machines — each a serve.Server over its own machine's System, all
// sharing one estimate cache — with configurable multi-tenant arrival
// processes on a virtual clock, routes every arrival through a
// pluggable placement policy, and emits a structured Report (per-tenant
// SLO attainment, latency and queue-wait quantiles, admission/rejection
// counts, per-machine utilization, cache and recalibration stats).
//
// Fleets are heterogeneous by schema: "machines" is either a count (a
// homogeneous shorthand) or a per-machine list of hardware profiles
// with optional unit-mean drift (see Fleet), each non-default machine a
// cheap WithMachine sibling of one shared Open — own calibration,
// predictor, and executor over shared database, samples, and cache.
// The two forms are spellings of one fleet: the same machines run,
// route and report identically however they were written.
//
// The simulator is the scenario harness for the paper's core claim:
// predicted running-time *distributions* — not point estimates — buy
// better admission, scheduling, and placement decisions. The least-risk
// router places each query on the machine maximizing the predicted
// probability of meeting its deadline, P(T_wait + T_q <= d), evaluated
// with each machine's own calibrated (and recalibrated) units — so slow
// or drifted machines repel exactly the traffic they would fail — and
// can be compared against distribution-blind policies (round-robin,
// least-queue) and against fleet-shared-units risk routing
// (least-risk-shared) on identical traffic: same scenario, same seed,
// same queries, byte-identical reports across runs.
//
// Run(sc, ...RunOption) is the one way in: it opens the fleet's base
// System and runs one serial event loop on the calling goroutine —
// arrivals, completions, routing, admission and execution all happen
// inline, in merged event order. The options attach event sinks
// (WithTrace for the decision trace, WithCalibration for the
// calibration stream), each a trace.Recorder that sees its events in
// the order the loop produces them. The files follow a run: config.go
// resolves the Scenario (defaults, validation, every name parsed once),
// build.go opens the base System and builds the fleet, the tenants and
// the arrival sequence, loop.go is the event loop, report.go aggregates
// the Report; sim.go holds Run and the run's state.
//
// Everything is deterministic per (Scenario, Seed): every RNG derives
// from the scenario seed and the underlying prediction/execution stack
// is deterministic by contract — so the same config produces the same
// Report bytes, and the same trace and calibration JSONL, regardless of
// GOMAXPROCS or the race detector.
package sim

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"

	uaqetp "repro"
	"repro/internal/datagen"
	"repro/internal/hardware"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/workload"
)

// Scenario is one simulation configuration, JSON-loadable for the
// `uaqp sim` subcommand. See examples/sim/scenario.json for a complete
// example and the README for the schema table.
type Scenario struct {
	// Name labels the report.
	Name string `json:"name"`
	// Seed drives every source of randomness; same scenario + seed =>
	// byte-identical report.
	Seed int64 `json:"seed"`
	// Horizon is the arrival window in virtual seconds; queued work
	// admitted before the horizon still drains to completion.
	Horizon float64 `json:"horizon"`
	// Machines is the fleet: either a count (homogeneous shorthand — N
	// machines of MachineProfile) or a per-machine list of {profile,
	// drift, count} specs. See Fleet.
	Machines Fleet `json:"machines"`
	// Router places each arrival on a machine: "round-robin",
	// "least-queue", "least-risk" (default, per-machine predictions), or
	// "least-risk-shared" (the ablation: least-risk arithmetic with
	// fleet-shared units).
	Router string `json:"router"`
	// QueuePolicy orders admitted work on each machine: "risk-slack"
	// (default), "edf", "sjf", or "fifo".
	QueuePolicy string `json:"queue_policy,omitempty"`
	// DB names the generated database all tenants share, e.g.
	// "uniform-1G".
	DB string `json:"db"`
	// MachineProfile is the default hardware profile: the whole fleet's
	// under the count shorthand, and the fallback for machine-list
	// entries without one: "PC1" (the default) or "PC2"
	// (hardware.ProfileByName).
	MachineProfile string `json:"machine_profile,omitempty"`
	// SamplingRatio is the offline sample fraction; 0 selects 0.05.
	SamplingRatio float64 `json:"sampling_ratio,omitempty"`
	// CacheCapacity bounds the fleet-wide shared estimate cache; 0
	// selects serve.DefaultCacheCapacity.
	CacheCapacity int `json:"cache_capacity,omitempty"`
	// MaxQueue bounds each machine's admitted-work queue; 0 selects the
	// serve default.
	MaxQueue int `json:"max_queue,omitempty"`
	// RecalEvery, in virtual seconds, enables the automatic
	// recalibration cadence on every machine (serve.Config.RecalEvery);
	// 0 disables it.
	RecalEvery float64 `json:"recal_every,omitempty"`
	// Shards, when present, partitions the fleet into a sharded serving
	// topology: a consistent-hash tenant directory over shards of
	// machines, an optional front door (token bucket + predictive
	// shedding) and an optional modeled cache tier. See ShardsSpec.
	// Absent, the scenario is the flat pre-sharding fleet with
	// byte-identical reports.
	Shards *ShardsSpec `json:"shards,omitempty"`
	// Tenants are the traffic sources; every tenant group is one
	// serving tenant on every machine, and the router spreads its
	// arrivals across the machines of each member's shard — across the
	// whole fleet when the scenario is unsharded.
	Tenants []TenantSpec `json:"tenants"`
}

// TenantSpec describes one tenant's SLO and traffic — or, via Count, a
// whole group of identically configured tenants.
type TenantSpec struct {
	// Name must be unique within the scenario. With Count > 1 it is
	// the group prefix: members are named "name/0000", "name/0001", …
	Name string `json:"name"`
	// Count expands this spec into Count members sharing the SLO,
	// benchmark, and arrival shape but each with its own independent
	// arrival stream (per-member RNG seeds) and its own directory
	// placement. 0 or 1 means a single tenant named exactly Name. The
	// report aggregates the whole group under one TenantReport. Must
	// not be negative.
	//
	// A group is served as one tenant named Name on every machine: its
	// members submit under it, so admission, outcome and recalibration
	// trace events and the calibration stream name the group, while
	// placement and front-door events name the member, as every query
	// name does. Under recal_every the members therefore share one
	// feedback loop per machine.
	Count int `json:"count,omitempty"`
	// Class labels the group's SLO class in front-door counters and
	// metrics; empty selects Name.
	Class string `json:"class,omitempty"`
	// Bench selects the query pool: "micro", "seljoin", or "tpch".
	Bench string `json:"bench"`
	// Queries is the number of distinct queries in the pool that
	// arrivals draw from; 0 selects 16.
	Queries int `json:"queries,omitempty"`
	// Deadline is the per-request budget in virtual seconds; 0 lets the
	// SLO default apply.
	Deadline float64 `json:"deadline,omitempty"`
	// SLO is the tenant's service-level objective (serve.SLO JSON
	// shape); zero fields take the serve defaults.
	SLO serve.SLO `json:"slo"`
	// Arrivals shapes the tenant's arrival process.
	Arrivals ArrivalSpec `json:"arrivals"`
}

// Load reads a Scenario from a JSON file, rejecting unknown fields —
// top-level typos are reported with the full valid-key vocabulary, so a
// misspelled knob like "trace_levle" fails loudly instead of silently
// no-opping.
func Load(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("sim: %w", err)
	}
	// First pass: check the top-level key vocabulary, so the error for a
	// typo'd key lists what would have been accepted. Nested objects
	// keep the plain DisallowUnknownFields errors of the strict decode.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return Scenario{}, fmt.Errorf("sim: parse %s: %w", path, err)
	}
	valid := scenarioKeys()
	for key := range raw {
		if !slices.Contains(valid, key) {
			return Scenario{}, fmt.Errorf("sim: parse %s: unknown scenario key %q (valid keys: %s)",
				path, key, strings.Join(valid, ", "))
		}
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("sim: parse %s: %w", path, err)
	}
	return sc, nil
}

// scenarioKeys derives the valid top-level scenario keys from the
// Scenario struct's json tags, sorted — one source of truth, so a new
// field is automatically part of the accepted (and reported)
// vocabulary.
func scenarioKeys() []string {
	t := reflect.TypeOf(Scenario{})
	keys := make([]string, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		if name != "" && name != "-" {
			keys = append(keys, name)
		}
	}
	sort.Strings(keys)
	return keys
}

// Bounds on what a scenario may ask the simulator to build, each with at
// least 10× headroom over the largest shipped or bench scenario
// (scenario-cluster.json: 1,000 machines and 1,000,000 expected
// arrivals; the bench's sharded scenario: 10,000 tenant members; pools
// of 16 queries). resolve rejects a scenario past one before anything
// is allocated for it.
const (
	// maxMachines bounds the expanded fleet.
	maxMachines = 10_000
	// maxMembers bounds the expanded tenant members, Σ max(count, 1).
	maxMembers = 100_000
	// maxQueries bounds a tenant's query pool.
	maxQueries = 256
	// maxArrivals bounds the expected arrivals, Σ members × rate ×
	// horizon.
	maxArrivals = 10_000_000
)

// resolved is a validated scenario: the Scenario with its defaults
// filled, plus every name in it parsed to the value it denotes. resolve
// is the only place a name is parsed; openBase, runOn, buildArrivals and
// report read the values from here.
type resolved struct {
	Scenario
	kind   datagen.DBKind
	policy serve.QueuePolicy
	// fleet is Machines expanded to one spec per machine.
	fleet []MachineSpec
	// bench[i] is Tenants[i].Bench.
	bench []workload.Benchmark
	// dir is the tenant directory over Shards' shards; nil when the
	// scenario is unsharded.
	dir *shard.Directory
}

// resolve fills defaults, validates the scenario and parses its names.
func (sc Scenario) resolve() (*resolved, error) {
	if sc.Name == "" {
		sc.Name = "scenario"
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.Horizon <= 0 {
		return nil, fmt.Errorf("sim: horizon %g must be positive", sc.Horizon)
	}
	if sc.Router == "" {
		sc.Router = RouterLeastRisk
	}
	if !slices.Contains(routers(), sc.Router) {
		return nil, fmt.Errorf("sim: unknown router %q (registered: %s)", sc.Router, strings.Join(routers(), ", "))
	}
	policy, err := serve.QueuePolicyByName(sc.QueuePolicy)
	if err != nil {
		return nil, err
	}
	kind, err := datagen.ParseKind(sc.DB)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if sc.MachineProfile == "" {
		sc.MachineProfile = uaqetp.DefaultConfig().Machine
	}
	if _, err := hardware.ProfileByName(sc.MachineProfile); err != nil {
		return nil, fmt.Errorf("sim: machine_profile: %w", err)
	}
	fleet, err := sc.Machines.resolve(sc.MachineProfile)
	if err != nil {
		return nil, err
	}
	// Zero selects a knob's default; a negative one is an error.
	if sc.SamplingRatio < 0 {
		return nil, fmt.Errorf("sim: sampling_ratio %g must not be negative", sc.SamplingRatio)
	}
	if sc.CacheCapacity < 0 {
		return nil, fmt.Errorf("sim: cache_capacity %d must not be negative", sc.CacheCapacity)
	}
	if sc.MaxQueue < 0 {
		return nil, fmt.Errorf("sim: max_queue %d must not be negative", sc.MaxQueue)
	}
	if sc.RecalEvery < 0 {
		return nil, fmt.Errorf("sim: recal_every %g must not be negative", sc.RecalEvery)
	}
	if sc.SamplingRatio == 0 {
		sc.SamplingRatio = uaqetp.DefaultConfig().SamplingRatio
	}
	var dir *shard.Directory
	if sc.Shards != nil {
		if err := sc.Shards.validate(len(fleet)); err != nil {
			return nil, err
		}
		if dir, err = shard.NewDirectory(shardNames(sc.Shards.Count), sc.Shards.VNodes, sc.Seed); err != nil {
			return nil, fmt.Errorf("sim: shards: %w", err)
		}
	}
	if len(sc.Tenants) == 0 {
		return nil, fmt.Errorf("sim: scenario needs at least one tenant")
	}
	// The caller's Tenants slice is not ours to fill defaults into.
	sc.Tenants = append([]TenantSpec(nil), sc.Tenants...)
	bench := make([]workload.Benchmark, len(sc.Tenants))
	seen := make(map[string]bool, len(sc.Tenants))
	members := 0
	var expected float64 // arrivals, Σ members × rate × horizon
	for i := range sc.Tenants {
		t := &sc.Tenants[i]
		if t.Name == "" {
			return nil, fmt.Errorf("sim: tenant %d has no name", i)
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("sim: duplicate tenant %q", t.Name)
		}
		seen[t.Name] = true
		if t.Count < 0 {
			return nil, fmt.Errorf("sim: tenant %q: negative count %d", t.Name, t.Count)
		}
		n := max(t.Count, 1)
		if n > maxMembers-members {
			return nil, fmt.Errorf("sim: tenant %q: count %d takes the scenario past %d tenant members", t.Name, t.Count, maxMembers)
		}
		members += n
		if bench[i], err = workload.ParseBenchmark(t.Bench); err != nil {
			return nil, fmt.Errorf("sim: tenant %q: %w", t.Name, err)
		}
		if t.Queries < 0 {
			return nil, fmt.Errorf("sim: tenant %q: queries %d must not be negative", t.Name, t.Queries)
		}
		if t.Queries > maxQueries {
			return nil, fmt.Errorf("sim: tenant %q: queries %d above the bound of %d", t.Name, t.Queries, maxQueries)
		}
		if t.Queries == 0 {
			t.Queries = 16
		}
		if t.Deadline < 0 {
			return nil, fmt.Errorf("sim: tenant %q: negative deadline %g", t.Name, t.Deadline)
		}
		if t.Arrivals, err = t.Arrivals.normalized(sc.Horizon); err != nil {
			return nil, fmt.Errorf("sim: tenant %q: %w", t.Name, err)
		}
		expected += float64(n) * t.Arrivals.Rate * sc.Horizon
	}
	if !(expected <= maxArrivals) {
		return nil, fmt.Errorf("sim: tenants expect %g arrivals (count × arrivals.rate × horizon), above the bound of %d", expected, maxArrivals)
	}
	return &resolved{Scenario: sc, kind: kind, policy: policy, fleet: fleet, bench: bench, dir: dir}, nil
}
