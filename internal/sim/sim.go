package sim

import (
	"context"

	uaqetp "repro"
	"repro/internal/calib"
	"repro/internal/hardware"
	"repro/internal/serve"
	"repro/internal/trace"
)

// machineState is one simulated execution server: a serve.Server over
// the machine's own System (profile-specific calibration, predictor,
// and executor — a WithMachine sibling of the scenario's base System,
// or the base itself for default machines).
type machineState struct {
	srv *serve.Server
	// spec is the machine's resolved spec: its profile name and drift
	// label the report, its DriftAt schedules the drift window.
	spec MachineSpec
	// tenants holds one serving tenant per tenant group, in scenario
	// order: every member of a Count group submits under the group's
	// tenant. Each carries the machine's units behind its own
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

// groupState is what the event loop derives from one TenantSpec, shared
// by every member of a Count group: the SLO class the front door counts
// it in, its confidence floor and effective deadline, and how many of
// its arrivals the front door shed before placement.
type groupState struct {
	class       string
	confidence  float64
	effDeadline float64
	shed        int
}

// tenantState is one traffic source: a single TenantSpec, or one member
// of a Count-expanded group. A member owns only its name ("spec.Name/
// 0007" in groups, spec.Name itself otherwise), which places it in the
// shard directory and, hashed once into exec, names its executions, and
// its arrival stream, drawn from its index; group indexes the TenantSpec
// it serves under.
type tenantState struct {
	name  string
	exec  uaqetp.ExecMember
	group int
}

// simRun is the mutable state of one simulation.
type simRun struct {
	sc     *resolved
	ctx    context.Context
	router string
	cache  *uaqetp.EstimateCache
	// sys is the base System: the fleet-shared predictions resolve
	// through it.
	sys      *uaqetp.System
	machines []*machineState
	groups   []groupState
	tenants  []tenantState

	arrivals []arrival
	cursor   int
	frees    []freeEvent
	freeSeq  uint64

	// groupLat and groupQW are each tenant group's end-to-end latency
	// and queue-wait samples, one per executed request, in execution
	// order; the report sorts them in place.
	groupLat, groupQW [][]float64

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
	rs, err := sc.resolve()
	if err != nil {
		return nil, err
	}
	sys, cache, err := openBase(rs)
	if err != nil {
		return nil, err
	}
	return runOn(rs, sys, cache, sinks)
}

// sharedPred returns the base System's prediction for an arrival of
// tmpl, memoized on the template (see template).
func (s *simRun) sharedPred(tmpl *template) (*uaqetp.Prediction, error) {
	if !tmpl.predicted {
		tmpl.pred, tmpl.predErr = s.sys.PredictContext(s.ctx, tmpl.q)
		tmpl.predicted = true
	}
	return tmpl.pred, tmpl.predErr
}
