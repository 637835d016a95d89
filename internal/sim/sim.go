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
	sys *uaqetp.System
	// spec is the machine's resolved spec: its profile name and drift
	// label the report, its DriftAt schedules the drift window.
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
	sc       *resolved
	ctx      context.Context
	router   string
	cache    *uaqetp.EstimateCache
	machines []*machineState
	tenants  []*tenantState

	arrivals []arrival
	cursor   int
	frees    []freeEvent
	freeSeq  uint64
	// predMemo caches the base System's prediction per template: the
	// front door's bestP bound and every least-risk candidate still on
	// the base predictor stage resolve through the base System,
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

// sharedPredEntry is one memoized base-System prediction (or its
// sticky failure).
type sharedPredEntry struct {
	pred *uaqetp.Prediction
	err  error
}

// sharedPred resolves the base System's prediction for an arrival
// through the run-level memo keyed by the arrival's template (see the
// predMemo field for why one map probe is equivalent to predicting the
// clone).
func (s *simRun) sharedPred(ts *tenantState, tmpl *uaqetp.Query) (*uaqetp.Prediction, error) {
	if e, ok := s.predMemo[tmpl]; ok {
		return e.pred, e.err
	}
	pred, err := ts.sys.PredictContext(s.ctx, tmpl)
	s.predMemo[tmpl] = sharedPredEntry{pred, err}
	return pred, err
}
