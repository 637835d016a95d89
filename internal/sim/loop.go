package sim

import (
	"math"

	uaqetp "repro"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/trace"
)

// The event engine holds the two discrete event kinds in separate
// structures shaped for their sizes. Arrivals — the bulk, potentially
// millions — are drawn up front, sorted once, and consumed through a
// cursor: no heap traffic, no per-event allocation. An arrival submits
// its template's shared query and plan under an execution name hashed
// from its member, template and ordinal (uaqetp.ExecName): no query is
// copied and no name is built unless a trace records it. Completions
// (one in-flight query per machine, so at most #machines outstanding)
// live in a small value-based binary heap over a reused backing slice.
//
// The merged order is (time, tie: arrivals first, then completion push
// order) — exactly the order the previous pointer-heap produced, where
// arrivals were assigned the lowest sequence numbers up front.

// arrival is one query arriving at the router: a template reference,
// the member it comes from and its ordinal among the member's arrivals,
// which name its execution.
type arrival struct {
	at     float64
	tenant int32
	ord    uint32
	tmpl   *template
}

// template is one pool query with what its arrivals share: every
// arrival submits q itself, under an execution name of its own. plan is
// built once through the base System's planner, which every machine's
// tenant System shares; it is nil when the query fails to plan, so
// Submit plans it itself and rejects the arrival as before. pred is the
// base System's prediction, memoized on first use (a failure too): the
// base predictor never swaps mid-run, so it stands for every arrival's.
type template struct {
	q         *uaqetp.Query
	plan      *uaqetp.Plan
	predicted bool
	pred      *uaqetp.Prediction
	predErr   error
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

// pendingArrival remembers when an admitted request arrived (and which
// tenant group's it was), so outcomes can be turned into end-to-end
// latencies.
type pendingArrival struct {
	group int
	at    float64
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

// handleArrival passes the arrival through the fleet's front door
// (sharded topologies only), routes it within its member's shard, and
// runs admission on the chosen machine at event time, under the group's
// serving tenant. Its trace emissions land in call order: the placement
// event, then whatever the clock advance and the admission make the
// server emit; only they build the execution's name.
func (s *simRun) handleArrival(a arrival) error {
	ts := &s.tenants[a.tenant]
	q := a.tmpl.q
	name := ts.exec.Exec(q, a.ord)
	g := &s.groups[ts.group]
	lo, hi, sid := 0, len(s.machines), 0
	shardName := ""
	if s.sh != nil {
		sid = int(s.sh.place[a.tenant])
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
			if fd.Predictive() && g.effDeadline > 0 {
				bestP = s.bestPIn(a.tmpl, g.effDeadline, a.at, lo, hi)
			}
			if v := fd.Admit(g.class, a.at, bestP, g.confidence); v != shard.VerdictAdmit {
				g.shed++
				if s.decisions {
					s.rec.Record(&trace.Event{
						Kind: trace.KindAdmission, At: a.at, Machine: -1, Shard: shardName,
						Tenant: ts.name, Query: name.Of(q),
						Verdict: string(v), Reason: "front-door",
						Deadline: g.effDeadline, PMeet: bestP, Threshold: g.confidence,
					})
				}
				return nil
			}
		}
	}
	m, err := s.route(ts.group, a.tmpl, g.effDeadline, a.at, lo, hi, sid)
	if err != nil {
		return err
	}
	ms := s.machines[m]
	if s.decisions {
		ev := trace.Event{
			Kind: trace.KindPlacement, At: a.at, Machine: m, Shard: shardName,
			Tenant: ts.name, Query: name.Of(q),
			Router: s.router, TieBreak: s.tieBreak,
		}
		if len(s.cands) > 0 {
			ev.Candidates = append([]trace.Candidate(nil), s.cands...)
		}
		s.rec.Record(&ev)
	}
	ms.srv.AdvanceClock(a.at)
	dec, err := ms.srv.Submit(s.ctx, serve.Request{
		Tenant: s.sc.Tenants[ts.group].Name, Query: q, Deadline: s.sc.Tenants[ts.group].Deadline,
		Plan: a.tmpl.plan, Exec: name,
	})
	if err != nil {
		// An unpredictable query is already tallied as a rejection
		// by the server; the simulation carries on.
		return nil
	}
	if dec.Admitted {
		ms.pending[dec.ID] = pendingArrival{group: ts.group, at: a.at}
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
			s.groupLat[p.group] = append(s.groupLat[p.group], s.out.Finish-p.at)
			s.groupQW[p.group] = append(s.groupQW[p.group], s.out.Start-p.at)
			// The outcome is one calibration observation, attributed to
			// its tenant group like the report's per-tenant rows.
			ms.acc[p.group][s.out.Unit].Observe(s.out.PredMean, s.out.PredSigma, s.out.Elapsed)
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
