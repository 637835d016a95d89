package serve

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sync"

	uaqetp "repro"
	"repro/internal/hardware"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Request is one incoming query with a deadline.
type Request struct {
	Tenant string        `json:"tenant"`
	Query  *uaqetp.Query `json:"query"`
	// Deadline is the time budget in virtual seconds, measured from
	// admission; 0 selects the tenant's default.
	Deadline float64 `json:"deadline"`
	// ShedBelow is the routing tier's predictive shed, run here to save
	// it a hop: with an explicit Deadline, a query whose zero-wait
	// P(T_q <= Deadline) is below ShedBelow gets Verdict "shed-predictive".
	// It must lie in [0, 1); 0 turns the shed off.
	ShedBelow float64 `json:"shed_below,omitempty"`
	// Plan, when set, is the plan Submit predicts and later executes
	// instead of building one for Query, so an in-process caller that
	// submits one template many times resolves it once. It must come
	// from the tenant System's planner (Tenant.System().Planner()
	// .BuildPlan of Query, or of a query differing only in Name): Submit
	// does not check it. Nil lets Submit build the plan. No HTTP body
	// can set it.
	Plan *uaqetp.Plan `json:"-"`
	// Exec, when set, names this execution of Query, so an in-process
	// caller can submit one shared Query many times and still have each
	// execution measure on a stream of its own: the built-in executor
	// keys it by the hashed name (uaqetp.ExecuteAs), and the name is
	// built only for a trace event or an error; the Outcome carries
	// Query.Name. With no Plan, Submit plans a copy of Query under the
	// name, so a planner error names the execution. The zero value names
	// the execution Query.Name. No HTTP body can set it.
	Exec uaqetp.ExecName `json:"-"`
}

// Decision is the admission controller's verdict on one request. For a
// fixed seed the verdict is a pure function of (tenant config, query,
// deadline) plus queue occupancy: the prediction is deterministic, so
// replaying the same submission sequence reproduces the same decisions.
type Decision struct {
	ID       uint64 `json:"id"`
	Admitted bool   `json:"admitted"`
	// Verdict is "shed-predictive" for a request shed under ShedBelow
	// (which gets no ID and leaves the queue as it was), else "".
	Verdict string `json:"verdict,omitempty"`
	// Reason explains a rejection on the wire. Submit leaves it empty
	// and records which rule refused the request, and explain formats
	// it, so only a reader pays for the formatting: the /submit body and
	// the admission trace event. A decoded body carries it.
	Reason string `json:"reason,omitempty"`
	// PMeet is the predicted probability of finishing within the
	// deadline including the predicted queue wait ahead of this request:
	// P(T_wait + T_q <= d), where T_wait ~ N(QueueWaitMean,
	// QueueWaitSigma^2) aggregates the predicted mean and variance of
	// admitted-but-unexecuted work (ROADMAP "Admission under queue
	// delay"). With an empty queue this degenerates to P(T_q <= d).
	PMeet float64 `json:"p_meet"`
	// Deadline is the effective relative deadline in virtual seconds.
	Deadline  float64 `json:"deadline"`
	PredMean  float64 `json:"pred_mean"`
	PredSigma float64 `json:"pred_sigma"`
	// QueueWaitMean/QueueWaitSigma describe the predicted backlog this
	// decision was made against.
	QueueWaitMean  float64 `json:"queue_wait_mean"`
	QueueWaitSigma float64 `json:"queue_wait_sigma"`
	// QueueLen is the queue occupancy after this decision.
	QueueLen int `json:"queue_len"`

	// refusal is the rule that refused the request, and limit the
	// confidence it fell short of: what explain formats Reason from.
	refusal refusal
	limit   float64
}

// refusal names the rule behind a refusal; the zero value refuses
// nothing.
type refusal uint8

const (
	shedZeroWait refusal = iota + 1
	belowSLO
	queueFull
)

// explain returns d.Reason, or when it is empty formats it from the
// rule Submit recorded. An admitted Decision explains nothing.
func (d Decision) explain() string {
	switch {
	case d.Reason != "":
		return d.Reason
	case d.refusal == shedZeroWait:
		return fmt.Sprintf("P(T_q <= %.4g) = %.4f below confidence %.4f with zero wait", d.Deadline, d.PMeet, d.limit)
	case d.refusal == belowSLO:
		return fmt.Sprintf("P(T_wait + T_q <= %.4g) = %.4f below SLO confidence %.4f (queue wait mean %.4g)",
			d.Deadline, d.PMeet, d.limit, d.QueueWaitMean)
	case d.refusal == queueFull:
		return fmt.Sprintf("queue full (%d admitted requests pending)", d.QueueLen)
	}
	return ""
}

// queued is one admitted request awaiting execution, with the plan
// admission predicted — the plan the drain path executes — and the
// request's execution name. Instances
// cycle through queuedPool: Submit takes one from the pool, the drain
// path returns it after the outcome is recorded. releaseQueued zeroes
// every field before Put, so the pool holds only dead shells.
type queued struct {
	id          uint64
	tenant      *Tenant
	query       *uaqetp.Query
	exec        uaqetp.ExecName
	pred        *uaqetp.Prediction
	plan        *uaqetp.Plan
	absDeadline float64 // virtual clock value the query must finish by
	key         float64 // drain-order key from the server's QueuePolicy
}

var queuedPool = sync.Pool{New: func() any { return new(queued) }}

// releaseQueued clears it (dropping the tenant/query/prediction
// references) and returns the shell to the pool.
func releaseQueued(it *queued) {
	*it = queued{}
	queuedPool.Put(it)
}

// requestHeap orders admitted work by the queue policy's key (smallest
// first), ties by admission order.
type requestHeap []*queued

func (h requestHeap) Len() int { return len(h) }
func (h requestHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].id < h[j].id
}
func (h requestHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *requestHeap) Push(x any)   { *h = append(*h, x.(*queued)) }
func (h *requestHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// PMeet is the admission and placement probability P(T_wait + T_q <= d):
// under independence the means and variances of the wait (a QueueStateAt
// snapshot) and of the query's own predicted time add, and the total is
// read as a normal. A negative waitVar — float cancellation as the
// queue drains — counts as zero.
func PMeet(predMean, predSigma, waitMean, waitVar, deadline float64) float64 {
	total := stats.Normal{
		Mu:    predMean + waitMean,
		Sigma: math.Sqrt(predSigma*predSigma + math.Max(waitVar, 0)),
	}
	return total.CDF(deadline)
}

// Submit runs the admission rule on one request: predict the running
// time, admit iff the predicted probability of meeting the deadline —
// queue wait included, P(T_wait + T_q <= d) — clears the tenant's SLO
// confidence (and the queue has room), and enqueue admitted work by
// risk-adjusted slack. Under load the backlog term rejects borderline
// queries that an empty-queue rule would have admitted only to miss
// their deadlines waiting. A ShedBelow shed moves only Predictions: no
// ID, counter, trace event or queue state. The context propagates into
// the prediction pipeline.
func (s *Server) Submit(ctx context.Context, req Request) (Decision, error) {
	t, err := s.Tenant(req.Tenant)
	if err != nil {
		return Decision{}, err
	}
	if req.Query == nil {
		return Decision{}, fmt.Errorf("serve: nil query")
	}
	if req.Deadline < 0 {
		return Decision{}, fmt.Errorf("serve: negative deadline %g", req.Deadline)
	}
	if !(req.ShedBelow >= 0 && req.ShedBelow < 1) { // NaN fails too
		return Decision{}, fmt.Errorf("serve: shed_below %g out of [0, 1)", req.ShedBelow)
	}
	deadline := req.Deadline
	if deadline == 0 {
		deadline = t.slo.DefaultDeadline
	}

	t.predictions.Add(1)
	pq := req.Query
	if req.Plan == nil {
		pq = req.Exec.Query(req.Query)
	}
	pred, plan, err := t.predict(ctx, pq, req.Plan)
	if err != nil {
		// An unpredictable query is a rejected submission: keep
		// admitted+rejected reconcilable against submission traffic.
		t.rejected.Add(1)
		if rec := s.cfg.Trace; rec != nil && rec.Enabled(trace.Decisions) {
			rec.Record(&trace.Event{
				Kind: trace.KindAdmission, At: s.Clock(), Tenant: t.name,
				Query: req.Exec.Of(req.Query), Verdict: "reject",
				Reason: "predict: " + err.Error(), Deadline: deadline,
				Threshold: t.slo.Confidence,
			})
		}
		return Decision{}, fmt.Errorf("serve: predict %q: %w", req.Exec.Of(req.Query), err)
	}

	d := Decision{
		Deadline:  deadline,
		PredMean:  pred.Mean(),
		PredSigma: pred.Sigma(),
	}
	if req.ShedBelow > 0 && req.Deadline > 0 && d.PredSigma > 0 && !math.IsNaN(d.PredMean) {
		if p := (stats.Normal{Mu: d.PredMean, Sigma: d.PredSigma}).CDF(req.Deadline); p < req.ShedBelow {
			d.Verdict, d.PMeet = "shed-predictive", p
			d.refusal, d.limit = shedZeroWait, req.ShedBelow
			return d, nil
		}
	}

	s.qmu.Lock()
	defer s.qmu.Unlock()
	s.seq++
	d.ID = s.seq
	// T_wait + T_q under independence: means and variances add. T_wait
	// is the predicted queued backlog plus the residual service of the
	// in-flight request (nonzero only under an external clock driver).
	waitVar := math.Max(s.qWaitVar, 0)
	waitMean := s.qWaitMean + s.residualLocked()
	d.QueueWaitMean = waitMean
	d.QueueWaitSigma = math.Sqrt(waitVar)
	d.PMeet = PMeet(pred.Mean(), pred.Sigma(), waitMean, waitVar, deadline)
	switch {
	case !(d.PMeet >= t.slo.Confidence): // a NaN PMeet is refused, not admitted
		d.refusal, d.limit = belowSLO, t.slo.Confidence
	case s.queue.Len() >= s.cfg.MaxQueue:
		d.refusal = queueFull
	default:
		d.Admitted = true
	}
	if !d.Admitted {
		t.rejected.Add(1)
		d.QueueLen = s.queue.Len()
		s.traceAdmission(t, &req, &d)
		return d, nil
	}
	t.admitted.Add(1)
	s.qWaitMean += pred.Mean()
	s.qWaitVar += pred.Sigma() * pred.Sigma()
	it := queuedPool.Get().(*queued)
	*it = queued{
		id:          d.ID,
		tenant:      t,
		query:       req.Query,
		exec:        req.Exec,
		pred:        pred,
		plan:        plan,
		absDeadline: s.clock + deadline,
		key:         s.cfg.Policy.Key(s.clock+deadline, pred, t.slo),
	}
	heap.Push(&s.queue, it)
	d.QueueLen = s.queue.Len()
	s.traceAdmission(t, &req, &d)
	return d, nil
}

// predict resolves q's plan on the tenant's System unless the caller
// did, then estimates and predicts it on one predictor load, as
// System.PredictAndRunContext does.
func (t *Tenant) predict(ctx context.Context, q *uaqetp.Query, plan *uaqetp.Plan) (*uaqetp.Prediction, *uaqetp.Plan, error) {
	if plan == nil {
		var err error
		if plan, err = t.sys.Planner().BuildPlan(ctx, q); err != nil {
			return nil, nil, err
		}
	}
	est, err := t.sys.Estimator().Estimate(ctx, plan)
	if err != nil {
		return nil, nil, err
	}
	pred, err := t.sys.Predictor().Predict(ctx, plan, est)
	if err != nil {
		return nil, nil, err
	}
	return pred, plan, nil
}

// traceAdmission emits the decision on req as a trace event (caller
// holds qmu, so At reads the clock directly). The Enabled gate keeps
// the disabled path allocation-free: the execution's name is built
// past it.
func (s *Server) traceAdmission(t *Tenant, req *Request, d *Decision) {
	rec := s.cfg.Trace
	if rec == nil || !rec.Enabled(trace.Decisions) {
		return
	}
	verdict := "reject"
	if d.Admitted {
		verdict = "admit"
	}
	rec.Record(&trace.Event{
		Kind: trace.KindAdmission, At: s.clock, Tenant: t.name, Query: req.Exec.Of(req.Query),
		ID: d.ID, Verdict: verdict, Reason: d.explain(), Deadline: d.Deadline,
		PredMean: d.PredMean, PredSigma: d.PredSigma,
		QueueWaitMean: d.QueueWaitMean, QueueWaitSigma: d.QueueWaitSigma,
		PMeet: d.PMeet, Threshold: t.slo.Confidence, QueueLen: d.QueueLen,
	})
}

// Outcome is the result of executing one admitted request.
type Outcome struct {
	ID     uint64 `json:"id"`
	Tenant string `json:"tenant"`
	// Query is the Name of the request's Query, traced or not. A request
	// submitted under an Exec name carries its template's Name here: the
	// execution's own name is built only for the Full-level outcome
	// event and an execution error, so a caller that records nothing
	// builds no name per outcome.
	Query   string  `json:"query"`
	Start   float64 `json:"start"`   // virtual clock at execution start
	Finish  float64 `json:"finish"`  // virtual clock at completion
	Elapsed float64 `json:"elapsed"` // measured running time in seconds
	// Deadline is the absolute virtual deadline; Met reports whether the
	// query finished by it (queue wait counts against the budget).
	Deadline  float64 `json:"deadline"`
	Met       bool    `json:"met"`
	PredMean  float64 `json:"pred_mean"`
	PredSigma float64 `json:"pred_sigma"`
	// Unit is the cost unit dominating the predicted mean — the unit
	// calibration drift would be attributed to. With the fields above it
	// makes an Outcome one calibration observation (predicted
	// distribution, observed time), which is how the simulator reads it.
	Unit hardware.Unit `json:"-"`
}

// StepOneInto executes the highest-priority admitted request (smallest
// policy key) at the current virtual clock and writes the outcome into
// caller-owned storage: ok reports whether a request was consumed
// (false with a nil error means the queue was empty), and out is
// meaningful only when ok. On an execution failure out is a skeleton
// (ID/Tenant/Query/Deadline; no times) returned alongside the error.
// Unlike Drain it does NOT advance the clock past the execution: the
// outcome's Finish is the instant the work would complete, and the
// caller decides when (and whether) the clock gets there. This is the
// primitive the discrete-event simulator steps servers with — it
// advances each machine's clock to event time via AdvanceClock and
// schedules a completion event at Finish, reusing one Outcome across
// steps so the steady-state drain path is allocation-free — while
// Drain keeps the historical back-to-back drain semantics.
//
// StepOneInto records the observation in the tenant's feedback loop
// only when Config.RecalEvery is set: the cadence policy is the one
// reader of that loop inside the server, and a driver stepping
// servers itself reads each Outcome it is handed. Without a cadence the
// drift reports in Stats stay empty for work stepped here.
func (s *Server) StepOneInto(out *Outcome) (ok bool, err error) {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.stepOneLocked(out, s.cfg.RecalEvery > 0)
}

// stepOneLocked is StepOneInto with drainMu held by the caller; record
// says whether the observation feeds the tenant's feedback loop.
func (s *Server) stepOneLocked(out *Outcome, record bool) (bool, error) {
	s.qmu.Lock()
	if s.queue.Len() == 0 {
		s.qmu.Unlock()
		return false, nil
	}
	it := heap.Pop(&s.queue).(*queued)
	// The popped request leaves the predicted backlog; zero the
	// aggregates when the queue empties so float drift cannot
	// accumulate across busy periods.
	s.qWaitMean -= it.pred.Mean()
	s.qWaitVar -= it.pred.Sigma() * it.pred.Sigma()
	if s.queue.Len() == 0 {
		s.qWaitMean, s.qWaitVar = 0, 0
	}
	s.qmu.Unlock()

	// A queued request outlives the Submit that admitted it, so it
	// executes under no caller's context.
	elapsed, err := uaqetp.ExecuteAs(context.Background(), it.tenant.sys.Executor(), it.query, it.exec, it.plan)
	if err != nil {
		// The request is consumed either way: count the failure so
		// admitted == executed + failed + queued stays balanced, and
		// surface the error to the caller along with an outcome skeleton
		// identifying the consumed request (ID/Tenant/Query; no times),
		// so drivers tracking admissions by ID can release theirs.
		it.tenant.execFailed.Add(1)
		*out = Outcome{ID: it.id, Tenant: it.tenant.name, Query: it.query.Name, Deadline: it.absDeadline}
		name := it.exec.Of(it.query)
		if rec := s.cfg.Trace; rec != nil && rec.Enabled(trace.Full) {
			rec.Record(&trace.Event{
				Kind: trace.KindOutcome, At: s.Clock(), Tenant: out.Tenant,
				Query: name, ID: out.ID, Deadline: out.Deadline,
				Reason: "execute: " + err.Error(),
			})
		}
		err = fmt.Errorf("serve: execute %q: %w", name, err)
		releaseQueued(it)
		return true, err
	}

	s.qmu.Lock()
	*out = Outcome{
		ID:        it.id,
		Tenant:    it.tenant.name,
		Query:     it.query.Name,
		Start:     s.clock,
		Finish:    s.clock + elapsed,
		Elapsed:   elapsed,
		Deadline:  it.absDeadline,
		PredMean:  it.pred.Mean(),
		PredSigma: it.pred.Sigma(),
		Unit:      it.pred.DominantUnit(),
	}
	out.Met = out.Finish <= it.absDeadline
	// The popped request is now the in-flight one; its service past the
	// current clock is residual wait for admission purposes.
	s.inflight = out.Finish
	s.qmu.Unlock()

	it.tenant.executed.Add(1)
	if out.Met {
		it.tenant.deadlinesMet.Add(1)
	} else {
		it.tenant.deadlinesMissed.Add(1)
	}
	if rec := s.cfg.Trace; rec != nil && rec.Enabled(trace.Full) {
		rec.Record(&trace.Event{
			Kind: trace.KindOutcome, At: out.Finish, Tenant: out.Tenant,
			Query: it.exec.Of(it.query), ID: out.ID, Deadline: out.Deadline,
			Start: out.Start, Finish: out.Finish, Elapsed: out.Elapsed,
			Met: out.Met, PredMean: out.PredMean, PredSigma: out.PredSigma,
		})
	}
	if record {
		it.tenant.feedback.record(out)
	}
	releaseQueued(it)
	return true, nil
}

// Drain executes every queued request in priority order and returns the
// outcomes: each step is StepOneInto plus advancing the virtual clock
// to the outcome's Finish, so queued work drains back-to-back on a
// single virtual server. It always records the observation in the
// tenant's feedback loop: it is the live path behind /drain and the
// dispatcher, whose drift reports /stats and /recalibrate read. Each
// step holds drainMu once, so a background dispatcher racing an
// explicit /drain cannot reorder work or perturb deadline outcomes;
// Submit stays responsive because it only needs the brief queue lock.
// On an execution failure Drain stops and returns the outcomes so far
// with the error.
func (s *Server) Drain() ([]Outcome, error) {
	step := func(out *Outcome) (bool, error) {
		s.drainMu.Lock()
		defer s.drainMu.Unlock()
		ok, err := s.stepOneLocked(out, true)
		if ok && err == nil {
			// Advance while still holding drainMu so a concurrent drain
			// cannot step the next request against a stale clock.
			s.AdvanceClock(out.Finish)
		}
		return ok, err
	}
	var outs []Outcome
	for {
		var out Outcome
		ok, err := step(&out)
		if !ok || err != nil {
			return outs, err
		}
		outs = append(outs, out)
	}
}
