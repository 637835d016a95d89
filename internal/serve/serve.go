// Package serve is the online prediction service: a long-lived,
// multi-tenant serving layer over the prediction stack. It owns one
// System per tenant behind a single façade and realizes the paper's
// online use cases (Section 5) as a service:
//
//   - a shared, sharded plan-signature cache (uaqetp.EstimateCache), so
//     tenants over the same generated database and samples share
//     sampling passes instead of each paying for its own;
//   - a deadline-aware admission controller (ActiveSLA-style, Section
//     6.5.3): a query is admitted only when the predicted probability of
//     meeting its deadline clears the tenant's SLO confidence, and
//     admitted work drains under a pluggable QueuePolicy — by default
//     risk-adjusted slack, deadline minus the SLO quantile of the
//     predicted running time;
//   - a runtime feedback loop that records observed Execute times per
//     plan signature and reports calibration drift — observed vs.
//     predicted quantile coverage, attributed to the cost unit
//     dominating each query — surfacing when recalibration via
//     internal/calibrate is warranted;
//   - a live recalibration action closing that loop: each tenant's
//     System is a façade with its own hot-swappable predictor handle,
//     so Recalibrate re-runs internal/calibrate off the drift report
//     and swaps the fresh units in atomically, without dropping
//     in-flight queries or touching co-located tenants — and an
//     automatic cadence (Config.RecalEvery) doing the same whenever the
//     virtual clock crosses a boundary and a tenant's report advises;
//   - an HTTP/JSON front end (net/http) with /predict, /submit, /drain,
//     /recalibrate, /stats, and /healthz; request contexts propagate
//     into the prediction pipeline, so a disconnecting client cancels
//     its own prediction work.
//
// Time is virtual: the simulated hardware returns running times in
// seconds, and the server advances a virtual clock as it executes
// queued work, so deadline outcomes (like everything else here) are
// deterministic for a fixed seed. External drivers with their own
// notion of time — the discrete-event cluster simulator in
// internal/sim — control the clock explicitly (AdvanceClock) and step
// execution without advancing it (StepOneInto), sharing one estimate cache
// across a whole fleet of servers via Config.Cache.
//
// A server carries its machine's System: on a heterogeneous fleet each
// server's tenants are registered (AddTenantSystem) over that machine's
// WithMachine sibling, so admission predicts, execution measures, and
// recalibration re-runs against the machine's own — possibly drifted —
// hardware, while sampling passes and run results still flow through
// the shared cache. Per-tenant predictor handles keep recalibration
// divergence local to (tenant, machine).
package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	uaqetp "repro"
	"repro/internal/trace"
)

// SLO is one tenant's service-level objective.
type SLO struct {
	// Confidence is the minimum predicted probability of meeting the
	// deadline required to admit a query; 0 selects 0.95.
	Confidence float64 `json:"confidence"`
	// DefaultDeadline (virtual seconds) applies to requests that carry
	// none; 0 selects 1.0.
	DefaultDeadline float64 `json:"default_deadline"`
	// Quantile is the risk quantile used to order admitted work by
	// slack; 0 selects 0.9.
	Quantile float64 `json:"quantile"`
}

// normalized fills zero fields with defaults and rejects out-of-range
// values: a zero field means "use the default", but an explicit
// Confidence or Quantile outside (0, 1) is an error rather than being
// silently replaced with something looser.
func (s SLO) normalized() (SLO, error) {
	if s.Confidence == 0 {
		s.Confidence = 0.95
	}
	if s.DefaultDeadline == 0 {
		s.DefaultDeadline = 1.0
	}
	if s.Quantile == 0 {
		s.Quantile = 0.9
	}
	if !(s.Confidence > 0 && s.Confidence < 1) {
		return SLO{}, fmt.Errorf("serve: SLO confidence %g out of (0, 1)", s.Confidence)
	}
	if !(s.Quantile > 0 && s.Quantile < 1) {
		return SLO{}, fmt.Errorf("serve: SLO quantile %g out of (0, 1)", s.Quantile)
	}
	if !(s.DefaultDeadline > 0) {
		return SLO{}, fmt.Errorf("serve: SLO default deadline %g must be positive", s.DefaultDeadline)
	}
	return s, nil
}

// Config sizes the server.
type Config struct {
	// CacheCapacity bounds the shared estimate cache (sampling passes
	// across all tenants); 0 selects 1024. Ignored when Cache is set.
	CacheCapacity int
	// Cache, when non-nil, is an externally owned estimate cache the
	// server shares instead of creating its own — the hook the cluster
	// simulator (internal/sim) uses to let a fleet of servers share one
	// cache, like co-located tenants do within one server.
	Cache *uaqetp.EstimateCache
	// MaxQueue bounds admitted-but-unexecuted requests; a full queue
	// rejects further admissions (backpressure). 0 selects 1024.
	MaxQueue int
	// Policy orders admitted work in the drain queue; the zero value
	// selects RiskSlack.
	Policy QueuePolicy
	// RecalEvery is the automatic-recalibration cadence in virtual
	// seconds: every time the virtual clock crosses a multiple of it,
	// the server checks each tenant's drift report and recalibrates the
	// tenants whose reports advise it (closing the feedback loop without
	// a manual /recalibrate). 0 disables the automatic policy.
	RecalEvery float64
	// Trace, when non-nil, receives structured decision events:
	// admission verdicts (trace.Decisions), execution outcomes and
	// recalibrations (trace.Full). Every emission is gated on
	// Trace.Enabled, so a disabled recorder costs one branch per
	// decision and zero allocations. A recorder shared by concurrent
	// callers must be safe for concurrent use (trace.Buffer is); the
	// cluster simulator instead hands each machine its own recorder and
	// merges in event order.
	Trace trace.Recorder
}

func (c Config) normalized() Config {
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = 1024
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 1024
	}
	if c.Policy.Key == nil {
		c.Policy = RiskSlack
	}
	return c
}

// Tenant is one served database: a System façade plus its SLO and
// counters. The façade carries its own predictor handle, so
// recalibrating this tenant never disturbs co-located tenants sharing
// the same underlying layers.
type Tenant struct {
	name     string
	slo      SLO
	sys      *uaqetp.System
	feedback *feedback

	// recalMu serializes recalibrations of this tenant.
	recalMu sync.Mutex
	// lastRecalDrift snapshots the drift report the most recent
	// successful recalibration was decided on — the window feedback.reset
	// discards; nil until the first recalibration.
	lastRecalDrift atomic.Pointer[DriftReport]

	predictions     atomic.Uint64
	admitted        atomic.Uint64
	rejected        atomic.Uint64
	executed        atomic.Uint64
	execFailed      atomic.Uint64
	deadlinesMet    atomic.Uint64
	deadlinesMissed atomic.Uint64
	recalibrations  atomic.Uint64
	autoRecals      atomic.Uint64
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// SLO returns the tenant's normalized SLO.
func (t *Tenant) SLO() SLO { return t.slo }

// System returns the tenant's underlying prediction System (e.g. for
// generating demo workloads against its catalog).
func (t *Tenant) System() *uaqetp.System { return t.sys }

// Server is the multi-tenant serving façade. All methods are safe for
// concurrent use.
type Server struct {
	cfg   Config
	cache *uaqetp.EstimateCache

	mu      sync.RWMutex
	tenants map[string]*Tenant
	// systems shares one System among tenants with identical configs
	// (Systems are immutable and concurrency-safe), so co-located
	// tenants don't each regenerate the database and calibration.
	systems map[uaqetp.Config]*uaqetp.System

	// qmu guards the admitted-work queue, the virtual clock, and the
	// queue's aggregate predicted backlog; drainMu serializes whole
	// pop-execute-advance drain steps (see DrainOne).
	qmu     sync.Mutex
	drainMu sync.Mutex
	queue   requestHeap
	seq     uint64
	clock   float64
	// qWaitMean/qWaitVar aggregate the predicted mean and variance of
	// admitted-but-unexecuted work: the predicted queue wait T_wait the
	// admission rule folds into P(T_wait + T_q <= d). Maintained
	// incrementally on push/pop (independence assumption).
	qWaitMean float64
	qWaitVar  float64
	// inflight is the absolute virtual time the in-flight request (the
	// last one popped for execution) finishes; its remainder past the
	// clock is residual service the admission rule counts toward T_wait.
	// In the classic drain loop the clock advances to the finish as the
	// request starts, so the residual is always 0 there; it matters when
	// an external driver (internal/sim) holds the clock at event time
	// while a request is mid-execution.
	inflight float64
	// nextRecal is the next virtual-clock instant the automatic
	// recalibration policy wakes up at (when cfg.RecalEvery > 0).
	nextRecal float64
	// autoRecalMu guards the automatic-recalibration observables below:
	// how many cadence-triggered recalibrations have fired and the
	// virtual clock of the latest — the signal drift experiments read to
	// measure time-to-detection.
	autoRecalMu     sync.Mutex
	autoRecalCount  uint64
	lastAutoRecalAt float64
}

// New returns an empty server with a fresh shared estimate cache (or
// the externally owned one when cfg.Cache is set).
func New(cfg Config) *Server {
	cfg = cfg.normalized()
	c := cfg.Cache
	if c == nil {
		c = uaqetp.NewEstimateCache(cfg.CacheCapacity)
	}
	return &Server{
		cfg:       cfg,
		cache:     c,
		tenants:   make(map[string]*Tenant),
		systems:   make(map[uaqetp.Config]*uaqetp.System),
		nextRecal: cfg.RecalEvery,
	}
}

// AddTenant opens a System for the tenant on the server's shared cache.
// The Cache field of sysCfg is overridden; everything else is honored.
// Tenants with identical configs share one underlying System
// — each behind its own façade (uaqetp.System.With), so per-tenant
// predictor swaps stay per-tenant — and the expensive Open runs outside
// the server lock, so adding a tenant never stalls requests already
// being served.
func (s *Server) AddTenant(name string, sysCfg uaqetp.Config, slo SLO) (*Tenant, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: empty tenant name")
	}
	nslo, err := slo.normalized()
	if err != nil {
		return nil, err
	}
	sysCfg.Cache = s.cache
	// Apply Open's own defaulting before the dedup lookup, so
	// equivalent but differently-spelled configs share one System.
	if sysCfg.Machine == "" {
		sysCfg.Machine = "PC1"
	}
	if sysCfg.SamplingRatio <= 0 {
		sysCfg.SamplingRatio = 0.05
	}

	s.mu.RLock()
	_, exists := s.tenants[name]
	sys := s.systems[sysCfg]
	s.mu.RUnlock()
	if exists {
		return nil, fmt.Errorf("serve: tenant %q already exists", name)
	}
	if sys == nil {
		// Open without the lock; a concurrent AddTenant with the same
		// config may race to a second Open, in which case one deterministic
		// duplicate wins the map and the other is dropped — harmless.
		if sys, err = uaqetp.Open(sysCfg); err != nil {
			return nil, fmt.Errorf("serve: open tenant %q: %w", name, err)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tenants[name]; ok {
		return nil, fmt.Errorf("serve: tenant %q already exists", name)
	}
	if prev, ok := s.systems[sysCfg]; ok {
		sys = prev
	} else {
		s.systems[sysCfg] = sys
	}
	// Each tenant gets its own façade with an independent predictor
	// handle over the shared layers.
	t := &Tenant{name: name, slo: nslo, sys: sys.With(), feedback: newFeedback()}
	s.tenants[name] = t
	return t, nil
}

// AddTenantSystem registers a tenant over an already opened System.
// The caller keeps responsibility for cache sharing (open the System
// with Config.Cache set to this server's cache — see Cache) and for not
// handing the same façade to two servers; the server wraps the System
// in a fresh façade (System.With) so per-tenant predictor swaps stay
// local. The cluster simulator uses this to give every simulated
// machine a façade over one expensive Open per tenant config instead of
// re-generating the database per machine.
func (s *Server) AddTenantSystem(name string, sys *uaqetp.System, slo SLO) (*Tenant, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: empty tenant name")
	}
	if sys == nil {
		return nil, fmt.Errorf("serve: nil system for tenant %q", name)
	}
	nslo, err := slo.normalized()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tenants[name]; ok {
		return nil, fmt.Errorf("serve: tenant %q already exists", name)
	}
	t := &Tenant{name: name, slo: nslo, sys: sys.With(), feedback: newFeedback()}
	s.tenants[name] = t
	return t, nil
}

// ErrUnknownTenant reports a request against a tenant that was never
// added; the HTTP layer maps it to 404.
var ErrUnknownTenant = errors.New("unknown tenant")

// Tenant returns the named tenant.
func (s *Server) Tenant(name string) (*Tenant, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tenants[name]
	if !ok {
		return nil, fmt.Errorf("serve: %w %q", ErrUnknownTenant, name)
	}
	return t, nil
}

// TenantNames returns the tenant names in sorted order.
func (s *Server) TenantNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Predict returns the running-time distribution of q for the tenant,
// through the shared cache. The context propagates into the prediction
// pipeline: canceling it aborts the tenant's sampling/prediction work.
func (s *Server) Predict(ctx context.Context, tenant string, q *uaqetp.Query) (*uaqetp.Prediction, error) {
	t, err := s.Tenant(tenant)
	if err != nil {
		return nil, err
	}
	if q == nil {
		return nil, fmt.Errorf("serve: nil query")
	}
	t.predictions.Add(1)
	return t.sys.PredictContext(ctx, q)
}

// TenantStats summarizes one tenant's traffic and calibration drift.
type TenantStats struct {
	Name            string `json:"name"`
	Predictions     uint64 `json:"predictions"`
	Admitted        uint64 `json:"admitted"`
	Rejected        uint64 `json:"rejected"`
	Executed        uint64 `json:"executed"`
	ExecFailed      uint64 `json:"exec_failed"`
	DeadlinesMet    uint64 `json:"deadlines_met"`
	DeadlinesMissed uint64 `json:"deadlines_missed"`
	Recalibrations  uint64 `json:"recalibrations"`
	// AutoRecalibrations counts the subset of Recalibrations triggered
	// by the automatic cadence policy (Config.RecalEvery) rather than an
	// explicit Recalibrate call.
	AutoRecalibrations uint64      `json:"auto_recalibrations"`
	Drift              DriftReport `json:"drift"`
	// LastRecalibrationDrift is the drift window the most recent
	// successful recalibration was decided on, preserved across the
	// feedback reset that recalibration performs; nil until the tenant
	// has recalibrated.
	LastRecalibrationDrift *DriftReport `json:"last_recalibration_drift,omitempty"`
}

// Stats is a point-in-time snapshot of the whole server.
type Stats struct {
	Cache    uaqetp.CacheStats `json:"cache"`
	QueueLen int               `json:"queue_len"`
	Clock    float64           `json:"clock"`
	// QueueWaitMean/QueueWaitVar are the predicted T_wait aggregates
	// the admission rule folds into P(T_wait + T_q <= d): the queued
	// backlog plus the residual service of the in-flight request — the
	// same numbers Submit and QueueStateAt see at this instant.
	QueueWaitMean float64       `json:"queue_wait_mean"`
	QueueWaitVar  float64       `json:"queue_wait_var"`
	Tenants       []TenantStats `json:"tenants"`
}

// Stats snapshots the shared cache, the queue, and every tenant.
func (s *Server) Stats() Stats {
	s.qmu.Lock()
	qlen, clock := s.queue.Len(), s.clock
	waitMean, waitVar := s.qWaitMean+s.residualLocked(), s.qWaitVar
	s.qmu.Unlock()

	st := Stats{
		Cache: s.cache.Stats(), QueueLen: qlen, Clock: clock,
		QueueWaitMean: waitMean, QueueWaitVar: waitVar,
	}
	s.mu.RLock()
	for _, t := range s.tenants {
		st.Tenants = append(st.Tenants, TenantStats{
			Name:                   t.name,
			Predictions:            t.predictions.Load(),
			Admitted:               t.admitted.Load(),
			Rejected:               t.rejected.Load(),
			Executed:               t.executed.Load(),
			ExecFailed:             t.execFailed.Load(),
			DeadlinesMet:           t.deadlinesMet.Load(),
			DeadlinesMissed:        t.deadlinesMissed.Load(),
			Recalibrations:         t.recalibrations.Load(),
			AutoRecalibrations:     t.autoRecals.Load(),
			Drift:                  t.feedback.report(),
			LastRecalibrationDrift: t.lastRecalDrift.Load(),
		})
	}
	s.mu.RUnlock()
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Name < st.Tenants[j].Name })
	return st
}

// ---------------------------------------------------------------------
// Virtual clock.

// Clock returns the current virtual time in seconds.
func (s *Server) Clock() float64 {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return s.clock
}

// QueueStateAt returns the admitted-work queue's length and its
// aggregate predicted backlog (mean and variance of total remaining
// work, residual in-flight service included) — the light-weight
// snapshot placement policies poll per arrival, without the drift
// reports Stats assembles. The in-flight residual is measured against
// virtual time now (or the server's clock, whichever is later). It is a
// pure read: the clock does not move and no recalibration checks run,
// so an event-driven caller can poll many servers at one instant — the
// simulator's routers do, per arrival — without paying a clock
// broadcast to all of them.
func (s *Server) QueueStateAt(now float64) (length int, waitMean, waitVar float64) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	ref := s.clock
	if now > ref {
		ref = now
	}
	resid := 0.0
	if s.inflight > ref {
		resid = s.inflight - ref
	}
	return s.queue.Len(), s.qWaitMean + resid, s.qWaitVar
}

// residualLocked is the remaining service time of the in-flight
// request (0 when idle or when the clock has caught up). Caller holds
// qmu.
func (s *Server) residualLocked() float64 {
	if s.inflight > s.clock {
		return s.inflight - s.clock
	}
	return 0
}

// AdvanceClock moves the virtual clock forward to t (never backward)
// and runs any automatic-recalibration checks that came due. Drivers
// with their own notion of time — the discrete-event simulator in
// internal/sim — call it to align the server's clock with event time
// before submitting or stepping; the drain path calls it internally as
// executed work consumes virtual time.
func (s *Server) AdvanceClock(t float64) {
	s.qmu.Lock()
	if t > s.clock {
		s.clock = t
	}
	s.qmu.Unlock()
	s.maybeAutoRecalibrate()
}

// ---------------------------------------------------------------------
// Automatic recalibration.

// maybeAutoRecalibrate runs the cadence policy: when the virtual clock
// has crossed the next cadence boundary, check every tenant's drift
// report and recalibrate those whose reports advise it. Recalibration
// seeds derive from the tenant's config and recalibration ordinal, so
// for a fixed submission sequence the triggers and the resulting units
// are deterministic.
func (s *Server) maybeAutoRecalibrate() {
	if s.cfg.RecalEvery <= 0 {
		return
	}
	s.qmu.Lock()
	due := s.clock >= s.nextRecal
	now := s.clock
	if due {
		// Skip ahead past the current clock so an idle stretch does not
		// replay every missed boundary.
		for s.nextRecal <= s.clock {
			s.nextRecal += s.cfg.RecalEvery
		}
	}
	s.qmu.Unlock()
	if !due {
		return
	}
	for _, name := range s.TenantNames() {
		t, err := s.Tenant(name)
		if err != nil {
			continue
		}
		// Recalibrate re-reads the report under the tenant's own lock and
		// only swaps when it (still) advises; this unlocked peek just
		// avoids paying for the full action on quiet tenants.
		if !t.feedback.report().RecalibrationAdvised {
			continue
		}
		resp, err := s.Recalibrate(context.Background(), RecalibrateRequest{Tenant: name})
		if err != nil {
			log.Printf("serve: auto-recalibrate %q: %v", name, err)
			continue
		}
		if resp.Recalibrated {
			t.autoRecals.Add(1)
			s.autoRecalMu.Lock()
			s.autoRecalCount++
			s.lastAutoRecalAt = now
			s.autoRecalMu.Unlock()
		}
	}
}

// LastAutoRecalibration reports how many automatic (cadence-triggered)
// recalibrations have fired on this server and the virtual clock of the
// latest. Drift experiments poll it to measure time-to-detection: the
// returned instant is the exact cadence boundary the recalibration fired
// at, so polling lag never skews the measurement. at is 0 until the
// first automatic recalibration (n == 0).
func (s *Server) LastAutoRecalibration() (at float64, n uint64) {
	s.autoRecalMu.Lock()
	defer s.autoRecalMu.Unlock()
	return s.lastAutoRecalAt, s.autoRecalCount
}

// StartDispatcher launches a goroutine draining the queue every
// interval and returns a function that stops it (draining a final
// time). It is the long-lived-service counterpart of calling Drain
// explicitly. Each tick also runs the automatic-recalibration check, so
// a server configured with RecalEvery closes the feedback loop without
// any manual /recalibrate call.
func (s *Server) StartDispatcher(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		drain := func() {
			if _, err := s.Drain(); err != nil {
				log.Printf("serve: dispatcher: %v", err)
			}
			s.maybeAutoRecalibrate()
		}
		for {
			select {
			case <-ticker.C:
				drain()
			case <-done:
				drain()
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
