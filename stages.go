package uaqetp

// The pipeline: the prediction path is four explicit, composable
// stages — Planner, Estimator, Predictor, Executor — assembled by Open
// from the built-in implementations, replaceable on a façade derived
// with System.With, and (for the predictor) hot-swappable at runtime so
// a serving layer can recalibrate without dropping in-flight queries.

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/calibrate"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/stats"
)

// Plan is a compiled physical plan: an opaque handle on a finalized
// operator tree, whose root's Sig is the plan's canonical signature. Two
// Plans with equal String() are structurally identical (same operators,
// predicates, and join order); the signature is the currency of the
// plan-hint option and the estimate caches. Plans are produced by a
// Planner — the zero value is not a valid plan.
type Plan struct {
	root *engine.Node
	// est and run memoize the plan's estimate- and run-section keys.
	est, run atomic.Pointer[planKey]
	// exec memoizes the plan half of every execution's stream key,
	// created on the first execution.
	exec atomic.Pointer[rng.PlanKey]
}

// execKey is rng.ExecKey(seed, qname, p.root.Sig) for name =
// rng.NameOf(qname), through the plan's memo of the signature half.
func (p *Plan) execKey(seed int64, name rng.Name) int64 {
	k := p.exec.Load()
	if k == nil {
		p.exec.CompareAndSwap(nil, rng.NewPlanKey(p.root.Sig))
		k = p.exec.Load()
	}
	return k.Key(seed, name)
}

// key returns the plan's key record under namespace ns for a cache
// with tier tally tier, memoized in slot. A System has one estimate and
// one run namespace and one cache, so a slot recomputes only when
// Systems with different namespaces or tier seeds share the plan.
func (p *Plan) key(slot *atomic.Pointer[planKey], ns string, tier *tierTally) *planKey {
	if k := slot.Load(); k != nil && k.ns == ns && tier.hashed(k) {
		return k
	}
	k := newKey(ns, ns+"\x00"+p.root.Sig, tier)
	slot.Store(&k)
	return &k
}

// String returns the plan's canonical signature (a rendered tree).
func (p *Plan) String() string {
	if p == nil || p.root == nil {
		return ""
	}
	return p.root.Sig
}

// valid rejects plans not produced by a Planner.
func (p *Plan) valid() error {
	if p == nil || p.root == nil {
		return fmt.Errorf("uaqetp: empty plan (plans must come from a Planner)")
	}
	return nil
}

// Estimates is the result of one sampling pass over a plan: every
// operator's selectivity distribution. It is opaque — produced by an
// Estimator, consumed by a Predictor — and immutable, so one value may
// serve any number of concurrent readers.
type Estimates struct {
	est *sample.Estimates
}

// Planner compiles queries into physical plans: the default enumerates
// left-deep join orders greedily by connectivity.
//
// Plan values can only be produced by the built-in planner (they wrap
// an internal operator tree), so a custom Planner is a decorator: derive
// it with sys.With(WithPlanner(...)) wrapping sys.Planner(), and have it
// filter, reorder, cap, or re-rank the inner stage's plans. The same
// holds for Estimator and its opaque Estimates. Predictor and Executor
// stages, whose outputs (Prediction, float64) are public, can be
// implemented from scratch — e.g. test stubs installed via
// sys.With(WithPredictor(...)).
type Planner interface {
	// BuildPlan compiles the query's default plan.
	BuildPlan(ctx context.Context, q *Query) (*Plan, error)
	// Alternatives enumerates up to maxAlts candidate plans, the default
	// plan first. Implementations may return fewer, including zero.
	Alternatives(ctx context.Context, q *Query, maxAlts int) ([]*Plan, error)
}

// Estimator turns a plan into per-operator selectivity distributions.
// The default runs the paper's sampling pass (Section 3.2), memoized at
// two granularities: whole plans by canonical signature, and individual
// subplans by subtree signature, so alternative join orders inside one
// Alternatives call share their common subtrees' passes.
type Estimator interface {
	Estimate(ctx context.Context, p *Plan) (*Estimates, error)
}

// Predictor turns a plan plus its estimates into the distribution of
// likely running times. The default is the paper's variance-propagating
// predictor (Section 5) over the calibrated cost units.
type Predictor interface {
	Predict(ctx context.Context, p *Plan, est *Estimates) (*Prediction, error)
}

// Executor runs a plan and returns the measured time in seconds. The
// default simulates the configured machine, seeded deterministically
// per (Config.Seed, query, plan).
type Executor interface {
	Execute(ctx context.Context, q *Query, p *Plan) (float64, error)
}

// ---------------------------------------------------------------------
// Default stage implementations.

// planMemoSize bounds the structural plan memo: serving workloads draw
// queries from small template pools, so a few hundred distinct shapes
// cover any realistic mix while keeping the memo's footprint trivial.
const planMemoSize = 512

// defaultPlanner wraps internal/plan behind a structural memo: plan.Build
// is a pure function of the query's structure and the (immutable)
// catalog — the query name feeds only error messages — so two queries
// with equal fingerprints share one compiled *Plan. The memo is shared
// across every façade derived from one Open (plans do not depend on
// machine profile or sampling ratio), so a plan one façade built serves
// every other (the simulator plans each template once on its base
// System). Like the prediction memo it is a plain map reset at its cap. Cached plans are shared and
// read-only; nothing downstream mutates an operator tree.
type defaultPlanner struct {
	cat *catalog.Catalog

	mu   sync.Mutex
	memo map[string]*Plan
}

// appendFingerprint appends every Query field plan.Build's output
// depends on — tables, predicates, join conditions, aggregate spec — but
// not Name, which Build uses only in error text. Strings are
// length-prefixed, so equal fingerprints mean equal fields.
func appendFingerprint(b []byte, q *Query) []byte {
	b = strconv.AppendInt(b, int64(len(q.Tables)), 10)
	for _, t := range q.Tables {
		b = appendField(b, t)
	}
	b = strconv.AppendInt(append(b, '|'), int64(len(q.Preds)), 10)
	for i := range q.Preds {
		p := &q.Preds[i]
		b = strconv.AppendInt(append(appendField(b, p.Col), ':'), int64(p.Op), 10)
		b = strconv.AppendInt(append(b, ':'), p.Lo, 10)
		b = strconv.AppendInt(append(b, ':'), p.Hi, 10)
	}
	b = strconv.AppendInt(append(b, '|'), int64(len(q.Joins)), 10)
	for _, j := range q.Joins {
		b = appendField(appendField(appendField(appendField(b, j.LeftTable), j.LeftCol), j.RightTable), j.RightCol)
	}
	if q.Agg != nil {
		b = appendField(append(b, "|agg"...), q.Agg.GroupCol)
		if q.Agg.SortInput {
			b = append(b, 's')
		}
	}
	return b
}

// appendField appends ";len:s".
func appendField(b []byte, s string) []byte {
	b = strconv.AppendInt(append(b, ';'), int64(len(s)), 10)
	return append(append(b, ':'), s...)
}

func (d *defaultPlanner) BuildPlan(ctx context.Context, q *Query) (*Plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A stack-built fingerprint and a non-copying lookup: a hit allocates nothing.
	var buf [256]byte
	key := appendFingerprint(buf[:0], q)
	d.mu.Lock()
	p := d.memo[string(key)]
	d.mu.Unlock()
	if p != nil {
		return p, nil
	}
	n, err := plan.Build(q, d.cat)
	if err != nil {
		return nil, err
	}
	p = &Plan{root: n}
	d.mu.Lock()
	if d.memo == nil || len(d.memo) >= planMemoSize {
		d.memo = make(map[string]*Plan, 64)
	}
	d.memo[string(key)] = p
	d.mu.Unlock()
	return p, nil
}

func (d *defaultPlanner) Alternatives(ctx context.Context, q *Query, maxAlts int) ([]*Plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nodes, err := plan.Alternatives(q, d.cat, maxAlts)
	if err != nil {
		return nil, err
	}
	plans := make([]*Plan, 0, len(nodes))
	for _, n := range nodes {
		plans = append(plans, &Plan{root: n})
	}
	return plans, nil
}

// defaultEstimator runs the sampling pass through the two-level memo:
// whole plans in the estimate cache's plan section, subplans in its
// subtree section. Namespaced keys keep incompatible Systems apart when
// the cache is shared.
type defaultEstimator struct {
	samples *sample.DB
	cat     *catalog.Catalog
	cache   *EstimateCache
	ns      string
}

func (d *defaultEstimator) Estimate(ctx context.Context, p *Plan) (*Estimates, error) {
	if err := p.valid(); err != nil {
		return nil, err
	}
	k := p.key(&p.est, d.ns, d.cache.tier)
	return d.cache.plans.get(ctx, k, func() (*Estimates, error) {
		est, err := sample.EstimateMemo(ctx, p.root, d.samples, d.cat, d.passMemo(ctx))
		if err != nil {
			return nil, err
		}
		return &Estimates{est: est}, nil
	})
}

// passMemo routes subtree passes through the shared cache under this
// estimator's namespace, carrying the calling request's context so a
// waiter coalesced onto a canceled computation can retry on its own.
func (d *defaultEstimator) passMemo(ctx context.Context) sample.PassMemo {
	return func(key string, compute func() (*sample.Pass, error)) (*sample.Pass, error) {
		k := newKey(d.ns, d.ns+"\x00"+key, d.cache.tier)
		return d.cache.passes.get(ctx, &k, compute)
	}
}

// predMemoSize caps the prediction memo before a generation reset. The
// memo is a plain map rather than an LRU because keys are pointer pairs
// with no eviction-order signal worth tracking; a full reset at the cap
// is cheaper than bookkeeping and the working set (template pool x
// resident estimates) is far below it.
const predMemoSize = 4096

// predKey identifies a prediction by the identity of its inputs: plans
// come from the planner's structural memo and estimates from the shared
// LRU, so while both stay resident the same pointers recur for the same
// logical inputs and equality is exact with zero hashing of strings.
// A fresh defaultPredictor is built per recalibration/swap, so stale
// memos die with their stage.
type predKey struct {
	root *engine.Node
	est  *sample.Estimates
}

// defaultPredictor wraps the core variance-propagating predictor behind
// a pointer-keyed memo: predictions are pure functions of (plan,
// estimates, calibrated units), and the units are fixed for the lifetime
// of one stage instance. Memoized *Prediction values are shared across
// callers and must be treated as read-only (the built-in pipeline never
// mutates one).
type defaultPredictor struct {
	pred *core.Predictor

	mu   sync.Mutex
	memo map[predKey]*Prediction
}

func (d *defaultPredictor) Predict(ctx context.Context, p *Plan, est *Estimates) (*Prediction, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.valid(); err != nil {
		return nil, err
	}
	if est == nil || est.est == nil {
		return nil, fmt.Errorf("uaqetp: nil estimates (estimates must come from an Estimator)")
	}
	k := predKey{root: p.root, est: est.est}
	d.mu.Lock()
	v := d.memo[k]
	d.mu.Unlock()
	if v != nil {
		return v, nil
	}
	out, err := d.pred.Predict(p.root, est.est)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	if d.memo == nil || len(d.memo) >= predMemoSize {
		d.memo = make(map[predKey]*Prediction, 64)
	}
	d.memo[k] = out
	d.mu.Unlock()
	return out, nil
}

// ---------------------------------------------------------------------
// The hot-swappable predictor handle.

// predictorState is the atomically swappable unit behind a System's
// predictor stage: the active stage plus, when the stage is the
// built-in one, the calibrated cost units it was constructed from
// (nil for custom stages).
type predictorState struct {
	stage Predictor
	units *[hardware.NumUnits]stats.Normal
}

// predictorHandle holds the current predictorState. Each façade derived
// by With (and each tenant in internal/serve) gets its own handle, so a
// swap is local to that façade while the expensive layers stay shared.
type predictorHandle struct {
	v atomic.Pointer[predictorState]
}

func newPredictorHandle(st *predictorState) *predictorHandle {
	h := &predictorHandle{}
	h.v.Store(st)
	return h
}

func (h *predictorHandle) load() *predictorState { return h.v.Load() }

// defaultPredictorState builds the built-in predictor stage for a
// variant over the given units.
func defaultPredictorState(cat *catalog.Catalog, units [hardware.NumUnits]stats.Normal, v Variant) *predictorState {
	return &predictorState{
		stage: &defaultPredictor{pred: core.New(cat, units, v)},
		units: &units,
	}
}

// ---------------------------------------------------------------------
// Stage access, derivation, and swapping.

// SystemOption replaces one pipeline stage when deriving a System via
// With.
type SystemOption func(*System)

// WithPlanner installs a custom Planner stage.
func WithPlanner(p Planner) SystemOption { return func(s *System) { s.planner = p } }

// WithEstimator installs a custom Estimator stage.
func WithEstimator(e Estimator) SystemOption { return func(s *System) { s.estimator = e } }

// WithExecutor installs a custom Executor stage.
func WithExecutor(x Executor) SystemOption { return func(s *System) { s.executor = x } }

// WithPredictor installs a custom Predictor stage behind a fresh
// swappable handle.
func WithPredictor(p Predictor) SystemOption {
	return func(s *System) { s.pred = newPredictorHandle(&predictorState{stage: p}) }
}

// With derives a façade over the same expensive layers — database,
// catalog, calibration, samples, estimate cache — with the given stages
// replaced. The derived System always gets its own predictor handle
// (initialized to the parent's current predictor), so Recalibrate on
// the derived façade never affects the parent or siblings. With no
// options it is the cheap way to give each tenant of a shared System an
// independently recalibrated predictor.
func (s *System) With(opts ...SystemOption) *System {
	derived := *s
	derived.pred = newPredictorHandle(s.pred.load())
	for _, o := range opts {
		if o != nil {
			o(&derived)
		}
	}
	return &derived
}

// Planner returns the active planner stage.
func (s *System) Planner() Planner { return s.planner }

// Estimator returns the active estimator stage.
func (s *System) Estimator() Estimator { return s.estimator }

// Predictor returns the currently installed predictor stage (the value
// a concurrent Recalibrate may replace at any moment; one call's
// pipeline uses a single consistent stage).
func (s *System) Predictor() Predictor { return s.pred.load().stage }

// Executor returns the active executor stage.
func (s *System) Executor() Executor { return s.executor }

// Recalibrate re-runs cost-unit calibration (internal/calibrate) against
// this System's machine profile (on a drift-injected System, the
// drifted one once its switch has fired) with the given seed and atomically swaps
// a predictor built on the fresh units into the façade's handle, without
// dropping in-flight queries. It returns the new unit distributions. The
// current stage must be the built-in predictor (possibly from an earlier
// Recalibrate); a custom stage installed with WithPredictor has no units
// to recalibrate.
func (s *System) Recalibrate(seed int64) ([hardware.NumUnits]stats.Normal, error) {
	cur := s.pred.load()
	if cur.units == nil {
		return [hardware.NumUnits]stats.Normal{}, fmt.Errorf(
			"uaqetp: predictor stage is custom; it has no cost units to recalibrate")
	}
	cal, err := calibrate.Run(s.truth(), calibrate.DefaultConfig(seed))
	if err != nil {
		return [hardware.NumUnits]stats.Normal{}, err
	}
	// Install via compare-and-swap, retrying against whatever a
	// concurrent Recalibrate installed meanwhile.
	next := defaultPredictorState(s.cat, cal.Units, s.cfg.Variant)
	for !s.pred.v.CompareAndSwap(cur, next) {
		cur = s.pred.load()
	}
	return cal.Units, nil
}
