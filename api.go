// Package uaqetp (Uncertainty-Aware Query Execution Time Prediction) is
// the public API of this reproduction of Wu, Wu, Hacıgümüş and
// Naughton's VLDB 2014 paper. Instead of a point estimate, the
// predictor returns the distribution of a query's likely running time,
// t_q ~ N(E[t_q], Var[t_q]).
//
// # The pipeline
//
// A System is an assembly of four explicit stages, each behind an
// interface with the paper's implementation as the default:
//
//   - Planner    — query → physical plan(s) (left-deep join orders)
//   - Estimator  — plan → per-operator selectivity distributions
//     (sampling pass, memoized per plan and per subplan)
//   - Predictor  — plan + estimates → running-time distribution
//     (variance propagation over calibrated cost units)
//   - Executor   — plan → measured seconds (simulated hardware)
//
// Open assembles the defaults; System.With derives a façade with any
// stage replaced. The Predictor stage additionally sits behind an
// atomically swappable handle (Recalibrate), so a serving layer can
// recalibrate cost units live without dropping in-flight queries.
//
// # Calls
//
// The entry points take a context.Context and per-call functional
// options:
//
//	sys, err := uaqetp.Open(uaqetp.DefaultConfig())
//	pred, err := sys.PredictContext(ctx, q)
//	best, all, err := sys.ChoosePlanContext(ctx, q,
//	    uaqetp.WithMaxAlts(4), uaqetp.WithQuantile(0.9))
//	actual, err := sys.ExecuteContext(ctx, q,
//	    uaqetp.WithPlanHint(best.Plan))
//
// Cancellation propagates through every stage and through the batch
// worker pool (PredictBatchContext), which returns
// promptly with ctx.Err once the context fires.
//
// # Concurrency
//
// A System is safe for concurrent use by multiple goroutines: all state
// assembled by Open is immutable afterwards — the one deliberate
// exception is the predictor handle, which changes only by atomic swap
// — and every per-call source of randomness is derived
// deterministically from Config.Seed plus a fingerprint of the query at
// hand rather than drawn from a shared stream. Consequently results are
// reproducible for a fixed seed no matter how many goroutines are in
// flight or in which order calls interleave: predictions are pure
// functions of (Config, Query), and ExecuteContext returns the same
// measured time for the same query on the same System.
//
// PredictBatchContext is the throughput-oriented entry point: it fans a
// batch of queries out over a bounded worker pool and returns
// predictions in input order, byte-identical to a serial loop
// regardless of WithWorkers. The default Estimator memoizes sampling
// passes at two granularities through a sharded LRU: whole plans by
// canonical signature (concurrent requests for the same signature are
// coalesced onto a single pass), and individual subplans by subtree
// signature, so the alternative join orders enumerated inside one
// AlternativesContext or ChoosePlanContext call share their common
// subtrees' passes. Setting Config.Cache to a shared EstimateCache
// extends both levels of sharing across Systems: tenants whose
// configurations generate the same database and samples reuse each
// other's passes, the substrate of the multi-tenant serving layer in
// internal/serve.
//
// EstimateCache is one concrete type: NewEstimateCache returns the
// in-process sharded LRU, and NewTieredCache the same cache with a tier
// tally switched on — a deterministic model of a local/remote split in
// which a seeded hash assigns each key a tier, remote lookups accrue a
// modeled latency, and TierStats reports the traffic by tier. The tally
// only counts; what is stored and served is the same either way. The
// sharded serving topology in internal/sim exercises the tallied one.
//
// # Heterogeneous machines
//
// The machine a System predicts for is a first-class value: a
// hardware.Profile, constructible from a JSON spec or derived from a
// preset (Scale, WithDrift). System.WithMachine derives a cheap sibling
// System for a different machine — sharing the database, catalog,
// samples, and estimate cache, owning its own calibration, predictor
// handle, and executor — so a heterogeneous fleet costs one Open plus
// one calibration per distinct machine. Estimates and run results are
// machine-independent by key construction and flow freely between
// siblings; calibrated units never do. The cluster simulator
// (internal/sim) builds mixed fleets this way and routes on each
// machine's own predicted distributions.
package uaqetp

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/calibrate"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Re-exported types: queries and predicates are declared against the
// plan and engine packages; predictions come from core.
type (
	// Query is a declarative selection-join(+aggregate) query.
	Query = plan.Query
	// JoinCond is an equijoin condition.
	JoinCond = plan.JoinCond
	// AggSpec requests an aggregate on top of the join tree.
	AggSpec = plan.AggSpec
	// Predicate is a single-column comparison.
	Predicate = engine.Predicate
	// Prediction is the distribution of likely running times.
	Prediction = core.Prediction
	// OpPrediction is the per-operator share of a prediction.
	OpPrediction = core.OpPrediction
	// Variant selects a predictor ablation (Section 6.3.3).
	Variant = core.Variant
	// DBKind names one of the four evaluation databases.
	DBKind = datagen.DBKind
	// RNGVersion selects the measurement-stream generation (see
	// internal/rng): RNGv1 is the historical math/rand stream, RNGv2 the
	// zero-allocation counter-based stream the simulator always runs.
	// The zero value is RNGv1.
	RNGVersion = rng.Version
)

// Measurement-stream versions.
const (
	RNGv1 = rng.V1
	RNGv2 = rng.V2
)

// Comparison operators for predicates.
const (
	Lt      = engine.Lt
	Le      = engine.Le
	Eq      = engine.Eq
	Ge      = engine.Ge
	Gt      = engine.Gt
	Between = engine.Between
)

// Predictor variants.
const (
	All    = core.All
	NoVarC = core.NoVarC
	NoVarX = core.NoVarX
	NoCov  = core.NoCov
)

// Evaluation databases.
const (
	Uniform1G  = datagen.Uniform1G
	Skewed1G   = datagen.Skewed1G
	Uniform10G = datagen.Uniform10G
	Skewed10G  = datagen.Skewed10G
)

// Typed failures of plan selection.
var (
	// ErrNoPlans reports that the planner produced no candidate plans
	// for a query (possible with a custom Planner stage; the built-in
	// planner always returns at least the default plan).
	ErrNoPlans = errors.New("no candidate plans")
	// ErrPlanHintNotFound reports that no enumerated alternative matched
	// the signature given via WithPlanHint.
	ErrPlanHintNotFound = errors.New("plan hint matched no alternative")
)

// errNilQuery is what every single-query entry point returns for a nil
// *Query.
var errNilQuery = errors.New("uaqetp: nil query")

// Config describes how to assemble a System.
type Config struct {
	// DB selects the synthetic database (size and skew).
	DB DBKind
	// Machine names a registered hardware profile (hardware.ProfileByName;
	// the presets are "PC1" and "PC2"). Parameterized profiles — JSON
	// specs, Scale/WithDrift derivations — enter through System.WithMachine
	// instead of this field.
	Machine string
	// SamplingRatio is the offline sample size as a fraction of each
	// table (the paper's SR).
	SamplingRatio float64
	// Variant configures the predictor.
	Variant Variant
	// Seed drives all randomness deterministically.
	Seed int64
	// RNG selects the measurement-stream version (internal/rng) of a
	// System opened directly; the simulator always opens its fleet at
	// RNGv2. The zero value is RNGv1 — the historical math/rand stream.
	// RNGv2 draws statistically equivalent times from a counter-based
	// stream at a fraction of the cost (no per-execution seeding ritual,
	// zero allocation). Like every other field it participates in Config
	// comparability, so internal/serve dedups tenants per version.
	RNG RNGVersion
	// Cache, when non-nil, is a shared sampling-pass cache backing this
	// System instead of a private per-System memo. Multiple Systems may
	// share one cache: keys are namespaced by everything that determines
	// a sampling pass (DB kind, sampling ratio, seed), so tenants over
	// the same generated database and samples share passes while
	// incompatible tenants never collide.
	Cache *EstimateCache
}

// DefaultConfig returns a uniform "1 GB" database on PC1 with a 5%
// sampling ratio and the complete predictor.
func DefaultConfig() Config {
	return Config{
		DB:            Uniform1G,
		Machine:       "PC1",
		SamplingRatio: 0.05,
		Variant:       All,
		Seed:          1,
	}
}

// estimateMemoSize bounds the per-System LRU memo of sampling passes,
// keyed by canonical plan signature.
const estimateMemoSize = 256

// System is an assembled prediction pipeline over a synthetic database
// and simulated hardware: four stages (Planner, Estimator, Predictor,
// Executor) over shared immutable layers. All fields are immutable
// after Open except the predictor handle, which changes only by atomic
// swap (Recalibrate); see the package documentation for
// the concurrency contract.
type System struct {
	cfg     Config
	db      *engine.DB
	cat     *catalog.Catalog
	profile *hardware.Profile
	cal     *calibrate.Result
	samples *sample.DB
	// truth, when set (drift injection), resolves the profile Recalibrate
	// measures: the System's *current* ground truth, which may differ
	// from the static profile until the drift's TruthSwitch fires.
	truth func() *hardware.Profile

	planner   Planner
	estimator Estimator
	executor  Executor
	// pred is the hot-swappable predictor stage; each façade derived by
	// With gets its own handle.
	pred *predictorHandle

	// estCache memoizes sampling passes (shared across Systems when
	// Config.Cache is set); estNS prefixes this System's keys so only
	// compatible Systems share entries. runNS prefixes the run-result
	// section's keys; it omits machine and sampling ratio, which run
	// results do not depend on.
	estCache *EstimateCache
	estNS    string
	runNS    string
}

// Open generates the database, builds statistics, calibrates the cost
// units against the simulated machine, draws the offline samples, and
// wires the four built-in pipeline stages (System.With replaces them).
func Open(cfg Config) (*System, error) {
	if cfg.Machine == "" {
		cfg.Machine = "PC1"
	}
	if cfg.SamplingRatio <= 0 {
		cfg.SamplingRatio = 0.05
	}
	profile, err := hardware.ProfileByName(cfg.Machine)
	if err != nil {
		return nil, err
	}
	db := datagen.Generate(datagen.ConfigFor(cfg.DB, cfg.Seed))
	cat := catalog.Build(db)
	cal, err := calibrate.Run(profile, calibrate.DefaultConfig(cfg.Seed+1))
	if err != nil {
		return nil, err
	}
	samples, err := sample.Build(db, cfg.SamplingRatio, sample.DefaultCopies, cfg.Seed+2)
	if err != nil {
		return nil, err
	}
	estCache := cfg.Cache
	if estCache == nil {
		estCache = NewEstimateCache(estimateMemoSize)
	}
	estNS, runNS := estimateNamespace(cfg), runNamespace(cfg)
	return &System{
		cfg:       cfg,
		db:        db,
		cat:       cat,
		profile:   profile,
		cal:       cal,
		samples:   samples,
		planner:   &defaultPlanner{cat: cat},
		estimator: &defaultEstimator{samples: samples, cat: cat, cache: estCache, ns: estNS},
		executor:  simExecutor{db: db, profile: profile, seed: cfg.Seed, cache: estCache, runNS: runNS, ver: cfg.RNG},
		pred:      newPredictorHandle(defaultPredictorState(cat, cal.Units, cfg.Variant)),
		estCache:  estCache,
		estNS:     estNS,
		runNS:     runNS,
	}, nil
}

// Config returns a copy of the configuration this System was opened
// with (after Open's defaulting).
func (s *System) Config() Config { return s.cfg }

// WithVariant returns a System predicting with variant v but sharing
// everything else with s — database, catalog, calibration, samples, and
// the estimate cache. Deriving a variant is cheap (no regeneration), so
// ablation grids can fan a single Open out across all variants. The
// derived System's predictor is the built-in stage for v over the
// current units (recalibrated units carry over; a custom stage does
// not).
func (s *System) WithVariant(v Variant) *System {
	if v == s.cfg.Variant {
		return s
	}
	units := s.cal.Units
	if st := s.pred.load(); st.units != nil {
		units = *st.units
	}
	derived := s.With()
	derived.cfg.Variant = v
	derived.pred = newPredictorHandle(defaultPredictorState(s.cat, units, v))
	return derived
}

// WithSamplingRatio returns a System with freshly drawn samples at
// ratio sr, sharing the generated database, catalog, calibration, and
// estimate cache with s. Sampling-ratio sweeps (Section 6 grids) can
// thus reuse one expensive Open per (DB, machine, seed) environment.
// The derived System's cache keys include the new ratio, so it never
// shares sampling passes with differently-sampled tenants. A custom
// Estimator stage is carried over unchanged; the built-in one is
// rebuilt on the new samples.
func (s *System) WithSamplingRatio(sr float64) (*System, error) {
	if sr == s.cfg.SamplingRatio {
		return s, nil
	}
	if sr <= 0 {
		return nil, fmt.Errorf("uaqetp: sampling ratio %g out of (0, 1]", sr)
	}
	samples, err := sample.Build(s.db, sr, sample.DefaultCopies, s.cfg.Seed+2)
	if err != nil {
		return nil, err
	}
	derived := s.With()
	derived.cfg.SamplingRatio = sr
	derived.samples = samples
	derived.estNS = estimateNamespace(derived.cfg)
	if _, ok := s.estimator.(*defaultEstimator); ok {
		derived.estimator = &defaultEstimator{
			samples: samples, cat: s.cat, cache: s.estCache, ns: derived.estNS,
		}
	}
	return derived, nil
}

// WithMachine returns a System running on the given machine profile but
// sharing everything machine-independent with s: the generated
// database, catalog, samples, and the estimate cache. The derived
// System owns what does depend on the machine — a fresh calibration of
// the cost units against p (deterministic per Config.Seed, exactly as
// Open would produce), its own hot-swappable predictor handle over
// those units, and an executor measuring on p — so a heterogeneous
// fleet is a set of cheap WithMachine siblings over one expensive Open.
//
// Cache sharing is safe by key construction: the plan- and subtree-pass
// sections' namespaces fingerprint only (DB, sampling ratio, seed), and
// the run section only (DB, seed) — estimates and run results are
// machine-independent, so siblings share them, while calibration and
// measured times are never cached and stay per machine
// (TestWithMachineSharesCachesNotUnits pins both directions).
//
// Like WithVariant, the derived System's predictor is the built-in
// stage over the fresh units; a custom Predictor stage does not carry
// over. A custom Executor stage is carried over unchanged (the built-in
// one is rebuilt on p). A profile equal to the current machine's
// returns s itself.
func (s *System) WithMachine(p *hardware.Profile) (*System, error) {
	if p == nil {
		return nil, fmt.Errorf("uaqetp: nil machine profile")
	}
	if *p == *s.profile {
		return s, nil
	}
	prof := *p // private copy: profiles are values, callers may mutate theirs
	cal, err := calibrate.Run(&prof, calibrate.DefaultConfig(s.cfg.Seed+1))
	if err != nil {
		return nil, fmt.Errorf("uaqetp: calibrate %q: %w", prof.Name, err)
	}
	derived := s.With()
	derived.cfg.Machine = prof.Name
	derived.profile = &prof
	derived.cal = cal
	derived.pred = newPredictorHandle(defaultPredictorState(s.cat, cal.Units, s.cfg.Variant))
	if _, ok := s.executor.(simExecutor); ok {
		derived.executor = simExecutor{
			db: s.db, profile: &prof, seed: s.cfg.Seed, cache: s.estCache, runNS: s.runNS, ver: s.cfg.RNG,
		}
	}
	return derived, nil
}

// resolvePlan picks the plan a call operates on: the planner's default
// plan, or — under WithPlanHint — the enumerated alternative whose
// signature matches the hint.
func (s *System) resolvePlan(ctx context.Context, q *Query, o callOpts) (*Plan, error) {
	if q == nil {
		return nil, errNilQuery
	}
	if o.planHint == "" {
		p, err := s.planner.BuildPlan(ctx, q)
		if err != nil {
			return nil, err
		}
		return p, p.valid()
	}
	alts, err := s.planner.Alternatives(ctx, q, o.maxAlts)
	if err != nil {
		return nil, err
	}
	for _, p := range alts {
		if p != nil && p.sig == o.planHint {
			return p, p.valid()
		}
	}
	return nil, fmt.Errorf("uaqetp: %q: %w (among %d alternatives)",
		queryName(q), ErrPlanHintNotFound, len(alts))
}

// predictResolved runs plan → estimate → predict for an already
// resolved plan on one consistent predictor stage.
func (s *System) predictResolved(ctx context.Context, p *Plan, stage Predictor) (*Prediction, error) {
	est, err := s.estimator.Estimate(ctx, p)
	if err != nil {
		return nil, err
	}
	return stage.Predict(ctx, p, est)
}

// PredictContext returns the distribution of likely running times for
// the query — the paper's t_q ~ N(E[t_q], Var[t_q]) — by routing the
// query through the Planner, Estimator, and Predictor stages.
// WithPlanHint predicts a specific alternative instead of the default
// plan.
func (s *System) PredictContext(ctx context.Context, q *Query, opts ...CallOption) (*Prediction, error) {
	pred, _, err := s.PredictPlannedContext(ctx, q, opts...)
	return pred, err
}

// PredictPlannedContext returns the prediction together with the plan it
// was made for, so serving-path callers resolve the physical plan once:
// the serving layer executes exactly that plan later through
// Executor().Execute and attributes feedback to its String().
func (s *System) PredictPlannedContext(ctx context.Context, q *Query, opts ...CallOption) (*Prediction, *Plan, error) {
	p, err := s.resolvePlan(ctx, q, newCallOpts(opts))
	if err != nil {
		return nil, nil, err
	}
	pred, err := s.predictResolved(ctx, p, s.Predictor())
	if err != nil {
		return nil, nil, err
	}
	return pred, p, nil
}

// ExecuteContext runs the query through the Executor stage (by default
// one run on the simulated hardware, the unit the predicted
// distribution describes) and returns its running time in seconds.
// Measure reports the paper's five-run mean instead. WithPlanHint
// executes a specific alternative instead of the default plan.
func (s *System) ExecuteContext(ctx context.Context, q *Query, opts ...CallOption) (float64, error) {
	o := newCallOpts(opts)
	p, err := s.resolvePlan(ctx, q, o)
	if err != nil {
		return 0, err
	}
	return s.executor.Execute(ctx, q, p)
}

// PlanChoice pairs one candidate physical plan with its predicted
// running-time distribution. Plan is the plan's canonical signature,
// replayable through WithPlanHint.
type PlanChoice struct {
	Plan string // rendered plan tree (canonical signature)
	Pred *Prediction
}

// AlternativesContext enumerates alternative plans for the query
// (bounded by WithMaxAlts) and predicts each one's running-time
// distribution — the raw material for least-expected-cost plan
// selection (Section 6.5.1). Alternatives sharing subtrees share those
// subtrees' sampling passes through the estimator's subplan memo.
func (s *System) AlternativesContext(ctx context.Context, q *Query, opts ...CallOption) ([]PlanChoice, error) {
	o := newCallOpts(opts)
	if q == nil {
		return nil, errNilQuery
	}
	plans, err := s.planner.Alternatives(ctx, q, o.maxAlts)
	if err != nil {
		return nil, err
	}
	stage := s.Predictor()
	choices := make([]PlanChoice, 0, len(plans))
	for _, p := range plans {
		if err := p.valid(); err != nil {
			return nil, err
		}
		pred, err := s.predictResolved(ctx, p, stage)
		if err != nil {
			return nil, err
		}
		choices = append(choices, PlanChoice{Plan: p.sig, Pred: pred})
	}
	return choices, nil
}

// ChoosePlanContext picks among the query's alternative plans by the
// risk quantile of the predicted distribution (WithQuantile; 0.5
// approximates least expected cost, 0.9 is risk-averse). It returns the
// chosen plan and all considered alternatives. A planner that produces
// no candidates yields ErrNoPlans.
func (s *System) ChoosePlanContext(ctx context.Context, q *Query, opts ...CallOption) (best PlanChoice, all []PlanChoice, err error) {
	o := newCallOpts(opts)
	if !(o.quantile > 0 && o.quantile < 1) {
		return PlanChoice{}, nil, fmt.Errorf("uaqetp: risk quantile %g out of (0, 1)", o.quantile)
	}
	all, err = s.AlternativesContext(ctx, q, opts...)
	if err != nil {
		return PlanChoice{}, nil, err
	}
	if len(all) == 0 {
		return PlanChoice{}, nil, fmt.Errorf("uaqetp: ChoosePlan %q: %w", queryName(q), ErrNoPlans)
	}
	bestIdx := 0
	bestCost := all[0].Pred.Dist.Quantile(o.quantile)
	for i := 1; i < len(all); i++ {
		if c := all[i].Pred.Dist.Quantile(o.quantile); c < bestCost {
			bestIdx, bestCost = i, c
		}
	}
	return all[bestIdx], all, nil
}

// PredictAndRunContext is a convenience helper returning both the
// prediction and the measured time of the one plan it resolves.
func (s *System) PredictAndRunContext(ctx context.Context, q *Query, opts ...CallOption) (*Prediction, float64, error) {
	pred, p, err := s.PredictPlannedContext(ctx, q, opts...)
	if err != nil {
		return nil, 0, err
	}
	actual, err := s.executor.Execute(ctx, q, p)
	if err != nil {
		return nil, 0, err
	}
	return pred, actual, nil
}

// Plan compiles a query into a physical plan and returns its canonical
// signature.
func (s *System) Plan(q *Query) (string, error) {
	if q == nil {
		return "", errNilQuery
	}
	p, err := s.planner.BuildPlan(context.Background(), q)
	if err != nil {
		return "", err
	}
	return p.String(), nil
}

// ---------------------------------------------------------------------
// Introspection over the shared layers.

// UnitDists returns the cost-unit distributions behind the current
// predictor stage in hardware unit order (cs, cr, ct, ci, co) — the
// numeric content of Table 1, reflecting the latest Recalibrate. With a
// custom Predictor stage installed it reports the Open-time
// calibration.
func (s *System) UnitDists() [hardware.NumUnits]stats.Normal {
	if st := s.pred.load(); st.units != nil {
		return *st.units
	}
	return s.cal.Units
}

// CostUnits returns the calibrated cost-unit means and standard
// deviations as formatted strings (Table 1 content).
func (s *System) CostUnits() []string {
	units := s.UnitDists()
	out := make([]string, 0, hardware.NumUnits)
	for i, u := range hardware.Units {
		d := units[i]
		out = append(out, fmt.Sprintf("%s: mean=%.4g stddev=%.4g s/op", u, d.Mu, d.Sigma))
	}
	return out
}

// GenerateWorkload produces n benchmark queries against this System's
// database, deterministically per Config.Seed — convenient input for
// PredictBatchContext demos and benchmarks.
func (s *System) GenerateWorkload(b workload.Benchmark, n int) ([]*Query, error) {
	return workload.Generate(b, s.cat, n, s.cfg.Seed+5)
}
