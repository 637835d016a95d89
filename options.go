package uaqetp

// Per-call functional options. Every *Context entry
// point accepts a trailing ...CallOption; each option tunes exactly one
// knob of that call, and unset knobs fall back to the documented
// defaults. The same options compose across methods: a plan signature
// chosen by ChoosePlanContext can be replayed through PredictContext or
// ExecuteContext with WithPlanHint, and WithWorkers sizes the worker
// pool of the batch entry points.

const (
	// DefaultMaxAlts bounds the alternative join orders a call considers
	// when WithMaxAlts is absent.
	DefaultMaxAlts = 8
	// DefaultQuantile is the risk quantile plan selection uses when
	// WithQuantile is absent: 0.5 approximates least expected cost.
	DefaultQuantile = 0.5
)

// callOpts is the resolved per-call configuration.
type callOpts struct {
	maxAlts  int
	quantile float64
	planHint string
	workers  int
}

// CallOption tunes one call to a *Context method.
type CallOption func(*callOpts)

// newCallOpts applies opts over the defaults. Applying an option takes
// o's address, which moves o to the heap, so a call without options
// returns the defaults before o exists.
func newCallOpts(opts []CallOption) callOpts {
	def := callOpts{maxAlts: DefaultMaxAlts, quantile: DefaultQuantile}
	if len(opts) == 0 {
		return def
	}
	o := def
	for _, f := range opts {
		if f != nil {
			f(&o)
		}
	}
	return o
}

// WithMaxAlts bounds the number of alternative join orders considered
// (AlternativesContext, ChoosePlanContext, and plan-hint resolution);
// k < 1 keeps the default.
func WithMaxAlts(k int) CallOption {
	return func(o *callOpts) {
		if k >= 1 {
			o.maxAlts = k
		}
	}
}

// WithQuantile selects the risk quantile of the predicted distribution
// used to rank plans in ChoosePlanContext: 0.5 approximates least
// expected cost, higher values are risk-averse. Values outside (0, 1)
// are rejected by the call.
func WithQuantile(p float64) CallOption {
	return func(o *callOpts) { o.quantile = p }
}

// WithPlanHint pins the call to the alternative whose canonical
// signature equals sig — as previously returned by PlanChoice.Plan,
// Plan.String, or System.Plan — instead of the planner's default plan.
// The hint is resolved among the planner's alternatives (bounded by
// WithMaxAlts); if none matches, the call fails with
// ErrPlanHintNotFound. An empty sig is a no-op.
func WithPlanHint(sig string) CallOption {
	return func(o *callOpts) { o.planHint = sig }
}

// WithWorkers bounds the goroutines the batch entry point
// (PredictBatchContext) fans out over; 0 (the
// default) selects GOMAXPROCS, 1 degenerates to a serial loop. Results
// are byte-identical for every value.
func WithWorkers(n int) CallOption {
	return func(o *callOpts) {
		if n >= 0 {
			o.workers = n
		}
	}
}
