package uaqetp

// The built-in Executor stage, and the execution names its measurement
// streams are keyed by.

import (
	"context"
	"strconv"

	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/rng"
)

// simExecutor runs plans on the simulated hardware with the
// deterministic per-call seeding Execute has always used. Plan runs
// (engine.Run) go through the estimate cache's run section: the run
// result — the plan's operator tree with each operator's cardinalities,
// selectivity and resource counts, no rows — is a pure function of the
// generated database and the plan, so repeated executions — and
// executions by other Systems sharing the cache, even on different
// machine profiles — reuse one run while each call still draws its own
// deterministic measurement stream. An execution is one run of that
// stream (hardware.RunPlanSeeded), the unit the predicted distribution
// describes. On a drift-injected System the drift switch decides
// which profile measures (TruthSwitch.truth).
type simExecutor struct {
	db      *engine.DB
	profile *hardware.Profile
	drift   *TruthSwitch
	seed    int64
	cache   *EstimateCache
	runNS   string
	ver     rng.Version
}

// Execute runs p as the execution named by q's own Name.
func (x simExecutor) Execute(ctx context.Context, q *Query, p *Plan) (float64, error) {
	return x.run(ctx, q, ExecName{}, p)
}

// run is the one execution path: p's run result, measured on the
// stream keyed by the hashed name of execution n of q.
func (x simExecutor) run(ctx context.Context, q *Query, n ExecName, p *Plan) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if err := p.valid(); err != nil {
		return 0, err
	}
	res, err := runSimulated(ctx, x.cache, x.runNS, x.db, p)
	if err != nil {
		return 0, err
	}
	return x.drift.truth(x.profile).RunPlanSeeded(res, x.ver, p.execKey(x.seed, n.state(q))), nil
}

// runSimulated executes a built plan, memoized in the cache's run
// section. It is the single plan run behind the default Executor and
// System.Measure; both then draw from the same deterministic per-call
// stream (see internal/rng), the Executor one realization and Measure
// the mean of five (hardware.MeasurePlanSeeded). The cache keeps engine.Run's result
// tree as it comes: counts, cardinalities and selectivities, never
// rows.
func runSimulated(ctx context.Context, c *EstimateCache, ns string, db *engine.DB, p *Plan) (*engine.OpResult, error) {
	k := p.key(&p.run, ns, c.tier)
	return c.runs.get(ctx, k, func() (*engine.OpResult, error) {
		return engine.Run(db, p.root)
	})
}

// ordinalPad is what an ExecName's ordinal is zero-padded with: to
// five digits.
const ordinalPad = "00000"

// ExecMember is one submitter of executions (a simulated tenant
// member), its name hashed once: the FNV-1a state of "member/" that
// every name it gives an execution begins with.
type ExecMember struct {
	name string
	h    rng.Name
}

// NewExecMember returns the member named name.
func NewExecMember(name string) ExecMember {
	return ExecMember{name: name, h: rng.NameOf(name).Add("/")}
}

// Exec names the member's ordinal-th execution of q. It hashes q's
// Name and the ordinal's digits onto the member's state and builds no
// string.
func (m ExecMember) Exec(q *Query, ordinal uint32) ExecName {
	h := m.h.Add(q.Name).Add("#").AddDecimal(uint64(ordinal), len(ordinalPad))
	return ExecName{member: m.name, ord: ordinal, h: h, named: true}
}

// ExecName names one execution of a query that many executions share,
// so each measures on a stream of its own: member/query#ordinal, the
// ordinal zero-padded to five digits. It keeps the name's FNV-1a state
// rather than its bytes, so naming an execution builds nothing: the
// built-in executor keys its stream by the state (ExecuteAs), and Of
// builds the name for whoever reads it. The zero ExecName names an
// execution by its query's own Name.
type ExecName struct {
	member string
	h      rng.Name
	ord    uint32
	named  bool
}

// state is the hashed name of execution n of q.
func (n ExecName) state(q *Query) rng.Name {
	if n.named {
		return n.h
	}
	return rng.NameOf(q.Name)
}

// Of builds the name of execution n of q, the query it was named for.
func (n ExecName) Of(q *Query) string {
	if !n.named {
		return q.Name
	}
	o := strconv.FormatUint(uint64(n.ord), 10)
	return n.member + "/" + q.Name + "#" + ordinalPad[min(len(o), len(ordinalPad)):] + o
}

// Query returns q itself for the zero ExecName, else a copy of q
// renamed n.Of(q): execution n as a query of its own.
func (n ExecName) Query(q *Query) *Query {
	if !n.named {
		return q
	}
	renamed := *q
	renamed.Name = n.Of(q)
	return &renamed
}

// ExecuteAs runs p on the executor x as execution n of q. The built-in
// executor, drift-injected or not, keys its measurement stream by n's
// hashed name, so the run copies no query and builds no name; any other
// Executor is handed a copy of q renamed n.Of(q), the query it would
// have been handed had each execution its own.
func ExecuteAs(ctx context.Context, x Executor, q *Query, n ExecName, p *Plan) (float64, error) {
	switch b := x.(type) {
	case simExecutor:
		return b.run(ctx, q, n, p)
	}
	return x.Execute(ctx, n.Query(q), p)
}
