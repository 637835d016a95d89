package uaqetp

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/rng"
)

// OpDetail pairs one selective operator's estimated selectivity
// distribution with its ground truth from an actual run.
type OpDetail struct {
	EstSel   float64 // sampling-estimated selectivity
	EstSigma float64 // estimated standard deviation of the selectivity
	TrueSel  float64 // observed selectivity
}

// Measurement is the instrumented counterpart of ExecuteContext: the
// measured running time plus the ground truth the experiment harness
// needs — the simulated cost of the sampling pass vs. the full run
// (Section 6.4 overhead) and the per-operator selectivity observations
// (Tables 6-9).
// It is independent of the predictor variant, so ablation grids can
// measure once per query and reuse.
type Measurement struct {
	Actual     float64 // five-run mean running time in seconds (ExecuteContext is its first run)
	SampleCost float64 // simulated cost of the sampling pass
	FullCost   float64 // simulated cost of the full run
	Ops        []OpDetail
}

// Measure executes the query on the built-in simulator under the
// paper's measurement protocol: Actual is the mean of
// five runs (hardware.MeasurePlanSeeded) of the default Executor's deterministic
// per-call stream, the first of which is what ExecuteContext(ctx, q)
// returns unless a custom Executor stage is installed; on a
// drift-injected System it measures on the drifted profile once the
// switch has fired, as that executor does. It additionally
// reports the sampling overhead and per-operator selectivity ground
// truth. The plan comes from the Planner stage and the estimates from
// the Estimator stage (which must be, or wrap, the built-in sampling
// estimator); estimates that do not fit the plan — another plan's — are
// an error, as they are for Predict.
func (s *System) Measure(q *Query) (*Measurement, error) {
	if q == nil {
		return nil, errNilQuery
	}
	ctx := context.Background()
	p, err := s.planner.BuildPlan(ctx, q)
	if err != nil {
		return nil, err
	}
	if err := p.valid(); err != nil {
		return nil, err
	}
	ests, err := s.estimator.Estimate(ctx, p)
	if err != nil {
		return nil, err
	}
	if ests == nil || ests.est == nil {
		return nil, fmt.Errorf("uaqetp: Measure needs sampling estimates (custom Estimator returned none)")
	}
	est := ests.est
	if err := core.CheckEstimates(p.root.Nodes(), est); err != nil {
		return nil, err
	}
	res, err := runSimulated(ctx, s.estCache, s.runNS, s.db, p)
	if err != nil {
		return nil, err
	}
	prof := s.truth()
	m := &Measurement{
		Actual:     prof.MeasurePlanSeeded(res, s.cfg.RNG, p.execKey(s.cfg.Seed, rng.NameOf(q.Name))),
		SampleCost: prof.ExpectedCost(est.TotalSampleCounts()),
		FullCost:   prof.ExpectedCost(res.TotalCounts()),
	}
	for _, opRes := range res.Results() {
		n := opRes.Node
		if !n.Kind.IsScan() && !n.Kind.IsJoin() {
			continue
		}
		if oe := &est.Ops[n.ID]; !oe.FromOptimizer {
			m.Ops = append(m.Ops, OpDetail{
				EstSel:   oe.Rho,
				EstSigma: oe.Sigma(),
				TrueSel:  opRes.Selectivity,
			})
		}
	}
	return m, nil
}
