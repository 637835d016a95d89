package hardware

import (
	"math"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/rng"
)

// RunPlanSeeded realizes one run of an executed plan — what every
// execution is — on measurement-stream version v seeded from key (an
// rng.ExecKey). rng.V1 is the historical math/rand source, with its
// ~607-word seeding ritual and heap-allocated generator per run; rng.V2
// a counter-based splitmix64 stream on the stack through concrete-typed
// mirrors of the draw path, with zero heap allocation per run (pinned
// by TestMeasurePlanSeededV2Allocs).
func (p *Profile) RunPlanSeeded(res *engine.OpResult, v rng.Version, key int64) float64 {
	if v == rng.V2 {
		s := rng.NewStream(key)
		return p.planTimeStream(res, &s)
	}
	return p.planTime(res, rand.New(rand.NewSource(key)))
}

// MeasurePlanSeeded is the paper's measurement protocol, used by
// System.Measure and internal/exper only: the mean of averageRuns
// successive runs of the stream RunPlanSeeded draws one run from, so
// its first run is RunPlanSeeded's value.
func (p *Profile) MeasurePlanSeeded(res *engine.OpResult, v rng.Version, key int64) float64 {
	if v != rng.V2 {
		return p.measurePlan(res, rand.New(rand.NewSource(key)))
	}
	s := rng.NewStream(key)
	var sum float64
	for i := 0; i < averageRuns; i++ {
		sum += p.planTimeStream(res, &s)
	}
	return sum / averageRuns
}

// drawUnitStream mirrors drawUnit on the concrete V2 stream.
func (p *Profile) drawUnitStream(u Unit, s *rng.Stream) float64 {
	d := p.True[u]
	v := d.Mu + d.Sigma*s.NormFloat64()
	// Cost units are physically positive; resample the rare negative tail.
	for v <= 0 {
		v = d.Mu + d.Sigma*s.NormFloat64()
	}
	return v
}

// planTimeStream mirrors planTime on the concrete V2 stream, walking
// the result tree directly (same preorder as Results, no slice).
func (p *Profile) planTimeStream(res *engine.OpResult, s *rng.Stream) float64 {
	var units [NumUnits]float64
	for i := 0; i < NumUnits; i++ {
		units[i] = p.drawUnitStream(Unit(i), s)
	}
	return p.opTreeTimeStream(res, &units, s, 0)
}

// opTreeTimeStream realizes the subtree rooted at op in preorder,
// folding into the running total t left to right — the same draw and
// summation order as the v1 path, so v1 and v2 differ only in
// generator, never in arithmetic.
func (p *Profile) opTreeTimeStream(op *engine.OpResult, units *[NumUnits]float64, s *rng.Stream, t float64) float64 {
	var ot float64
	for i := 0; i < NumUnits; i++ {
		if n := op.Counts.Get(i); n > 0 {
			ot += n * units[i]
		}
	}
	if p.ModelErrSigma > 0 {
		ot *= math.Exp(p.ModelErrSigma * s.NormFloat64())
	}
	t += ot
	if op.Left != nil {
		t = p.opTreeTimeStream(op.Left, units, s, t)
	}
	if op.Right != nil {
		t = p.opTreeTimeStream(op.Right, units, s, t)
	}
	return t
}
