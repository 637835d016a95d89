package serve

import (
	"sort"
	"sync"

	"repro/internal/calib"
	"repro/internal/hardware"
)

// The feedback loop tracks the calibration observatory's coverage
// levels (calib's coverage levels): a well-calibrated predictor sees
// ~50%, ~90%, and ~95% of observations inside the corresponding
// predicted central intervals.

const (
	// driftMinSamples is the minimum number of observations in a cost
	// unit's bucket before its drift is considered evidence.
	driftMinSamples = 16
	// driftTolerance is the allowed |observed - nominal| coverage gap
	// before recalibration is advised.
	driftTolerance = 0.12
	// maxTrackedSignatures bounds the per-plan-signature map for
	// long-lived servers; observations beyond the cap still count in
	// the unit buckets, just not per signature.
	maxTrackedSignatures = 4096
	// reportTopSignatures is how many of the hottest signatures the
	// drift report lists.
	reportTopSignatures = 12
)

// feedback accumulates observed running times against their predicted
// distributions. Each observation is attributed to the cost unit that
// dominates the query's predicted mean, so persistent mis-coverage in a
// bucket points at the unit whose calibration (internal/calibrate)
// drifted. The per-unit buckets are calib.Accumulators, so every drift
// report carries the observatory's full metric set (MAPE, Pearson r,
// bias, coverage) alongside the advisory verdict.
type feedback struct {
	mu    sync.Mutex
	units [hardware.NumUnits]calib.Accumulator
	sigs  map[string]*sigAgg
}

// sigAgg tracks per-plan-signature observations.
type sigAgg struct {
	n               int
	sumObs, sumPred float64
}

func newFeedback() *feedback {
	return &feedback{sigs: make(map[string]*sigAgg)}
}

// reset clears the accumulators, e.g. after a recalibration swap: the
// old observations judged the old units and would otherwise dilute the
// next drift verdict.
func (f *feedback) reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.units = [hardware.NumUnits]calib.Accumulator{}
	f.sigs = make(map[string]*sigAgg)
}

// record adds one executed request's (prediction, observation) pair,
// as its Outcome carries it, for a plan signature.
func (f *feedback) record(out *Outcome, plansig string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.units[out.Unit].Observe(out.PredMean, out.PredSigma, out.Elapsed)
	sg := f.sigs[plansig]
	if sg == nil {
		if len(f.sigs) >= maxTrackedSignatures {
			return
		}
		sg = &sigAgg{}
		f.sigs[plansig] = sg
	}
	sg.n++
	sg.sumObs += out.Elapsed
	sg.sumPred += out.PredMean
}

// CoveragePoint compares nominal and observed central-interval
// coverage; it is the calibration observatory's point type, so sim
// reports, /metrics, and drift reports share one definition.
type CoveragePoint = calib.CoveragePoint

// UnitDrift is the calibration-drift summary for one cost unit's bucket
// (queries whose predicted mean that unit dominates).
type UnitDrift struct {
	Unit     string          `json:"unit"`
	N        int             `json:"n"`
	Coverage []CoveragePoint `json:"coverage"`
	// MeanZ is the mean standardized residual (observed - mean)/sigma; a
	// well-calibrated bucket sits near 0.
	MeanZ float64 `json:"mean_z"`
	// MAPE is the bucket's mean absolute percentage error
	// |predicted-observed|/observed; Bias its mean signed error
	// predicted-observed in seconds; PearsonR the correlation between
	// predicted means and observed times (calib.Metrics definitions).
	MAPE     float64 `json:"mape"`
	Bias     float64 `json:"bias"`
	PearsonR float64 `json:"pearson_r"`
	// RecalibrationAdvised is set once the bucket has enough samples and
	// any coverage level drifts beyond tolerance.
	RecalibrationAdvised bool `json:"recalibration_advised"`
}

// SignatureDrift summarizes the observations of one plan signature:
// how far, on average, reality sits from the prediction for that exact
// plan shape.
type SignatureDrift struct {
	Signature     string  `json:"signature"`
	N             int     `json:"n"`
	MeanObserved  float64 `json:"mean_observed"`
	MeanPredicted float64 `json:"mean_predicted"`
	// Bias is MeanObserved - MeanPredicted (positive: the plan runs
	// slower than predicted).
	Bias float64 `json:"bias"`
}

// DriftReport is the feedback loop's verdict on prediction calibration.
type DriftReport struct {
	Observations   int         `json:"observations"`
	PlanSignatures int         `json:"plan_signatures"`
	PerUnit        []UnitDrift `json:"per_unit"`
	// TopSignatures lists the most-observed plan signatures with their
	// mean prediction bias, hottest first.
	TopSignatures []SignatureDrift `json:"top_signatures,omitempty"`
	// RecalibrationAdvised is the disjunction over units: some cost
	// unit's observed coverage has drifted enough from nominal that a
	// recalibration pass (internal/calibrate) is warranted.
	RecalibrationAdvised bool `json:"recalibration_advised"`
}

// report summarizes the accumulated observations.
func (f *feedback) report() DriftReport {
	f.mu.Lock()
	defer f.mu.Unlock()
	rep := DriftReport{PlanSignatures: len(f.sigs)}
	for ui := range f.units {
		u := &f.units[ui]
		if u.N() == 0 {
			continue
		}
		m := u.Metrics()
		rep.Observations += int(m.N)
		ud := UnitDrift{
			Unit:     hardware.Unit(ui).String(),
			N:        int(m.N),
			Coverage: m.Coverage,
			MeanZ:    m.MeanZ,
			MAPE:     m.MAPE,
			Bias:     m.Bias,
			PearsonR: m.PearsonR,
		}
		for _, cp := range m.Coverage {
			if m.N >= driftMinSamples && (cp.Drift > driftTolerance || cp.Drift < -driftTolerance) {
				ud.RecalibrationAdvised = true
			}
		}
		if ud.RecalibrationAdvised {
			rep.RecalibrationAdvised = true
		}
		rep.PerUnit = append(rep.PerUnit, ud)
	}
	for sig, sg := range f.sigs {
		rep.TopSignatures = append(rep.TopSignatures, SignatureDrift{
			Signature:     sig,
			N:             sg.n,
			MeanObserved:  sg.sumObs / float64(sg.n),
			MeanPredicted: sg.sumPred / float64(sg.n),
			Bias:          (sg.sumObs - sg.sumPred) / float64(sg.n),
		})
	}
	// Hottest first; ties by signature so the report is deterministic.
	sort.Slice(rep.TopSignatures, func(i, j int) bool {
		a, b := rep.TopSignatures[i], rep.TopSignatures[j]
		if a.N != b.N {
			return a.N > b.N
		}
		return a.Signature < b.Signature
	})
	if len(rep.TopSignatures) > reportTopSignatures {
		rep.TopSignatures = rep.TopSignatures[:reportTopSignatures]
	}
	return rep
}

// worstCoverageDrift returns the unit name and signed drift of the
// coverage point with the largest absolute drift in the report (empty
// name when the report has no units).
func worstCoverageDrift(rep *DriftReport) (unit string, drift float64) {
	best := -1.0
	for i := range rep.PerUnit {
		ud := &rep.PerUnit[i]
		for _, cp := range ud.Coverage {
			a := cp.Drift
			if a < 0 {
				a = -a
			}
			if a > best {
				best, unit, drift = a, ud.Unit, cp.Drift
			}
		}
	}
	return unit, drift
}
