package serve

import (
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
)

// feedback accumulates observed running times against their predicted
// distributions. Each observation is attributed to the cost unit that
// dominates the query's predicted mean, so persistent mis-coverage in a
// bucket points at the unit whose calibration (internal/calibrate)
// drifted. The per-unit buckets are calib.Accumulators, so every drift
// report carries the observatory's full metric set (MAPE, Pearson r,
// bias, coverage) alongside the advisory verdict. The zero value is
// empty and ready.
type feedback struct {
	mu    sync.Mutex
	units [hardware.NumUnits]calib.Accumulator
}

// reset clears the accumulators, e.g. after a recalibration swap: the
// old observations judged the old units and would otherwise dilute the
// next drift verdict.
func (f *feedback) reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.units = [hardware.NumUnits]calib.Accumulator{}
}

// record adds one executed request's (prediction, observation) pair,
// as its Outcome carries it.
func (f *feedback) record(out *Outcome) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.units[out.Unit].Observe(out.PredMean, out.PredSigma, out.Elapsed)
}

// UnitDrift is the calibration-drift summary for one cost unit's bucket
// (queries whose predicted mean that unit dominates): the
// observatory's metrics, flattened into the JSON as in the simulator's
// per-unit calibration rows.
type UnitDrift struct {
	Unit string `json:"unit"`
	calib.Metrics
	// RecalibrationAdvised is set once the bucket has enough samples and
	// any coverage level drifts beyond tolerance.
	RecalibrationAdvised bool `json:"recalibration_advised"`
}

// DriftReport is the feedback loop's verdict on prediction calibration.
type DriftReport struct {
	Observations int         `json:"observations"`
	PerUnit      []UnitDrift `json:"per_unit"`
	// RecalibrationAdvised is the disjunction over units: some cost
	// unit's observed coverage has drifted enough from nominal that a
	// recalibration pass (internal/calibrate) is warranted.
	RecalibrationAdvised bool `json:"recalibration_advised"`
}

// report summarizes the accumulated observations.
func (f *feedback) report() DriftReport {
	f.mu.Lock()
	defer f.mu.Unlock()
	var rep DriftReport
	for ui := range f.units {
		u := &f.units[ui]
		if u.N() == 0 {
			continue
		}
		ud := UnitDrift{Unit: hardware.Unit(ui).String(), Metrics: u.Metrics()}
		rep.Observations += int(ud.N)
		for _, cp := range ud.Coverage {
			if ud.N >= driftMinSamples && (cp.Drift > driftTolerance || cp.Drift < -driftTolerance) {
				ud.RecalibrationAdvised = true
			}
		}
		if ud.RecalibrationAdvised {
			rep.RecalibrationAdvised = true
		}
		rep.PerUnit = append(rep.PerUnit, ud)
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
