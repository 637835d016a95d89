package uaqetp

// Drift injection: the controlled experiment behind the calibration
// observatory. A drift-injected System starts life perfectly
// calibrated — it measures on its receiver's profile with its
// receiver's units — until a TruthSwitch fires, after which the
// built-in executor, Measure and Recalibrate all read the drifted
// profile the switch carries while the units silently go stale.
// Recalibrating before the switch is a no-op by construction; after it,
// a recalibration recovers, so the feedback loop's auto-recalibration
// is what closes the gap: time from switch to recovery is the
// time-to-detection the simulator reports.

import (
	"fmt"
	"sync/atomic"

	"repro/internal/hardware"
)

// TruthSwitch flips a drift-injected System's ground truth from its
// pre-drift profile to the drifted one it carries. Safe for concurrent
// use; executions that begin after Switch measure on the drifted
// profile. Both sides use the same deterministic per-call measurement
// seeding, so flipping the switch changes which profile measures, never
// the random stream.
type TruthSwitch struct {
	flag    atomic.Bool
	drifted *hardware.Profile
}

// Switch makes the drift take effect. Idempotent.
func (t *TruthSwitch) Switch() { t.flag.Store(true) }

// truth is the profile measuring now on a machine whose pre-drift
// profile is p: p itself without a switch or before it fires, the
// drifted profile after.
func (t *TruthSwitch) truth(p *hardware.Profile) *hardware.Profile {
	if t != nil && t.flag.Load() {
		return t.drifted
	}
	return p
}

// WithDriftInjection derives from s, the pre-drift machine, a System
// whose truth moves to the drifted profile (typically
// profile.WithDrift(...)) when the returned TruthSwitch fires. Until
// then it executes, measures and recalibrates exactly as s does, and
// predicts with a predictor stage of its own over s's units, so
// predictions and reality agree. After Switch, executions, Measure and
// Recalibrate read the drifted profile while the units stay stale until
// a recalibration recovers them — the "machine whose truth moved" story
// made runnable mid-flight.
//
// The receiver must use the built-in executor; shared layers (database,
// samples, estimate cache) are shared as with any derived System.
// WithMachine on the result yields an undrifted System.
func (s *System) WithDriftInjection(drifted *hardware.Profile) (*System, *TruthSwitch, error) {
	if drifted == nil {
		return nil, nil, fmt.Errorf("uaqetp: nil drifted profile")
	}
	x, ok := s.executor.(simExecutor)
	if !ok {
		return nil, nil, fmt.Errorf("uaqetp: drift injection needs the built-in executor (custom Executor stage installed)")
	}
	prof := *drifted // private copy: profiles are values, callers may mutate theirs
	sw := &TruthSwitch{drifted: &prof}
	x.drift = sw
	derived := s.With(WithExecutor(x))
	derived.drift = sw
	derived.pred = newPredictorHandle(defaultPredictorState(s.cat, s.UnitDists(), s.cfg.Variant))
	return derived, sw, nil
}

// truth is the profile this System measures and recalibrates on now.
func (s *System) truth() *hardware.Profile { return s.drift.truth(s.profile) }
