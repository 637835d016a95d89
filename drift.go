package uaqetp

// Drift injection: the controlled experiment behind the calibration
// observatory. A drift-injected System starts life perfectly
// calibrated — its executor measures on a "before" profile and its
// predictor units were calibrated against that same profile — until a
// TruthSwitch fires, after which executions measure on the System's
// own (drifted) profile while the units silently go stale. Recalibrate
// targets whichever profile is the truth *right now* — pre-drift before
// the switch (a recalibration then is a no-op by construction), drifted
// after — so the feedback loop's auto-recalibration is what closes the
// gap: time from switch to recovery is the time-to-detection the
// simulator reports.

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/calibrate"
	"repro/internal/hardware"
)

// TruthSwitch flips a drift-injected System's ground truth from its
// pre-drift profile to its drifted one. Safe for concurrent use;
// executions that begin after Switch measure on the drifted profile.
type TruthSwitch struct {
	flag atomic.Bool
}

// Switch makes the drift take effect. Idempotent.
func (t *TruthSwitch) Switch() { t.flag.Store(true) }

// switched reports whether the drift has taken effect.
func (t *TruthSwitch) switched() bool { return t.flag.Load() }

// switchExecutor routes Execute through the pre-drift executor until
// the switch fires, then through the post-drift one. Both sides use
// the same deterministic per-call measurement seeding, so flipping the
// switch changes *which profile* measures, never the random stream.
type switchExecutor struct {
	sw            *TruthSwitch
	before, after simExecutor
}

// current is the executor measuring now.
func (x *switchExecutor) current() simExecutor {
	if x.sw.switched() {
		return x.after
	}
	return x.before
}

func (x *switchExecutor) Execute(ctx context.Context, q *Query, p *Plan) (float64, error) {
	return x.current().Execute(ctx, q, p)
}

// WithDriftInjection derives, from a System on a drifted profile
// (typically a WithMachine sibling on profile.WithDrift(...)), a System
// whose observable truth starts at the given pre-drift profile: its
// executor measures on `before` until the returned TruthSwitch fires,
// and its predictor units are freshly calibrated against `before`
// (deterministic per Config.Seed, exactly as Open would produce), so
// predictions and reality agree. After Switch, executions measure on
// the receiver's own drifted profile while the units stay stale — the
// PR 5 "machine whose truth moved" story made runnable mid-flight.
// Recalibrate on the derived System (and on façades derived from it)
// calibrates against the current truth: the pre-drift profile until the
// switch fires — so a spurious advisory cannot poison a still-accurate
// predictor — and the drifted profile after, so a drift-advised
// recalibration genuinely recovers.
//
// The receiver must use the built-in executor; shared layers (database,
// samples, estimate cache) are shared as with any derived System.
func (s *System) WithDriftInjection(before *hardware.Profile) (*System, *TruthSwitch, error) {
	if before == nil {
		return nil, nil, fmt.Errorf("uaqetp: nil pre-drift profile")
	}
	after, ok := s.executor.(simExecutor)
	if !ok {
		return nil, nil, fmt.Errorf("uaqetp: drift injection needs the built-in executor (custom Executor stage installed)")
	}
	prof := *before // private copy: profiles are values, callers may mutate theirs
	cal, err := calibrate.Run(&prof, calibrate.DefaultConfig(s.cfg.Seed+1))
	if err != nil {
		return nil, nil, fmt.Errorf("uaqetp: calibrate pre-drift %q: %w", prof.Name, err)
	}
	sw := &TruthSwitch{}
	preExec := simExecutor{db: s.db, profile: &prof, seed: s.cfg.Seed, cache: s.estCache, runNS: s.runNS, ver: s.cfg.RNG}
	derived := s.With(WithExecutor(&switchExecutor{sw: sw, before: preExec, after: after}))
	derived.pred = newPredictorHandle(defaultPredictorState(s.cat, cal.Units, s.cfg.Variant))
	derived.truth = func() *hardware.Profile {
		if sw.switched() {
			return s.profile
		}
		return &prof
	}
	return derived, sw, nil
}
