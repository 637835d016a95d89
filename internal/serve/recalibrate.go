package serve

import (
	"context"
	"fmt"

	"repro/internal/trace"
)

// RecalibrateRequest asks one tenant's cost units to be recalibrated.
type RecalibrateRequest struct {
	Tenant string `json:"tenant"`
	// Seed drives the calibration run; 0 derives a fresh deterministic
	// seed from the tenant's config seed and its recalibration count.
	Seed int64 `json:"seed"`
	// Force recalibrates even when the drift report does not advise it.
	Force bool `json:"force"`
}

// RecalibrateResponse reports what the action did.
type RecalibrateResponse struct {
	Tenant string `json:"tenant"`
	// Advised echoes the drift report's verdict at decision time.
	Advised bool `json:"advised"`
	// Recalibrated is false when the report did not advise and Force was
	// not set: the units are untouched.
	Recalibrated bool `json:"recalibrated"`
	// Seed is the calibration seed used (when Recalibrated).
	Seed int64 `json:"seed,omitempty"`
	// Drift is the report the decision was made off.
	Drift DriftReport `json:"drift"`
	// UnitsBefore/UnitsAfter are the formatted cost-unit distributions
	// around the swap (when Recalibrated).
	UnitsBefore []string `json:"units_before,omitempty"`
	UnitsAfter  []string `json:"units_after,omitempty"`
}

// Recalibrate closes the feedback loop for one tenant: read its drift
// report, and — when the report advises it (or Force is set) — re-run
// cost-unit calibration (internal/calibrate, via the System's
// Recalibrate) and atomically swap the fresh predictor into the
// tenant's façade. In-flight queries finish on the units they started
// with; queries submitted after the swap predict on the new units; no
// other tenant is affected, even ones sharing the same underlying
// System. The feedback accumulators reset on a successful swap, so the
// next drift report judges the new calibration rather than averaging
// over both.
//
// For a fixed seed the post-swap predictions are deterministic: the
// same seed always calibrates to the same units.
func (s *Server) Recalibrate(ctx context.Context, req RecalibrateRequest) (RecalibrateResponse, error) {
	t, err := s.Tenant(req.Tenant)
	if err != nil {
		return RecalibrateResponse{}, err
	}
	if err := ctx.Err(); err != nil {
		return RecalibrateResponse{}, err
	}

	t.recalMu.Lock()
	defer t.recalMu.Unlock()

	rep := t.feedback.report()
	resp := RecalibrateResponse{
		Tenant:  t.name,
		Advised: rep.RecalibrationAdvised,
		Drift:   rep,
	}
	if !rep.RecalibrationAdvised && !req.Force {
		s.traceRecal(t, &resp)
		return resp, nil
	}
	seed := req.Seed
	if seed == 0 {
		// Deterministic per (tenant config, recalibration ordinal):
		// replaying the same submission/recalibration sequence reproduces
		// the same units.
		seed = t.sys.Config().Seed + 101 + int64(t.recalibrations.Load())
	}
	resp.UnitsBefore = t.sys.CostUnits()
	if _, err := t.sys.Recalibrate(seed); err != nil {
		return resp, fmt.Errorf("serve: recalibrate %q: %w", t.name, err)
	}
	t.recalibrations.Add(1)
	t.feedback.reset()
	resp.Recalibrated = true
	resp.Seed = seed
	resp.UnitsAfter = t.sys.CostUnits()
	s.traceRecal(t, &resp)
	return resp, nil
}

// traceRecal emits a recalibration event (Full level): a cadence check
// that declined records Advised/Recalibrated false, so the trace shows
// when the feedback loop looked, not only when it acted. The event
// snapshots the drift window the verdict was based on — observation
// count plus the worst-drifting unit and its signed coverage drift —
// because a successful recalibration resets that window immediately.
func (s *Server) traceRecal(t *Tenant, resp *RecalibrateResponse) {
	rec := s.cfg.Trace
	if rec == nil || !rec.Enabled(trace.Full) {
		return
	}
	unit, drift := worstCoverageDrift(&resp.Drift)
	rec.Record(&trace.Event{
		Kind: trace.KindRecalibration, At: s.Clock(), Tenant: t.name,
		Advised: resp.Advised, Recalibrated: resp.Recalibrated,
		DriftObservations: resp.Drift.Observations,
		DriftUnit:         unit,
		MaxCoverageDrift:  drift,
	})
}
