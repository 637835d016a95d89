package sim

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/trace"
)

// shippedDriftScenario loads the drift-injection scenario the README
// uses, so the acceptance test pins what ships.
func shippedDriftScenario(t *testing.T) Scenario {
	t.Helper()
	sc, err := Load("../../examples/sim/scenario-drift.json")
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// driftTestScenario is a small two-machine scenario with one mid-run
// drift, sized for the repeated runs of the determinism sweeps.
func driftTestScenario() Scenario {
	sc := testScenario()
	sc.Machines = FleetList(
		MachineSpec{Profile: "PC1"},
		MachineSpec{Profile: "PC1", Drift: 2.0, DriftAt: 5},
	)
	sc.RecalEvery = 3
	return sc
}

// TestDriftDetectionAndRecovery is the acceptance test for the drift
// experiment: on the shipped scenario the report must tell the whole
// story — onset, detection by the feedback loop within the
// recalibration cadence, degraded attainment while the units were
// stale, and recovery after the recalibration lands.
func TestDriftDetectionAndRecovery(t *testing.T) {
	sc := shippedDriftScenario(t)
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	dw := rep.DriftWindow
	if dw == nil {
		t.Fatal("drift scenario produced no drift_window section")
	}
	if dw.OnsetAt != 18 {
		t.Errorf("onset %v, want the scenario's drift_at 18", dw.OnsetAt)
	}
	if !dw.Detected {
		t.Fatal("drift never detected: the feedback loop did not recalibrate after onset")
	}
	if dw.TimeToDetection <= 0 || dw.TimeToDetection > 2*sc.RecalEvery {
		t.Errorf("time-to-detection %v outside (0, %v]: detection should land within two recalibration periods",
			dw.TimeToDetection, 2*sc.RecalEvery)
	}
	if dw.DetectedAt != dw.OnsetAt+dw.TimeToDetection {
		t.Errorf("detected_at %v != onset %v + ttd %v", dw.DetectedAt, dw.OnsetAt, dw.TimeToDetection)
	}

	// The three phases must carry real samples and tell the degradation
	// story: perfect before onset, degraded while stale, recovering after.
	for name, pa := range map[string]PhaseAttainment{"before": dw.Before, "during": dw.During, "after": dw.After} {
		if pa.Executed == 0 {
			t.Errorf("phase %q has no executed samples", name)
		}
	}
	if dw.During.Attainment >= dw.Before.Attainment {
		t.Errorf("attainment during drift %v not below pre-drift %v", dw.During.Attainment, dw.Before.Attainment)
	}
	if dw.After.Attainment <= dw.During.Attainment {
		t.Errorf("post-recovery attainment %v not above during-drift %v", dw.After.Attainment, dw.During.Attainment)
	}
	if dw.AttainmentDuringDrift != dw.During.Attainment {
		t.Errorf("attainment_during_drift %v != during.attainment %v", dw.AttainmentDuringDrift, dw.During.Attainment)
	}

	// Per-machine drift fields: only the drifting machine carries them.
	if got := rep.PerMachine[0].DriftDetectedAt; got != 0 {
		t.Errorf("undrifted machine 0 reports drift_detected_at %v", got)
	}
	if got := rep.PerMachine[1].DriftDetectedAt; got != dw.DetectedAt {
		t.Errorf("machine 1 drift_detected_at %v, want fleet detection %v", got, dw.DetectedAt)
	}

	// The calibration section rode along: per-unit residual metrics over
	// every executed request.
	cal := rep.Calibration
	if cal == nil {
		t.Fatal("report has no calibration section")
	}
	if cal.Overall.N == 0 || len(cal.PerUnit) == 0 || len(cal.PerTenant) != len(sc.Tenants) {
		t.Fatalf("calibration section empty: overall n=%d, %d units, %d tenants",
			cal.Overall.N, len(cal.PerUnit), len(cal.PerTenant))
	}
	if cal.Overall.MAPE <= 0 || cal.Overall.MAPE > 1 {
		t.Errorf("overall MAPE %v implausible", cal.Overall.MAPE)
	}
	if cal.Overall.PearsonR <= 0 {
		t.Errorf("overall Pearson r %v: predictions uncorrelated with reality", cal.Overall.PearsonR)
	}
	if len(cal.Overall.Coverage) == 0 {
		t.Error("overall coverage curve empty")
	}
	var unitN int64
	for _, u := range cal.PerUnit {
		unitN += u.N
	}
	if unitN != cal.Overall.N {
		t.Errorf("per-unit observation counts sum to %d, overall has %d", unitN, cal.Overall.N)
	}
}

// TestCalibrationSectionAlwaysOn pins that the observatory needs no
// opt-in: every report carries the calibration section, and scenarios
// without a scheduled drift carry no drift_window.
func TestCalibrationSectionAlwaysOn(t *testing.T) {
	rep, err := Run(testScenario())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Calibration == nil || rep.Calibration.Overall.N == 0 {
		t.Fatal("plain scenario has no calibration section")
	}
	var executed int
	for _, tr := range rep.Tenants {
		executed += tr.Executed
	}
	if rep.Calibration.Overall.N != int64(executed) {
		t.Errorf("calibration observed %d requests, report executed %d", rep.Calibration.Overall.N, executed)
	}
	if rep.DriftWindow != nil {
		t.Error("driftless scenario reports a drift_window")
	}
}

// calibJSONL renders a calibration stream the way `uaqp sim -calib`
// does.
func calibJSONL(t *testing.T, events []trace.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCalibStreamByteIdentical extends the byte-determinism contract to
// the calibration stream: for a fixed (scenario, seed) the `-calib`
// JSONL is byte-identical across repeated runs and GOMAXPROCS — and
// turning the stream on must not change a byte of the decision trace,
// which is numbered by its own recorder.
func TestCalibStreamByteIdentical(t *testing.T) {
	sc := driftTestScenario()
	_, refTrace, refCalib, err := runInstrumented(sc, trace.Full, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(refCalib) == 0 {
		t.Fatal("reference run streamed no calibration events")
	}
	for _, ev := range refCalib {
		if ev.Kind != trace.KindCalibration || ev.Unit == "" || ev.PredSigma <= 0 {
			t.Fatalf("malformed calibration event: %+v", ev)
		}
	}
	refC := calibJSONL(t, refCalib)
	refT := traceJSONL(t, refTrace)

	// The decision trace must not notice the calibration stream.
	_, plainTrace, err := runRecorded(sc, trace.Full)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(traceJSONL(t, plainTrace), refT) {
		t.Error("enabling the calibration stream changed the decision trace")
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		_, events, calibEvents, err := runInstrumented(sc, trace.Full, true)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if !bytes.Equal(calibJSONL(t, calibEvents), refC) {
			t.Errorf("GOMAXPROCS=%d: calibration stream differs from the reference run", procs)
		}
		if !bytes.Equal(traceJSONL(t, events), refT) {
			t.Errorf("GOMAXPROCS=%d: decision trace differs from the reference run", procs)
		}
	}
}

// TestDriftAtValidation pins the scenario-level guard rails.
func TestDriftAtValidation(t *testing.T) {
	sc := testScenario()
	sc.Machines = FleetList(MachineSpec{Profile: "PC1", DriftAt: 5})
	if _, err := Run(sc); err == nil {
		t.Error("drift_at without drift accepted")
	}
	sc.Machines = FleetList(MachineSpec{Profile: "PC1", Drift: 1, DriftAt: -1})
	if _, err := Run(sc); err == nil {
		t.Error("negative drift_at accepted")
	}
}
