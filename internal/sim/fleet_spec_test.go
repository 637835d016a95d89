package sim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hardware"
)

// inlineSpec is a valid full hardware spec for the inline-machine
// tests: PC1's shape with distinct means, so the machine is genuinely
// different from every registered profile.
func inlineSpec() *hardware.Spec {
	return &hardware.Spec{
		Name: "lab-box",
		Units: map[string]hardware.UnitSpec{
			"cs": {Mean: 60e-6, Sigma: 10e-6},
			"cr": {Mean: 700e-6, Sigma: 160e-6},
			"ct": {Mean: 0.8e-6, Sigma: 0.15e-6},
			"ci": {Mean: 2.0e-6, Sigma: 0.40e-6},
			"co": {Mean: 1.1e-6, Sigma: 0.20e-6},
		},
		ModelErrSigma: 0.10,
	}
}

// TestInlineMachineSpec pins machines[].spec end to end: a scenario can
// carry a full hardware profile inline instead of naming a registered
// one, the machine runs under the inline name, and the name labels the
// per-machine report.
func TestInlineMachineSpec(t *testing.T) {
	sc := testScenario()
	sc.Machines = FleetList(
		MachineSpec{Profile: "PC1"},
		MachineSpec{Spec: inlineSpec()},
	)
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.PerMachine[1].Profile; got != "lab-box" {
		t.Fatalf("inline machine labeled %q, want lab-box", got)
	}
	if rep.PerMachine[1].Executed == 0 {
		t.Fatal("inline-spec machine executed nothing")
	}
}

// TestInlineMachineSpecValidation rejects conflicting and malformed
// inline specs at normalization time.
func TestInlineMachineSpecValidation(t *testing.T) {
	sc := testScenario()
	sc.Machines = FleetList(MachineSpec{Profile: "PC1", Spec: inlineSpec()})
	if _, err := sc.resolve(); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("profile + inline spec accepted: %v", err)
	}

	bad := inlineSpec()
	bad.Units["cs"] = hardware.UnitSpec{Mean: -1}
	sc = testScenario()
	sc.Machines = FleetList(MachineSpec{Spec: bad})
	if _, err := sc.resolve(); err == nil || !strings.Contains(err.Error(), "must be positive") {
		t.Errorf("invalid inline unit mean accepted: %v", err)
	}

	incomplete := inlineSpec()
	delete(incomplete.Units, "co")
	sc = testScenario()
	sc.Machines = FleetList(MachineSpec{Spec: incomplete})
	if _, err := sc.resolve(); err == nil || !strings.Contains(err.Error(), "want all") {
		t.Errorf("incomplete inline spec accepted: %v", err)
	}
}

// TestInlineMachineSpecUnknownFieldRejected pins strict decoding
// through the nested spec object: a typo inside machines[].spec fails
// the load instead of silently dropping the field.
func TestInlineMachineSpecUnknownFieldRejected(t *testing.T) {
	dir := t.TempDir()
	scenario := `{
  "name": "x", "seed": 1, "horizon": 5, "db": "uniform-1G",
  "machines": [{"spec": {"name": "m", "model_err_sgima": 0.1,
    "units": {"cs": {"mean": 1e-6}, "cr": {"mean": 1e-6}, "ct": {"mean": 1e-6},
              "ci": {"mean": 1e-6}, "co": {"mean": 1e-6}}}}],
  "tenants": [{"name": "a", "bench": "micro",
    "slo": {"confidence": 0.9, "default_deadline": 1, "quantile": 0.9},
    "arrivals": {"process": "poisson", "rate": 1}}]
}`
	path := filepath.Join(dir, "sc.json")
	if err := os.WriteFile(path, []byte(scenario), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "model_err_sgima") {
		t.Errorf("unknown field inside machines[].spec accepted: %v", err)
	}
}

// TestRouterErrorListsVocabulary pins the router error style: an
// unknown router name reports the registered vocabulary, same idiom as
// unknown machine profiles.
func TestRouterErrorListsVocabulary(t *testing.T) {
	sc := testScenario()
	sc.Router = "teleport"
	_, err := sc.resolve()
	if err == nil {
		t.Fatal("unknown router accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"teleport"`) || !strings.Contains(msg, "registered:") {
		t.Errorf("router error does not follow the registered-vocabulary style: %v", err)
	}
	for _, r := range Routers() {
		if !strings.Contains(msg, r) {
			t.Errorf("router error missing %q from the vocabulary: %v", r, err)
		}
	}
}
