package hardware

import (
	"strings"
	"testing"
)

// TestPresetsAreSpecs pins that the data-driven path reconstructs the
// presets exactly: Spec() → FromSpec is the identity, and the preset
// values are bit-identical profile values (the byte-determinism of
// every downstream report rests on this).
func TestPresetsAreSpecs(t *testing.T) {
	for _, p := range []*Profile{PC1(), PC2()} {
		back, err := FromSpec(p.Spec())
		if err != nil {
			t.Fatalf("%s: FromSpec(Spec()): %v", p.Name, err)
		}
		if *back != *p {
			t.Errorf("%s: spec round-trip changed the profile:\n%+v\nvs\n%+v", p.Name, back, p)
		}
	}
	if a, b := PC1(), PC1(); *a != *b {
		t.Error("PC1() not a stable value")
	}
}

func TestParseProfileJSON(t *testing.T) {
	data := []byte(`{
		"name": "edge-node",
		"units": {
			"cs": {"mean": 100e-6, "cv": 0.2},
			"cr": {"mean": 1200e-6, "cv": 0.25},
			"ct": {"mean": 2e-6, "sigma": 0.4e-6},
			"ci": {"mean": 5e-6, "cv": 0.2},
			"co": {"mean": 3e-6, "cv": 0.2}
		},
		"model_err_sigma": 0.15
	}`)
	p, err := ParseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "edge-node" || p.ModelErrSigma != 0.15 {
		t.Fatalf("parsed %+v", p)
	}
	if got := p.True[CS].Sigma; got != 0.2*100e-6 {
		t.Errorf("cs sigma from CV = %g", got)
	}
	if got := p.True[CT].Sigma; got != 0.4e-6 {
		t.Errorf("ct sigma (explicit) = %g", got)
	}
	if _, err := ParseProfile([]byte(`{"name":"x","units":{},"extra":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestFromSpecValidation(t *testing.T) {
	base := PC1().Spec()
	cases := []func(*Spec){
		func(sp *Spec) { sp.Name = "" },
		func(sp *Spec) { delete(sp.Units, "cr") },
		func(sp *Spec) { sp.Units["cx"] = UnitSpec{Mean: 1e-6} },
		func(sp *Spec) { sp.Units["cs"] = UnitSpec{Mean: 0, CV: 0.1} },
		func(sp *Spec) { sp.Units["cs"] = UnitSpec{Mean: 1e-6, CV: -0.1} },
		func(sp *Spec) { sp.ModelErrSigma = -1 },
	}
	for i, mutate := range cases {
		sp := PC1().Spec()
		sp.Name = base.Name
		mutate(&sp)
		if _, err := FromSpec(sp); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestWithDrift(t *testing.T) {
	p := PC1()
	drifted, err := p.WithDrift(0.3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < NumUnits; i++ {
		if drifted.True[i].Mu != 1.3*p.True[i].Mu {
			t.Errorf("unit %v mean not drifted", Unit(i))
		}
		if drifted.True[i].Sigma != p.True[i].Sigma {
			t.Errorf("unit %v sigma changed by mean drift", Unit(i))
		}
	}
	if drifted.Name != "PC1+d0.3" {
		t.Errorf("drifted profile labeled %q", drifted.Name)
	}
	if _, err := p.WithDrift(-1); err == nil {
		t.Error("drift -1 accepted")
	}
	// Deriving never mutates the receiver.
	if *p != *PC1() {
		t.Error("derivation mutated the base profile")
	}
}

func TestRegistry(t *testing.T) {
	_, err := ProfileByName("PC9")
	if err == nil {
		t.Fatal("unknown profile accepted")
	}
	// The error lists the registered vocabulary (the serving/sim layers
	// surface it directly to scenario authors).
	if msg := err.Error(); !strings.Contains(msg, "PC1") || !strings.Contains(msg, "PC2") {
		t.Errorf("unknown-profile error does not list registered profiles: %s", msg)
	}

	custom := PC2()
	custom.Name = "test-custom"
	custom.True[CS].Mu *= 2
	if err := Register(custom); err != nil {
		t.Fatal(err)
	}
	got, err := ProfileByName("test-custom")
	if err != nil || *got != *custom {
		t.Fatalf("registered profile not resolvable: %v, %v", got, err)
	}
	// Resolving hands out copies: mutating one must not poison the
	// registry.
	got.True[CS].Mu = 1
	again, _ := ProfileByName("test-custom")
	if again.True[CS].Mu == 1 {
		t.Error("ProfileByName returned a shared pointer")
	}
	if err := Register(custom); err == nil {
		t.Error("duplicate registration accepted")
	}
	names := RegisteredProfiles()
	want := map[string]bool{"PC1": true, "PC2": true, "test-custom": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Errorf("RegisteredProfiles() = %v missing %v", names, want)
	}
}
