package hardware

import "testing"

// TestPresetsAreSpecs pins that the presets are fixed specifications:
// every call of PC1() or PC2() returns an equal, separate profile (the
// byte-determinism of every downstream report rests on this).
func TestPresetsAreSpecs(t *testing.T) {
	if a, b := PC1(), PC1(); *a != *b || a == b {
		t.Error("PC1() not a stable value")
	}
	if a, b := PC2(), PC2(); *a != *b || a == b {
		t.Error("PC2() not a stable value")
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
	// The error lists the known vocabulary (the serving/sim layers
	// surface it directly to scenario authors).
	if got, want := err.Error(), `hardware: unknown profile "PC9" (registered: PC1, PC2)`; got != want {
		t.Errorf("unknown-profile error = %q, want %q", got, want)
	}
	// Resolving hands out copies: mutating one must not change the next.
	got, _ := ProfileByName("PC2")
	got.True[CS].Mu = 1
	if again, _ := ProfileByName("PC2"); again.True[CS].Mu == 1 {
		t.Error("ProfileByName returned a shared pointer")
	}
}
