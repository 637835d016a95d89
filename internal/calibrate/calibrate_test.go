package calibrate

import (
	"math"
	"testing"

	"repro/internal/hardware"
)

func TestCalibrationRecoverMeans(t *testing.T) {
	for _, mk := range []func() *hardware.Profile{hardware.PC1, hardware.PC2} {
		p := mk()
		res, err := Run(p, DefaultConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < hardware.NumUnits; i++ {
			got := res.Units[i].Mu
			want := p.True[i].Mu
			rel := math.Abs(got-want) / want
			// The lognormal model error biases observations by
			// exp(sigma^2/2) ~ 0.5-0.7%; allow a broader band for the
			// subtractive chain on derived units.
			if rel > 0.25 {
				t.Errorf("%s unit %v: calibrated %v vs true %v (rel %.3f)",
					p.Name, hardware.Unit(i), got, want, rel)
			}
		}
	}
}

func TestCalibrationVariancesPositive(t *testing.T) {
	res, err := Run(hardware.PC1(), DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < hardware.NumUnits; i++ {
		if res.Units[i].Sigma <= 0 {
			t.Errorf("unit %v: sigma = %v, want > 0", hardware.Unit(i), res.Units[i].Sigma)
		}
		if len(res.Observations[i]) == 0 {
			t.Errorf("unit %v: no observations", hardware.Unit(i))
		}
	}
}

func TestCalibrationDeterministicPerSeed(t *testing.T) {
	a, err := Run(hardware.PC2(), DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(hardware.PC2(), DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < hardware.NumUnits; i++ {
		if a.Units[i] != b.Units[i] {
			t.Errorf("unit %v differs across identical runs", hardware.Unit(i))
		}
	}
}

func TestCalibrationOrderingPreserved(t *testing.T) {
	// Random I/O must calibrate as more expensive than sequential I/O,
	// and index tuple cost above plain tuple cost.
	res, err := Run(hardware.PC1(), DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Units[hardware.CR].Mu <= res.Units[hardware.CS].Mu {
		t.Errorf("cr %v <= cs %v", res.Units[hardware.CR].Mu, res.Units[hardware.CS].Mu)
	}
	if res.Units[hardware.CI].Mu <= res.Units[hardware.CT].Mu {
		t.Errorf("ci %v <= ct %v", res.Units[hardware.CI].Mu, res.Units[hardware.CT].Mu)
	}
}

func TestDistAccessor(t *testing.T) {
	res, err := Run(hardware.PC1(), DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Units {
		if res.Dist(hardware.Unit(i)) != res.Units[i] {
			t.Errorf("Dist(%d) mismatch", i)
		}
	}
}
