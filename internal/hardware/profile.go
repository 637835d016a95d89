package hardware

// The paper's two machines as literal profiles, the name lookup over
// them, and WithDrift, which derives a drifted machine from a base one
// for heterogeneous fleets.

import (
	"fmt"

	"repro/internal/stats"
)

// PC1 returns the slower machine of the paper (dual 1.86 GHz CPU, 4 GB).
func PC1() *Profile {
	return &Profile{
		Name: "PC1",
		True: [NumUnits]stats.Normal{
			CS: {Mu: 80e-6, Sigma: 14e-6},   // sequential page read
			CR: {Mu: 900e-6, Sigma: 220e-6}, // random page read
			CT: {Mu: 1.0e-6, Sigma: 0.18e-6},
			CI: {Mu: 2.5e-6, Sigma: 0.50e-6},
			CO: {Mu: 1.4e-6, Sigma: 0.26e-6},
		},
		ModelErrSigma: 0.12,
	}
}

// PC2 returns the faster machine (8-core 2.40 GHz, 16 GB): roughly 2x
// cheaper CPU units, moderately cheaper I/O, and slightly tighter
// variation than PC1.
func PC2() *Profile {
	return &Profile{
		Name: "PC2",
		True: [NumUnits]stats.Normal{
			CS: {Mu: 60e-6, Sigma: 9e-6},
			CR: {Mu: 700e-6, Sigma: 150e-6},
			CT: {Mu: 0.45e-6, Sigma: 0.07e-6},
			CI: {Mu: 1.1e-6, Sigma: 0.19e-6},
			CO: {Mu: 0.6e-6, Sigma: 0.10e-6},
		},
		ModelErrSigma: 0.10,
	}
}

// ProfileByName resolves "PC1" or "PC2" to a fresh copy of that
// machine's profile. Unknown names report the two it knows.
func ProfileByName(name string) (*Profile, error) {
	switch name {
	case "PC1":
		return PC1(), nil
	case "PC2":
		return PC2(), nil
	}
	return nil, fmt.Errorf("hardware: unknown profile %q (registered: PC1, PC2)", name)
}

// WithDrift derives a machine whose unit means have drifted by the
// given fraction — means are multiplied by (1+frac), sigmas left as
// they are — modeling a machine (aging disk, background load) whose
// true cost units have moved away from what calibrating the base
// profile would find. The derived profile is named "<name>+d<frac>"
// (or "-d" for negative drift).
func (p *Profile) WithDrift(frac float64) (*Profile, error) {
	if frac <= -1 {
		return nil, fmt.Errorf("hardware: drift %g must be above -1 (unit means stay positive)", frac)
	}
	d := *p
	if frac < 0 {
		d.Name = fmt.Sprintf("%s-d%g", p.Name, -frac)
	} else {
		d.Name = fmt.Sprintf("%s+d%g", p.Name, frac)
	}
	for i := range d.True {
		d.True[i].Mu *= 1 + frac
	}
	return &d, nil
}
