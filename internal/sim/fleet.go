package sim

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/hardware"
)

// MachineSpec describes one machine of the fleet — or, via Count,
// several identical ones.
type MachineSpec struct {
	// Profile names one of the paper's two machines, "PC1" or "PC2"
	// (hardware.ProfileByName). Empty selects the scenario's
	// machine_profile.
	Profile string `json:"profile,omitempty"`
	// Drift shifts the machine's true unit means by the given fraction
	// (hardware.Profile.WithDrift): 0.3 is a machine 30% slower than its
	// profile claims. The machine's own calibration sees the drifted
	// truth; fleet-shared units do not — the gap per-machine routing
	// exploits. Must be > -1.
	Drift float64 `json:"drift,omitempty"`
	// DriftAt, in virtual seconds, turns Drift into a mid-run event: the
	// machine starts on its undrifted profile with matching calibration
	// and flips to the drifted truth at this instant, while its units go
	// stale — the calibration observatory's controlled drift experiment
	// (uaqetp.WithDriftInjection). The report then carries a drift_window
	// section with time-to-detection (drift onset to the first automatic
	// recalibration) and per-phase attainment. 0 means the machine is
	// drifted from the start, exactly as before. Requires Drift != 0 and
	// the scenario's recal_every to be set for detection to ever happen.
	DriftAt float64 `json:"drift_at,omitempty"`
	// Count expands this spec into Count identical machines; 0 means 1,
	// and a negative count is an error.
	Count int `json:"count,omitempty"`
}

// Fleet is a scenario's machine list. In JSON it is either a bare count
// — the homogeneous shorthand "machines": 3, meaning three machines of
// the scenario's machine_profile, exactly the pre-heterogeneity schema
// — or a list of MachineSpecs:
//
//	"machines": [
//	  {"profile": "PC2"},
//	  {"profile": "PC1", "count": 2},
//	  {"profile": "PC1", "drift": 0.5}
//	]
//
// The two forms are spellings of one fleet: "machines": 3 and
// [{"count": 3}] resolve to the same machines, route the same way and
// give byte-equal reports, every machine labeled with its profile.
// Only Labeled tells them apart, for callers that describe the file.
type Fleet struct {
	count int
	specs []MachineSpec
}

// FleetOf returns the homogeneous shorthand fleet: n machines of the
// scenario's machine_profile.
func FleetOf(n int) Fleet { return Fleet{count: n} }

// FleetList returns a fleet written as a list of machine specs.
func FleetList(specs ...MachineSpec) Fleet {
	out := make([]MachineSpec, len(specs))
	copy(out, specs)
	return Fleet{specs: out}
}

// Labeled reports whether the fleet was written as a machine list
// rather than the count shorthand. Nothing in the simulator reads it:
// the two forms run identically.
func (f Fleet) Labeled() bool { return f.specs != nil }

// Size returns the number of machines the fleet expands to.
func (f Fleet) Size() int {
	if f.specs == nil {
		if f.count <= 0 {
			return 1
		}
		return f.count
	}
	n := 0
	for _, spec := range f.specs {
		if spec.Count <= 0 {
			n++
		} else {
			n += spec.Count
		}
	}
	return n
}

// UnmarshalJSON accepts either a bare count or a list of specs. Spec
// fields are strict: a custom Unmarshaler does not inherit the outer
// decoder's DisallowUnknownFields, so unknown keys are rejected here
// explicitly — a typo'd "profle" must not silently become the default
// machine.
func (f *Fleet) UnmarshalJSON(b []byte) error {
	var n int
	if err := json.Unmarshal(b, &n); err == nil {
		*f = Fleet{count: n}
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var specs []MachineSpec
	if err := dec.Decode(&specs); err != nil {
		return fmt.Errorf("machines must be a count or a list of {profile, drift, drift_at, count}: %w", err)
	}
	*f = Fleet{specs: specs}
	return nil
}

// MarshalJSON emits the form the fleet was built in.
func (f Fleet) MarshalJSON() ([]byte, error) {
	if f.specs != nil {
		return json.Marshal(f.specs)
	}
	return json.Marshal(f.count)
}

// resolve expands the fleet into one spec per machine (Count unrolled,
// empty Profiles filled with defaultProfile) and validates every
// profile name, every drift against its bounds and the expanded size
// against maxMachines. The zero Fleet resolves like the old "machines"
// default: one machine of the default profile; a negative count is an
// error.
func (f Fleet) resolve(defaultProfile string) ([]MachineSpec, error) {
	if f.specs == nil {
		n := f.count
		if n < 0 {
			return nil, fmt.Errorf("sim: machines: negative count %d", n)
		}
		if n > maxMachines {
			return nil, fmt.Errorf("sim: machines: %d above the bound of %d", n, maxMachines)
		}
		if n == 0 {
			n = 1
		}
		out := make([]MachineSpec, n)
		for i := range out {
			out[i] = MachineSpec{Profile: defaultProfile, Count: 1}
		}
		return out, nil
	}
	if len(f.specs) == 0 {
		return nil, fmt.Errorf("sim: machine list is empty")
	}
	var out []MachineSpec
	for i, spec := range f.specs {
		if spec.Count < 0 {
			return nil, fmt.Errorf("sim: machine %d: negative count %d", i, spec.Count)
		}
		if spec.Profile == "" {
			spec.Profile = defaultProfile
		}
		if _, err := hardware.ProfileByName(spec.Profile); err != nil {
			return nil, fmt.Errorf("sim: machine %d: %w", i, err)
		}
		if spec.Drift <= -1 {
			return nil, fmt.Errorf("sim: machine %d: drift %g must be above -1", i, spec.Drift)
		}
		if spec.DriftAt < 0 {
			return nil, fmt.Errorf("sim: machine %d: drift_at %g must not be negative", i, spec.DriftAt)
		}
		if spec.DriftAt > 0 && spec.Drift == 0 {
			return nil, fmt.Errorf("sim: machine %d: drift_at %g without drift (nothing to flip to)", i, spec.DriftAt)
		}
		n := max(spec.Count, 1)
		if n > maxMachines-len(out) {
			return nil, fmt.Errorf("sim: machine %d: count %d takes the fleet past %d machines", i, spec.Count, maxMachines)
		}
		one := MachineSpec{Profile: spec.Profile, Drift: spec.Drift, DriftAt: spec.DriftAt, Count: 1}
		for k := 0; k < n; k++ {
			out = append(out, one)
		}
	}
	return out, nil
}

// profileFor materializes the (possibly drifted) hardware profile of
// one resolved machine spec.
func (m MachineSpec) profileFor() (*hardware.Profile, error) {
	p, err := hardware.ProfileByName(m.Profile)
	if err != nil {
		return nil, err
	}
	if m.Drift != 0 {
		return p.WithDrift(m.Drift)
	}
	return p, nil
}
