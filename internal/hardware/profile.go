package hardware

// Profiles as data: the JSON Spec a Profile is constructible from, the
// name registry behind ProfileByName, and WithDrift, which derives a
// drifted machine from a base one for heterogeneous fleets.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/stats"
)

// UnitSpec describes one cost unit's true distribution in a Spec. Mean
// is in seconds per operation; the spread is given either as Sigma
// (seconds, exact) or as CV, the coefficient of variation sigma/mean.
// When both are set, Sigma wins.
type UnitSpec struct {
	Mean  float64 `json:"mean"`
	CV    float64 `json:"cv,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
}

// Spec is the JSON-loadable description of a Profile: one UnitSpec per
// cost unit, keyed by unit name (cs, cr, ct, ci, co), plus the
// model-error sigma. The preset profiles PC1 and PC2 are themselves
// defined as Specs.
type Spec struct {
	Name          string              `json:"name"`
	Units         map[string]UnitSpec `json:"units"`
	ModelErrSigma float64             `json:"model_err_sigma"`
}

// unitByName maps the spec keys back to unit indexes.
func unitByName(name string) (Unit, bool) {
	for _, u := range Units {
		if u.String() == name {
			return u, true
		}
	}
	return 0, false
}

// FromSpec constructs a Profile from its data description, validating
// that every cost unit is present exactly once with a positive mean and
// a nonnegative spread.
func FromSpec(sp Spec) (*Profile, error) {
	if sp.Name == "" {
		return nil, fmt.Errorf("hardware: profile spec has no name")
	}
	if len(sp.Units) != NumUnits {
		return nil, fmt.Errorf("hardware: profile %q specifies %d units, want all %d (cs, cr, ct, ci, co)",
			sp.Name, len(sp.Units), NumUnits)
	}
	if sp.ModelErrSigma < 0 {
		return nil, fmt.Errorf("hardware: profile %q: negative model-error sigma %g", sp.Name, sp.ModelErrSigma)
	}
	p := &Profile{Name: sp.Name, ModelErrSigma: sp.ModelErrSigma}
	for name, us := range sp.Units {
		u, ok := unitByName(name)
		if !ok {
			return nil, fmt.Errorf("hardware: profile %q: unknown cost unit %q (want cs, cr, ct, ci, or co)", sp.Name, name)
		}
		if us.Mean <= 0 {
			return nil, fmt.Errorf("hardware: profile %q: unit %s mean %g must be positive", sp.Name, name, us.Mean)
		}
		sigma := us.Sigma
		if sigma == 0 {
			sigma = us.CV * us.Mean
		}
		if sigma < 0 {
			return nil, fmt.Errorf("hardware: profile %q: unit %s has negative spread", sp.Name, name)
		}
		p.True[u] = stats.Normal{Mu: us.Mean, Sigma: sigma}
	}
	return p, nil
}

// mustFromSpec builds a preset; preset specs are package constants, so
// a failure is a programming error.
func mustFromSpec(sp Spec) *Profile {
	p, err := FromSpec(sp)
	if err != nil {
		panic(err)
	}
	return p
}

// ParseProfile constructs a Profile from its JSON Spec, rejecting
// unknown fields.
func ParseProfile(data []byte) (*Profile, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("hardware: parse profile: %w", err)
	}
	return FromSpec(sp)
}

// Spec returns the data description of the profile: the value that,
// fed back through FromSpec, reconstructs it exactly (spreads are
// reported as exact Sigmas).
func (p *Profile) Spec() Spec {
	sp := Spec{Name: p.Name, Units: make(map[string]UnitSpec, NumUnits), ModelErrSigma: p.ModelErrSigma}
	for _, u := range Units {
		d := p.True[u]
		sp.Units[u.String()] = UnitSpec{Mean: d.Mu, Sigma: d.Sigma}
	}
	return sp
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

// ---------------------------------------------------------------------
// The profile registry.

var (
	registryMu sync.RWMutex
	registry   = map[string]*Profile{
		"PC1": PC1(),
		"PC2": PC2(),
	}
)

// Register adds a profile to the registry under its Name, making it
// resolvable by ProfileByName (e.g. for scenario files referencing
// custom machines). Registering a name twice, or one of the presets,
// is an error.
func Register(p *Profile) error {
	if p == nil {
		return fmt.Errorf("hardware: register nil profile")
	}
	if p.Name == "" {
		return fmt.Errorf("hardware: register profile with no name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, ok := registry[p.Name]; ok {
		return fmt.Errorf("hardware: profile %q already registered", p.Name)
	}
	cp := *p
	registry[p.Name] = &cp
	return nil
}

// RegisteredProfiles returns the registered profile names in sorted
// order — the vocabulary configuration errors cite.
func RegisteredProfiles() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ProfileByName resolves a registered profile name to a copy of its
// profile (presets PC1 and PC2 are always registered). Unknown names
// report the registered vocabulary.
func ProfileByName(name string) (*Profile, error) {
	registryMu.RLock()
	p, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("hardware: unknown profile %q (registered: %s)",
			name, strings.Join(RegisteredProfiles(), ", "))
	}
	cp := *p
	return &cp, nil
}
