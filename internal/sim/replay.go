package sim

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// Counterfactual replay: re-run a scenario's exact arrival sequence
// with ONE policy knob swapped, and attribute the outcome difference to
// individual decisions. Determinism makes this sound — same scenario +
// seed reproduces the identical arrival sequence, so every divergence
// between the two traces is caused by the overridden knob, not noise.

// Override is one policy knob to swap for a replay. Exactly the set
// fields are applied; at least one must be set.
type Override struct {
	// Router replaces the scenario's placement policy ("round-robin",
	// "least-queue", "least-risk", "least-risk-shared").
	Router string `json:"router,omitempty"`
	// QueuePolicy replaces the per-machine drain-order policy.
	QueuePolicy string `json:"queue_policy,omitempty"`
	// SLOConfidence replaces every tenant's admission confidence
	// threshold (0 leaves them untouched).
	SLOConfidence float64 `json:"slo_confidence,omitempty"`
	// RecalEvery replaces the automatic recalibration cadence; nil
	// leaves it untouched (a pointer so "disable it" — zero — is
	// expressible).
	RecalEvery *float64 `json:"recal_every,omitempty"`
}

func (ov Override) empty() bool {
	return ov.Router == "" && ov.QueuePolicy == "" && ov.SLOConfidence == 0 && ov.RecalEvery == nil
}

// apply returns a deep-enough copy of sc with the override in effect.
func (ov Override) apply(sc Scenario) Scenario {
	if ov.Router != "" {
		sc.Router = ov.Router
	}
	if ov.QueuePolicy != "" {
		sc.QueuePolicy = ov.QueuePolicy
	}
	if ov.SLOConfidence != 0 {
		tenants := append([]TenantSpec(nil), sc.Tenants...)
		for i := range tenants {
			tenants[i].SLO.Confidence = ov.SLOConfidence
		}
		sc.Tenants = tenants
	}
	if ov.RecalEvery != nil {
		sc.RecalEvery = *ov.RecalEvery
	}
	return sc
}

// describe names the swapped knobs, e.g. "router: least-risk -> least-queue".
func (ov Override) describe(base Scenario) string {
	var parts []string
	if ov.Router != "" {
		parts = append(parts, fmt.Sprintf("router: %s -> %s", base.Router, ov.Router))
	}
	if ov.QueuePolicy != "" {
		parts = append(parts, fmt.Sprintf("queue_policy: %s -> %s", base.QueuePolicy, ov.QueuePolicy))
	}
	if ov.SLOConfidence != 0 {
		parts = append(parts, fmt.Sprintf("slo_confidence -> %g", ov.SLOConfidence))
	}
	if ov.RecalEvery != nil {
		parts = append(parts, fmt.Sprintf("recal_every: %g -> %g", base.RecalEvery, *ov.RecalEvery))
	}
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}

// Divergence is the first decision where the two runs disagreed: the
// same positional decision (placements and admissions compared in
// deterministic order) with different outcomes.
type Divergence struct {
	// Index is the position in the decision subsequence (placements +
	// admissions, in trace order) where the runs split.
	Index int `json:"index"`
	// Base and Variant are the differing decision events.
	Base    trace.Event `json:"base"`
	Variant trace.Event `json:"variant"`
}

// TenantDelta is one tenant's attainment under both runs, reconstructed
// from the traces alone (not the reports) — the point of the exercise:
// the decision log carries enough to re-derive the outcome.
type TenantDelta struct {
	Tenant string `json:"tenant"`
	// Base/Variant tally the tenant's admissions and outcomes in each
	// trace; Delta = Variant.Attainment() - Base.Attainment().
	Base    trace.Tally `json:"base"`
	Variant trace.Tally `json:"variant"`
	Delta   float64     `json:"delta"`
}

// ReplayResult is a counterfactual comparison of two runs of the same
// arrival sequence under different policy knobs.
type ReplayResult struct {
	// Override describes the swapped knobs.
	Override string `json:"override"`
	// BaseReport/VariantReport are the two runs' full reports (each with
	// its own Fitness).
	BaseReport    *Report `json:"base_report"`
	VariantReport *Report `json:"variant_report"`
	// Base/Variant are the two Full-level traces.
	Base    []trace.Event `json:"-"`
	Variant []trace.Event `json:"-"`
	// Decisions counts the compared decision events (min of the two
	// runs' decision counts); Diverged how many of them differ.
	Decisions int `json:"decisions"`
	Diverged  int `json:"diverged"`
	// First is the earliest differing decision, nil when the runs made
	// identical decisions throughout.
	First *Divergence `json:"first,omitempty"`
	// Tenants holds per-tenant attainment deltas derived from the
	// traces, sorted by tenant name.
	Tenants []TenantDelta `json:"tenants"`
}

// runRecorded runs sc with a fresh trace.Buffer at level as its decision
// trace sink and returns what it recorded.
func runRecorded(sc Scenario, level trace.Level) (*Report, []trace.Event, error) {
	buf := trace.NewBuffer(level)
	rep, err := Run(sc, WithTrace(buf))
	return rep, buf.Events(), err
}

// Replay runs the scenario twice at trace level Full — once as-is (or
// reusing baseEvents from a prior Full-level WithTrace run, to skip
// recording the base trace again), once with the override applied — and
// diffs the two decision streams. Both runs see the identical arrival
// sequence (same scenario, same seed), so the diff isolates exactly
// what the overridden knob changed: which placements moved, which
// admissions flipped, and what that did to each tenant's attainment.
func Replay(sc Scenario, baseEvents []trace.Event, ov Override) (*ReplayResult, error) {
	if ov.empty() {
		return nil, fmt.Errorf("sim: replay override sets no knobs")
	}
	var baseRep *Report
	var err error
	if baseEvents == nil {
		baseRep, baseEvents, err = runRecorded(sc, trace.Full)
	} else {
		// A trace is not a report, so the base runs even when its events
		// are supplied; callers who already hold the base report can
		// ignore this one — determinism makes it identical.
		baseRep, err = Run(sc)
	}
	if err != nil {
		return nil, fmt.Errorf("sim: replay base run: %w", err)
	}
	varRep, varEvents, err := runRecorded(ov.apply(sc), trace.Full)
	if err != nil {
		return nil, fmt.Errorf("sim: replay variant run: %w", err)
	}

	res := &ReplayResult{
		Override:      ov.describe(sc),
		BaseReport:    baseRep,
		VariantReport: varRep,
		Base:          baseEvents,
		Variant:       varEvents,
	}
	res.diffDecisions()
	res.diffTenants()
	return res, nil
}

// decisionEvents filters a trace down to the decision subsequence —
// placements and admissions in trace order — the positionally
// comparable part of two runs over the same arrivals.
func decisionEvents(events []trace.Event) []*trace.Event {
	out := make([]*trace.Event, 0, len(events))
	for i := range events {
		switch events[i].Kind {
		case trace.KindPlacement, trace.KindAdmission:
			out = append(out, &events[i])
		}
	}
	return out
}

// decisionsDiffer reports whether two positionally matched decision
// events disagree: a placement choosing a different machine (or a
// different tie-break path), or an admission reaching a different
// verdict.
func decisionsDiffer(a, b *trace.Event) bool {
	if a.Kind != b.Kind || a.Tenant != b.Tenant || a.Query != b.Query {
		return true
	}
	switch a.Kind {
	case trace.KindPlacement:
		return a.Machine != b.Machine
	case trace.KindAdmission:
		return a.Verdict != b.Verdict || a.Machine != b.Machine
	}
	return false
}

func (r *ReplayResult) diffDecisions() {
	base := decisionEvents(r.Base)
	variant := decisionEvents(r.Variant)
	n := len(base)
	if len(variant) < n {
		n = len(variant)
	}
	r.Decisions = n
	for i := 0; i < n; i++ {
		if decisionsDiffer(base[i], variant[i]) {
			r.Diverged++
			if r.First == nil {
				r.First = &Divergence{Index: i, Base: *base[i], Variant: *variant[i]}
			}
		}
	}
	// Length mismatch (one run admitted work the other never saw, e.g.
	// after an admission flip) counts the tail as divergent.
	if extra := len(base) + len(variant) - 2*n; extra > 0 {
		r.Diverged += extra
		if r.First == nil && n < len(base) {
			r.First = &Divergence{Index: n, Base: *base[n]}
		} else if r.First == nil && n < len(variant) {
			r.First = &Divergence{Index: n, Variant: *variant[n]}
		}
	}
}

func (r *ReplayResult) diffTenants() {
	base := trace.TallyByTenant(r.Base)
	variant := trace.TallyByTenant(r.Variant)
	names := make(map[string]bool, len(base))
	for name := range base {
		names[name] = true
	}
	for name := range variant {
		names[name] = true
	}
	r.Tenants = make([]TenantDelta, 0, len(names))
	for name := range names {
		b, v := base[name], variant[name]
		r.Tenants = append(r.Tenants, TenantDelta{
			Tenant: name, Base: b, Variant: v,
			Delta: v.Attainment() - b.Attainment(),
		})
	}
	sort.Slice(r.Tenants, func(i, j int) bool { return r.Tenants[i].Tenant < r.Tenants[j].Tenant })
}
