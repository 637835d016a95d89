// Package calibrate implements the cost-unit calibration framework of
// the paper's prior work [48], extended per Section 3.1 to estimate
// variances as well as means: each cost unit gets dedicated calibration
// queries whose resource profiles isolate it (given units already
// calibrated), the queries are run repeatedly on the hardware, and the
// observed per-run unit values are treated as i.i.d. samples of the unit
// distribution, summarized by their sample mean and variance.
//
// The calibration order is triangular — ct from an in-memory scan, then
// cs from a cold sequential scan (subtracting the known ct work), ci
// from an in-memory index scan, cr from a cold index scan, and co from
// an in-memory sort — mirroring Example 3.
package calibrate

import (
	"math"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/stats"
)

// tableSizes are the row counts of the calibration relations; using
// several sizes gives independent observations like the paper's
// "different R's" (Example 3).
var tableSizes = [...]int{2000, 5000, 10000, 20000, 50000}

// repetitions is the number of runs per (query, size) pair.
const repetitions = 12

// Config controls the calibration procedure: the seed of its run-to-run
// noise. The relation sizes and the repetition count are fixed.
type Config struct {
	Seed int64
}

// DefaultConfig is the calibration run seeded by seed.
func DefaultConfig(seed int64) Config { return Config{Seed: seed} }

// Result holds the calibrated distribution of each cost unit and the raw
// per-run observations behind it.
type Result struct {
	Units        [hardware.NumUnits]stats.Normal
	Observations [hardware.NumUnits][]float64
}

// Dist returns the calibrated distribution of unit u.
func (r *Result) Dist(u hardware.Unit) stats.Normal { return r.Units[u] }

// Run calibrates all five cost units against the given hardware
// profile. It cannot fail; the error result is kept for its callers.
func Run(p *hardware.Profile, cfg Config) (*Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Result{}

	observe := func(counts engine.Counts) float64 {
		return p.OperatorTime(counts, rng)
	}

	// Q1 — in-memory sequential scan: tau = nt*ct (pages cached: ns = 0).
	for _, n := range tableSizes {
		nt := float64(n)
		for rep := 0; rep < repetitions; rep++ {
			tau := observe(engine.Counts{NT: nt})
			res.Observations[hardware.CT] = append(res.Observations[hardware.CT], tau/nt)
		}
	}
	ctHat := summarize(res, hardware.CT)

	// Q2 — cold sequential scan: tau = ns*cs + nt*ct.
	for _, n := range tableSizes {
		nt := float64(n)
		ns := math.Ceil(nt / engine.TuplesPerPage)
		for rep := 0; rep < repetitions; rep++ {
			tau := observe(engine.Counts{NS: ns, NT: nt})
			cs := (tau - nt*ctHat.Mu) / ns
			res.Observations[hardware.CS] = append(res.Observations[hardware.CS], cs)
		}
	}
	summarize(res, hardware.CS)

	// Q3 — in-memory full index scan: tau = nt*ct + ni*ci.
	for _, n := range tableSizes {
		nt := float64(n)
		for rep := 0; rep < repetitions; rep++ {
			tau := observe(engine.Counts{NT: nt, NI: nt})
			ci := (tau - nt*ctHat.Mu) / nt
			res.Observations[hardware.CI] = append(res.Observations[hardware.CI], ci)
		}
	}
	ciHat := summarize(res, hardware.CI)

	// Q4 — cold index scan: tau = nr*cr + nt*ct + ni*ci.
	for _, n := range tableSizes {
		m := float64(n)
		for rep := 0; rep < repetitions; rep++ {
			tau := observe(engine.Counts{NR: m, NT: m, NI: m})
			cr := (tau - m*ctHat.Mu - m*ciHat.Mu) / m
			res.Observations[hardware.CR] = append(res.Observations[hardware.CR], cr)
		}
	}
	summarize(res, hardware.CR)

	// Q5 — in-memory sort: tau = nt*ct + no*co with no = n*log2(n).
	for _, n := range tableSizes {
		nt := float64(n)
		no := nt * math.Log2(math.Max(nt, 2))
		for rep := 0; rep < repetitions; rep++ {
			tau := observe(engine.Counts{NT: nt, NO: no})
			co := (tau - nt*ctHat.Mu) / no
			res.Observations[hardware.CO] = append(res.Observations[hardware.CO], co)
		}
	}
	summarize(res, hardware.CO)

	return res, nil
}

// summarize computes the sample mean and variance of a unit's
// observations and stores the fitted normal, clamping the mean at a tiny
// positive floor (a cost unit cannot be negative).
func summarize(res *Result, u hardware.Unit) stats.Normal {
	mean, variance := stats.MeanVar(res.Observations[u])
	if mean < 1e-12 {
		mean = 1e-12
	}
	n := stats.NormalFromVar(mean, variance)
	res.Units[u] = n
	return n
}
