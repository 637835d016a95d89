package sim

import (
	"math"
	"testing"

	uaqetp "repro"
	"repro/internal/stats"
)

func TestJainIndexEdges(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty is fair", nil, 1},
		{"all zero is fair", []float64{0, 0, 0}, 1},
		{"equal is fair", []float64{0.7, 0.7, 0.7, 0.7}, 1},
		{"single taker is 1/n", []float64{1, 0, 0, 0}, 0.25},
		// (1+0.5)^2 / (2 * (1 + 0.25)) = 2.25/2.5.
		{"known two-point value", []float64{1, 0.5}, 0.9},
	}
	for _, c := range cases {
		if got := stats.JainIndex(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: stats.JainIndex(%v) = %v, want %v", c.name, c.xs, got, c.want)
		}
	}
	// The index is scale-invariant: doubling every allocation changes
	// nothing about its fairness.
	a := stats.JainIndex([]float64{0.2, 0.4, 0.8})
	b := stats.JainIndex([]float64{0.4, 0.8, 1.6})
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("JainIndex not scale-invariant: %v vs %v", a, b)
	}
	if a <= 1.0/3 || a >= 1 {
		t.Errorf("unequal allocation index %v outside (1/n, 1)", a)
	}
}

func TestComputeFitnessFromReport(t *testing.T) {
	rep := &Report{
		SLOAttainment: 0.8,
		Latency:       Quantiles{P50: 0.2, P95: 0.9, P99: 1.4},
		Tenants: []TenantReport{
			{Name: "gold", SLOAttainment: 1.0},
			{Name: "bronze", SLOAttainment: 0.5},
		},
		PerMachine: []MachineReport{
			{Utilization: 0.6},
			{Utilization: 0.4},
		},
		Cache: uaqetp.CacheStats{Hits: 30, Misses: 10, SubtreeHits: 10, RunHits: 10, RunMisses: 10},
	}
	w := DefaultFitnessWeights()
	f := ComputeFitness(rep, w)

	if f.Attainment != 0.8 || f.LatencyP50 != 0.2 || f.LatencyP95 != 0.9 || f.LatencyP99 != 1.4 {
		t.Fatalf("components not copied from report: %+v", f)
	}
	if want := stats.JainIndex([]float64{1.0, 0.5}); math.Abs(f.Fairness-want) > 1e-12 {
		t.Errorf("fairness = %v, want %v", f.Fairness, want)
	}
	if math.Abs(f.Utilization-0.5) > 1e-12 {
		t.Errorf("utilization = %v, want 0.5", f.Utilization)
	}
	// 50 hits over 70 lookups across the three cache sections.
	if want := 50.0 / 70.0; math.Abs(f.CacheEconomy-want) > 1e-12 {
		t.Errorf("cache economy = %v, want %v", f.CacheEconomy, want)
	}
	want := w.Attainment*f.Attainment + w.Fairness*f.Fairness +
		w.Utilization*f.Utilization + w.CacheEconomy*f.CacheEconomy -
		w.LatencyPenalty*f.LatencyP95
	if math.Abs(f.Score-want) > 1e-12 {
		t.Errorf("score = %v, want %v", f.Score, want)
	}
	if f.Weights != w {
		t.Errorf("weights not recorded: %+v", f.Weights)
	}

	// Re-weighing the same components changes only the scalar: an
	// attainment-only weighting scores exactly the attainment.
	only := ComputeFitness(rep, FitnessWeights{Attainment: 1})
	if math.Abs(only.Score-0.8) > 1e-12 {
		t.Errorf("attainment-only score = %v, want 0.8", only.Score)
	}

	// Empty report degenerates gracefully: no machines, no lookups, no
	// tenants — fair by convention, everything else zero.
	empty := ComputeFitness(&Report{}, w)
	if empty.Fairness != 1 || empty.Utilization != 0 || empty.CacheEconomy != 0 {
		t.Errorf("empty-report fitness = %+v", empty)
	}
}

func TestRunReportsCarryFitness(t *testing.T) {
	rep, err := Run(testScenario())
	if err != nil {
		t.Fatal(err)
	}
	recomputed := ComputeFitness(rep, DefaultFitnessWeights())
	if rep.Fitness != recomputed {
		t.Errorf("report fitness %+v != recomputed %+v", rep.Fitness, recomputed)
	}
	if rep.Fitness.Attainment != rep.SLOAttainment {
		t.Errorf("fitness attainment %v != report attainment %v",
			rep.Fitness.Attainment, rep.SLOAttainment)
	}
}
