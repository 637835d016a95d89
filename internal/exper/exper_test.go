package exper

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/workload"
)

// smallSetting keeps unit-test runs fast: tiny DB, few queries.
func smallSetting(b workload.Benchmark, variant core.Variant, sr float64) Setting {
	return Setting{
		Bench:      b,
		DB:         datagen.Uniform1G,
		Machine:    "PC1",
		SR:         sr,
		Variant:    variant,
		NumQueries: 12,
		Seed:       1,
	}
}

func TestRunMicroProducesMetrics(t *testing.T) {
	lab := NewLab()
	res, err := lab.Run(smallSetting(workload.Micro, core.All, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 12 {
		t.Fatalf("outcomes=%d", len(res.Outcomes))
	}
	for _, o := range res.Outcomes {
		if o.Actual <= 0 || o.PredMean <= 0 {
			t.Errorf("%s: actual=%v pred=%v", o.Name, o.Actual, o.PredMean)
		}
		if o.PredSigma < 0 {
			t.Errorf("%s: sigma=%v", o.Name, o.PredSigma)
		}
	}
	if math.IsNaN(res.RS) || math.IsNaN(res.RP) || math.IsNaN(res.Dn) {
		t.Error("NaN metrics")
	}
	if res.MeanOverhead <= 0 || res.MeanOverhead > 1 {
		t.Errorf("overhead=%v", res.MeanOverhead)
	}
}

func TestRunCorrelationPositive(t *testing.T) {
	// With a real mixture of queries the correlation between predicted
	// sigma and actual error should be clearly positive — the paper's
	// headline result (R1).
	lab := NewLab()
	s := smallSetting(workload.SelJoin, core.All, 0.05)
	s.NumQueries = 24
	res, err := lab.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.RS < 0.3 {
		t.Errorf("r_s = %v, want positive correlation", res.RS)
	}
}

func TestRunTPCHWithAggregates(t *testing.T) {
	lab := NewLab()
	res, err := lab.Run(smallSetting(workload.TPCH, core.All, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) == 0 {
		t.Fatal("no outcomes")
	}
	// Selectivity observations exist (scans and joins below aggregates).
	m := computeSelectivityMetrics(res, 0.2)
	if m.NumObs == 0 {
		t.Error("no selectivity observations")
	}
	if m.SelRP < 0.8 {
		t.Errorf("estimated vs actual selectivity r_p = %v, want high", m.SelRP)
	}
}

func TestOverheadGrowsWithSamplingRatio(t *testing.T) {
	lab := NewLab()
	small, err := lab.Run(smallSetting(workload.TPCH, core.All, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	big, err := lab.Run(smallSetting(workload.TPCH, core.All, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if big.MeanOverhead <= small.MeanOverhead {
		t.Errorf("overhead at SR=0.1 (%v) not above SR=0.01 (%v)",
			big.MeanOverhead, small.MeanOverhead)
	}
	if big.MeanOverhead > 0.5 {
		t.Errorf("overhead %v implausibly large", big.MeanOverhead)
	}
}

func TestLabMemoization(t *testing.T) {
	lab := NewLab()
	if _, err := lab.Run(smallSetting(workload.Micro, core.All, 0.05)); err != nil {
		t.Fatal(err)
	}
	if len(lab.bases) != 1 || len(lab.systems) != 1 {
		t.Errorf("bases=%d systems=%d, want 1/1", len(lab.bases), len(lab.systems))
	}
	nMeas := len(lab.meas)
	if nMeas == 0 {
		t.Fatal("measurement cache empty")
	}
	missesAfterFirst := lab.CacheStats().Misses

	// Same DB+machine+SR, different variant: environment, System, and
	// measurements all reused; the ablation cell triggers no fresh
	// sampling passes — it hits the shared estimate cache instead.
	if _, err := lab.Run(smallSetting(workload.Micro, core.NoVarC, 0.05)); err != nil {
		t.Fatal(err)
	}
	if len(lab.bases) != 1 || len(lab.systems) != 1 {
		t.Errorf("bases=%d systems=%d after variant run, want 1/1", len(lab.bases), len(lab.systems))
	}
	if len(lab.meas) != nMeas {
		t.Errorf("variant run re-measured: %d -> %d entries", nMeas, len(lab.meas))
	}
	st := lab.CacheStats()
	if st.Misses != missesAfterFirst {
		t.Errorf("variant run ran %d fresh sampling passes", st.Misses-missesAfterFirst)
	}
	if st.Hits == 0 {
		t.Error("no cross-variant cache hits")
	}

	// A different sampling ratio derives a new System from the same base
	// environment (no second Open).
	if _, err := lab.Run(smallSetting(workload.Micro, core.All, 0.02)); err != nil {
		t.Fatal(err)
	}
	if len(lab.bases) != 1 {
		t.Errorf("bases=%d after SR change, want 1", len(lab.bases))
	}
	if len(lab.systems) != 2 {
		t.Errorf("systems=%d after SR change, want 2", len(lab.systems))
	}
}

// TestMeasurementsNotSharedAcrossWorkloadSizes pins the measKey
// contract: Micro query content depends on the workload size, so a
// same-named query from a different-sized run on the same Lab must be
// re-measured, not served from the memo.
func TestMeasurementsNotSharedAcrossWorkloadSizes(t *testing.T) {
	shared := NewLab()
	small := smallSetting(workload.Micro, core.All, 0.05)
	big := small
	big.NumQueries = 24
	if _, err := shared.Run(small); err != nil {
		t.Fatal(err)
	}
	got, err := shared.Run(big)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewLab().Run(big)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Outcomes {
		g, w := got.Outcomes[i], want.Outcomes[i]
		if g.Name != w.Name || g.Actual != w.Actual || g.SampleCost != w.SampleCost {
			t.Errorf("outcome %d (%s) served stale measurement: %+v vs fresh %+v",
				i, w.Name, g, w)
		}
	}
}

// TestRunGridMatchesSerial fans an ablation grid out over a worker pool
// and checks the cells against a serial Run loop on a fresh lab — the
// per-cell seed contract: interleaving cannot change the numbers.
func TestRunGridMatchesSerial(t *testing.T) {
	settings := []Setting{
		smallSetting(workload.Micro, core.All, 0.05),
		smallSetting(workload.Micro, core.NoVarC, 0.05),
		smallSetting(workload.SelJoin, core.All, 0.05),
		smallSetting(workload.SelJoin, core.NoCov, 0.02),
	}
	grid, err := NewLab().RunGrid(settings, 4)
	if err != nil {
		t.Fatal(err)
	}
	serialLab := NewLab()
	eq := func(x, y float64) bool {
		return math.Abs(x-y) <= 1e-12*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	}
	for i, s := range settings {
		serial, err := serialLab.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		g := grid[i]
		if len(g.Outcomes) != len(serial.Outcomes) {
			t.Fatalf("cell %d: %d vs %d outcomes", i, len(g.Outcomes), len(serial.Outcomes))
		}
		for j := range g.Outcomes {
			a, b := g.Outcomes[j], serial.Outcomes[j]
			if a.Name != b.Name || a.Actual != b.Actual ||
				!eq(a.PredMean, b.PredMean) || !eq(a.PredSigma, b.PredSigma) {
				t.Errorf("cell %d query %d differs: %+v vs %+v", i, j, a, b)
			}
		}
		if !eq(g.RS, serial.RS) || !eq(g.RP, serial.RP) || !eq(g.Dn, serial.Dn) {
			t.Errorf("cell %d metrics differ: (%v,%v,%v) vs (%v,%v,%v)",
				i, g.RS, g.RP, g.Dn, serial.RS, serial.RP, serial.Dn)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := NewLab().Run(smallSetting(workload.SelJoin, core.All, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLab().Run(smallSetting(workload.SelJoin, core.All, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	// Map-iteration order inside the covariance engine permutes float
	// products, so equality holds only up to roundoff.
	eq := func(x, y float64) bool {
		return math.Abs(x-y) <= 1e-12*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	}
	if !eq(a.RS, b.RS) || !eq(a.RP, b.RP) || !eq(a.Dn, b.Dn) {
		t.Errorf("metrics differ: (%v,%v,%v) vs (%v,%v,%v)",
			a.RS, a.RP, a.Dn, b.RS, b.RP, b.Dn)
	}
}

func TestSelectivityMetricsThreshold(t *testing.T) {
	lab := NewLab()
	res, err := lab.Run(smallSetting(workload.SelJoin, core.All, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	m := computeSelectivityMetrics(res, 0.2)
	if m.NumLargeErrObs > m.NumObs {
		t.Errorf("large-error obs %d > total %d", m.NumLargeErrObs, m.NumObs)
	}
	if m.MeanRelErr < 0 {
		t.Errorf("mean relative error %v", m.MeanRelErr)
	}
}

func TestVariantsShareEnvAndDiffer(t *testing.T) {
	lab := NewLab()
	all, err := lab.Run(smallSetting(workload.TPCH, core.All, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	noc, err := lab.Run(smallSetting(workload.TPCH, core.NoVarC, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	// Dropping Var[c] must shrink the average predicted sigma.
	var sAll, sNoC float64
	for i := range all.Outcomes {
		sAll += all.Outcomes[i].PredSigma
		sNoC += noc.Outcomes[i].PredSigma
	}
	if sNoC >= sAll {
		t.Errorf("NoVar[c] sigma sum %v not below All %v", sNoC, sAll)
	}
}

func TestSettingString(t *testing.T) {
	s := smallSetting(workload.Micro, core.All, 0.05)
	if s.String() == "" {
		t.Error("empty setting string")
	}
}
