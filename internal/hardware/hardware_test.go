package hardware

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/stats"
)

func TestProfilesDistinct(t *testing.T) {
	p1, p2 := PC1(), PC2()
	if p1.Name != "PC1" || p2.Name != "PC2" {
		t.Fatal("profile names wrong")
	}
	// PC2 is the faster machine: every unit mean strictly cheaper.
	for i := 0; i < NumUnits; i++ {
		if p2.True[i].Mu >= p1.True[i].Mu {
			t.Errorf("unit %v: PC2 mean %v >= PC1 mean %v",
				Unit(i), p2.True[i].Mu, p1.True[i].Mu)
		}
	}
}

func TestProfileByName(t *testing.T) {
	for _, n := range []string{"PC1", "PC2"} {
		p, err := ProfileByName(n)
		if err != nil || p.Name != n {
			t.Errorf("ProfileByName(%s) = %v, %v", n, p, err)
		}
	}
	if _, err := ProfileByName("PC3"); err == nil {
		t.Error("expected error for unknown profile")
	}
}

func TestOperatorTimePositiveAndScales(t *testing.T) {
	p := PC1()
	r := rand.New(rand.NewSource(1))
	small := engine.Counts{NT: 100}
	big := engine.Counts{NT: 100000}
	var sSum, bSum float64
	for i := 0; i < 200; i++ {
		s, b := p.OperatorTime(small, r), p.OperatorTime(big, r)
		if s <= 0 || b <= 0 {
			t.Fatal("non-positive operator time")
		}
		sSum += s
		bSum += b
	}
	if bSum/sSum < 500 || bSum/sSum > 2000 {
		t.Errorf("scaling ratio %v, want ~1000", bSum/sSum)
	}
}

func TestOperatorTimeMeanMatchesModel(t *testing.T) {
	// E[t] = exp(sigma_g^2/2) * sum n_c mu_c for lognormal model error.
	p := PC2()
	r := rand.New(rand.NewSource(2))
	counts := engine.Counts{NS: 50, NR: 10, NT: 5000, NI: 100, NO: 2000}
	const iters = 200000
	var sum float64
	for i := 0; i < iters; i++ {
		sum += p.OperatorTime(counts, r)
	}
	got := sum / iters
	want := p.ExpectedCost(counts) * math.Exp(p.ModelErrSigma*p.ModelErrSigma/2)
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("mean operator time %v, want %v", got, want)
	}
}

func TestMeasurePlanAveragesRuns(t *testing.T) {
	p := PC1()
	db := engine.NewDB()
	tab := engine.NewTable("t", []string{"x"}, 1000)
	for i := range 1000 {
		tab.Data[0][i] = int64(i)
	}
	db.Add(tab)
	plan := &engine.Node{Kind: engine.SeqScan, Table: "t"}
	plan.Finalize()
	res, err := engine.Run(db, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Averaging must reduce variance vs a single run.
	r1 := rand.New(rand.NewSource(3))
	r2 := rand.New(rand.NewSource(3))
	var singles, averaged []float64
	for i := 0; i < 300; i++ {
		singles = append(singles, p.planTime(res, r1))
		averaged = append(averaged, p.measurePlan(res, r2))
	}
	vs, va := stats.Variance(singles), stats.Variance(averaged)
	if va >= vs {
		t.Errorf("averaged variance %v not below single-run variance %v", va, vs)
	}
}

func TestExpectedCostDeterministic(t *testing.T) {
	p := PC1()
	counts := engine.Counts{NS: 10, NT: 1000}
	want := 10*p.True[CS].Mu + 1000*p.True[CT].Mu
	if got := p.ExpectedCost(counts); math.Abs(got-want) > 1e-15 {
		t.Errorf("ExpectedCost = %v, want %v", got, want)
	}
}

func TestUnitStrings(t *testing.T) {
	want := []string{"cs", "cr", "ct", "ci", "co"}
	for i, u := range Units {
		if u.String() != want[i] {
			t.Errorf("unit %d = %s, want %s", i, u, want[i])
		}
	}
}
