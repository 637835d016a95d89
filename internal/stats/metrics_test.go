package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPearsonPerfectLinear(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almostEq(got, 1, 1e-12) {
		t.Errorf("Pearson = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEq(got, -1, 1e-12) {
		t.Errorf("Pearson = %v, want -1", got)
	}
}

func TestPearsonConstantSeries(t *testing.T) {
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("Pearson with constant xs = %v, want 0", got)
	}
}

func TestRanksWithTies(t *testing.T) {
	got := ranks([]float64{4, 7, 5, 5, 1})
	want := []float64{2, 5, 3.5, 3.5, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", got, want)
		}
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Any strictly increasing transform gives r_s = 1 even when r_p < 1.
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x)
	}
	if got := Spearman(xs, ys); !almostEq(got, 1, 1e-12) {
		t.Errorf("Spearman on monotone data = %v, want 1", got)
	}
	if got := Pearson(xs, ys); got >= 0.999 {
		t.Errorf("Pearson on convex data = %v, expected < 0.999", got)
	}
}

func TestSpearmanOutlierRobustness(t *testing.T) {
	// Reproduces the Figure 3 observation: a single extreme outlier moves
	// r_p far more than r_s.
	r := rand.New(rand.NewSource(42))
	n := 60
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = r.Float64() * 3
		ys[i] = 1.5*xs[i] + r.NormFloat64()*0.3
	}
	rs0, rp0 := Spearman(xs, ys), Pearson(xs, ys)
	xs = append(xs, 50)
	ys = append(ys, 8) // leverage point far off the trend
	rs1, rp1 := Spearman(xs, ys), Pearson(xs, ys)
	if math.Abs(rs1-rs0) >= math.Abs(rp1-rp0) {
		t.Errorf("expected r_s (Δ=%v) more robust than r_p (Δ=%v)",
			math.Abs(rs1-rs0), math.Abs(rp1-rp0))
	}
}

func TestSpearmanInvariantUnderMonotoneTransform(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = r.NormFloat64()
		}
		base := Spearman(xs, ys)
		tx := make([]float64, n)
		for i, x := range xs {
			tx[i] = math.Atan(x) * 100 // strictly increasing
		}
		return almostEq(Spearman(tx, ys), base, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrAlpha(t *testing.T) {
	if got := prAlpha(1.959963984540054); !almostEq(got, 0.95, 1e-9) {
		t.Errorf("prAlpha(1.96) = %v, want 0.95", got)
	}
	if got := prAlpha(0); got != 0 {
		t.Errorf("prAlpha(0) = %v, want 0", got)
	}
}

func TestDnPerfectCalibration(t *testing.T) {
	// If normalized errors really are |N(0,1)| draws, Dn should be small.
	r := rand.New(rand.NewSource(9))
	errs := make([]float64, 20000)
	for i := range errs {
		errs[i] = math.Abs(r.NormFloat64())
	}
	if got := Dn(errs, nil); got > 0.02 {
		t.Errorf("Dn on calibrated errors = %v, want < 0.02", got)
	}
}

func TestDnOverconfidentModel(t *testing.T) {
	// If sigmas are 3x too small, normalized errors are |N(0,3)| and Dn
	// should be substantially larger than the calibrated case.
	r := rand.New(rand.NewSource(9))
	errs := make([]float64, 20000)
	for i := range errs {
		errs[i] = math.Abs(3 * r.NormFloat64())
	}
	if got := Dn(errs, nil); got < 0.15 {
		t.Errorf("Dn on overconfident errors = %v, want >= 0.15", got)
	}
}

func TestNormalizedErrors(t *testing.T) {
	ne := NormalizedErrors([]float64{10, 5, 3}, []float64{8, 5, 3}, []float64{2, 0, 0})
	if ne[0] != 1 || ne[1] != 0 || ne[2] != 0 {
		t.Errorf("NormalizedErrors = %v", ne)
	}
	inf := NormalizedErrors([]float64{10}, []float64{8}, []float64{0})
	if !math.IsInf(inf[0], 1) {
		t.Errorf("expected +Inf for zero sigma with error, got %v", inf[0])
	}
}

func TestBestFitLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	slope, icpt := BestFitLine(xs, ys)
	if !almostEq(slope, 2, 1e-12) || !almostEq(icpt, 1, 1e-12) {
		t.Errorf("BestFitLine = %v, %v", slope, icpt)
	}
}

func TestMeanVarMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
		m, v := MeanVar(xs)
		return almostEq(m, Mean(xs), 1e-9) && almostEq(v, Variance(xs), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDnCurveShape(t *testing.T) {
	errs := []float64{0.5, 1.5, 2.5}
	emp, model := DnCurve(errs, []float64{1, 2, 3})
	wantEmp := []float64{1.0 / 3, 2.0 / 3, 1}
	for i := range emp {
		if !almostEq(emp[i], wantEmp[i], 1e-12) {
			t.Errorf("empirical[%d] = %v, want %v", i, emp[i], wantEmp[i])
		}
		if model[i] <= 0 || model[i] >= 1 {
			t.Errorf("model[%d] = %v out of (0,1)", i, model[i])
		}
	}
}
