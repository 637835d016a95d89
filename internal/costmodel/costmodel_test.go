package costmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/stats"
)

func almostEq(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m
}

// env builds a two-table db, catalog, and a finalized join plan.
func env(t *testing.T) (*engine.DB, *catalog.Catalog, *engine.Node) {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	mk := func(name string, cols []string, n, dom int) *engine.Table {
		t := engine.NewTable(name, cols, n)
		for i := range n {
			t.Data[0][i] = int64(i)
			for j := 1; j < len(cols); j++ {
				t.Data[j][i] = int64(r.Intn(dom))
			}
		}
		return t
	}
	db := engine.NewDB()
	db.Add(mk("r", []string{"a", "b"}, 5000, 50))
	db.Add(mk("s", []string{"c", "d"}, 3000, 50))
	plan := &engine.Node{
		Kind: engine.HashJoin, LeftCol: "b", RightCol: "d",
		Left: &engine.Node{Kind: engine.IndexScan, Table: "r",
			Preds: []engine.Predicate{{Col: "b", Op: engine.Lt, Lo: 5}}},
		Right: &engine.Node{Kind: engine.SeqScan, Table: "s"},
	}
	plan.Finalize()
	return db, catalog.Build(db), plan
}

// byID lays a per-node fixture out as the slice of n entries indexed by
// node ID that the package takes.
func byID[T any](n int, m map[int]T) []T {
	s := make([]T, n)
	for id, v := range m {
		s[id] = v
	}
	return s
}

func TestBuildModelsVariables(t *testing.T) {
	_, cat, plan := env(t)
	selfRho := byID(3, map[int]float64{
		plan.ID:       0.001,
		plan.Left.ID:  0.1,
		plan.Right.ID: 1.0,
	})
	models, err := BuildModels(nil, plan, cat, selfRho)
	if err != nil {
		t.Fatal(err)
	}
	jm := models[plan.ID]
	if jm.VarA != plan.Left.ID || jm.VarB != plan.Right.ID {
		t.Errorf("join variables %d/%d", jm.VarA, jm.VarB)
	}
	if jm.SizeL != 5000 || jm.SizeR != 3000 || jm.Size != 15000000 {
		t.Errorf("sizes %v %v %v", jm.SizeL, jm.SizeR, jm.Size)
	}
	if !almostEq(jm.Theta, 0.001/(0.1*1.0), 1e-12) {
		t.Errorf("theta %v", jm.Theta)
	}
	sm := models[plan.Left.ID]
	if sm.VarA != plan.Left.ID || sm.VarB != -1 {
		t.Errorf("scan variables %d/%d", sm.VarA, sm.VarB)
	}
}

func TestVarOwnerSkipsPassThrough(t *testing.T) {
	_, cat, _ := env(t)
	plan := &engine.Node{Kind: engine.Aggregate, GroupCol: "b",
		Left: &engine.Node{Kind: engine.Sort,
			Left: &engine.Node{Kind: engine.SeqScan, Table: "r",
				Preds: []engine.Predicate{{Col: "b", Op: engine.Lt, Lo: 25}}}}}
	plan.Finalize()
	models, err := BuildModels(nil, plan, cat, make([]float64, len(plan.Nodes())))
	if err != nil {
		t.Fatal(err)
	}
	scanID := plan.Left.Left.ID
	if models[plan.Left.ID].VarA != scanID {
		t.Errorf("sort variable %d, want scan %d", models[plan.Left.ID].VarA, scanID)
	}
	if models[plan.ID].VarA != scanID {
		t.Errorf("aggregate variable %d, want scan %d", models[plan.ID].VarA, scanID)
	}
}

func TestCountsMatchEngineFormulas(t *testing.T) {
	_, cat, plan := env(t)
	selfRho := byID(3, map[int]float64{plan.ID: 0.002, plan.Left.ID: 0.1, plan.Right.ID: 1.0})
	models, _ := BuildModels(nil, plan, cat, selfRho)

	// Index scan at X = 0.1: engine formula with m = 500.
	sc := models[plan.Left.ID].Counts(0.1, 0)
	want := engine.ScanCounts(engine.IndexScan, 5000, 500, 1)
	if sc != want {
		t.Errorf("index scan counts %+v, want %+v", sc, want)
	}

	// Join at (0.1, 1.0): Nl=500, Nr=3000, M=theta*0.1*1*15e6.
	jc := models[plan.ID].Counts(0.1, 1.0)
	m := 0.002 / (0.1 * 1.0) * 0.1 * 1.0 * 15000000
	wantJ := engine.JoinCounts(engine.HashJoin, 500, 3000, m)
	if !almostEq(jc.NT, wantJ.NT, 1e-9) || !almostEq(jc.NO, wantJ.NO, 1e-9) {
		t.Errorf("join counts %+v, want %+v", jc, wantJ)
	}
}

func TestFitRecoversLinearExactly(t *testing.T) {
	_, cat, plan := env(t)
	selfRho := byID(3, map[int]float64{plan.ID: 0.002, plan.Left.ID: 0.1, plan.Right.ID: 1.0})
	models, _ := BuildModels(nil, plan, cat, selfRho)
	vars := byID(3, map[int]stats.Normal{
		plan.Left.ID:  stats.Normal{Mu: 0.1, Sigma: 0.01},
		plan.Right.ID: stats.Normal{Mu: 1.0, Sigma: 0},
	})

	// Index scan: nr = M = X*5000, so C2 with b0 = 5000, b1 = 0.
	funcs, err := FitNode(&models[plan.Left.ID], vars)
	if err != nil {
		t.Fatal(err)
	}
	if nr := funcs[hardware.CR]; nr.Kind != c2 || nr.B[0] != 5000 || nr.B[1] != 0 {
		t.Errorf("index scan nr fit: %+v", nr)
	}

	// Join nt = Nl + Nr + theta*Xl*Xr*|R| -> C6 exact.
	jf, err := FitNode(&models[plan.ID], vars)
	if err != nil {
		t.Fatal(err)
	}
	nt := jf[hardware.CT]
	if nt.Kind != c6 {
		t.Fatalf("join nt kind %v", nt.Kind)
	}
	theta := 0.002 / 0.1
	if nt.B[0] != theta*15000000 || nt.B[1] != 5000 || nt.B[2] != 3000 || nt.B[3] != 0 {
		t.Errorf("join nt coefficients %v", nt.B)
	}
	// no = Nl + Nr -> C5 exact.
	if no := jf[hardware.CO]; no.Kind != c5 || no.B[0] != 5000 || no.B[1] != 3000 || no.B[2] != 0 {
		t.Errorf("join no fit %+v", no)
	}
}

func TestFitSortQuadraticApproximation(t *testing.T) {
	_, cat, _ := env(t)
	plan := &engine.Node{Kind: engine.Sort,
		Left: &engine.Node{Kind: engine.SeqScan, Table: "r",
			Preds: []engine.Predicate{{Col: "b", Op: engine.Lt, Lo: 25}}}}
	plan.Finalize()
	models, _ := BuildModels(nil, plan, cat, make([]float64, len(plan.Nodes())))
	scanID := plan.Left.ID
	x := stats.Normal{Mu: 0.5, Sigma: 0.03}
	vars := byID(2, map[int]stats.Normal{scanID: x})
	funcs, err := FitNode(&models[plan.ID], vars)
	if err != nil {
		t.Fatal(err)
	}
	no := funcs[hardware.CO]
	if no.Kind != c4 {
		t.Fatalf("sort no kind %v", no.Kind)
	}
	// The quadratic should track N log2 N within a few percent on the
	// probe interval.
	for _, xv := range []float64{0.42, 0.5, 0.58} {
		n := xv * 5000
		truth := n * math.Log2(n)
		got := no.Eval(byID(2, map[int]float64{scanID: xv}))
		if math.Abs(got-truth)/truth > 0.05 {
			t.Errorf("x=%v: fit %v vs N log N %v", xv, got, truth)
		}
	}
}

func TestFitConstantSeqScan(t *testing.T) {
	_, cat, _ := env(t)
	plan := &engine.Node{Kind: engine.SeqScan, Table: "r",
		Preds: []engine.Predicate{{Col: "b", Op: engine.Lt, Lo: 25}}}
	plan.Finalize()
	models, _ := BuildModels(nil, plan, cat, make([]float64, len(plan.Nodes())))
	vars := []stats.Normal{stats.Normal{Mu: 0.5, Sigma: 0.05}}
	funcs, err := FitNode(&models[plan.ID], vars)
	if err != nil {
		t.Fatal(err)
	}
	for ui, f := range funcs {
		if f.Kind != c1 {
			t.Errorf("unit %v: kind %v, want C1", hardware.Unit(ui), f.Kind)
		}
	}
	if funcs[hardware.CS].B[0] != 50 { // 5000/100 pages
		t.Errorf("ns = %v, want 50", funcs[hardware.CS].B[0])
	}
	if funcs[hardware.CT].B[0] != 5000 || funcs[hardware.CO].B[0] != 5000 {
		t.Errorf("nt/no constants wrong: %v / %v",
			funcs[hardware.CT].B[0], funcs[hardware.CO].B[0])
	}
}

func TestDistMatchesLemma4(t *testing.T) {
	// C4 variance must equal sigma^2[(b1+2 b0 mu)^2 + 2 b0^2 sigma^2].
	f := &Func{Kind: c4, B: [4]float64{3, 2, 1}, VarA: 7, VarB: -1}
	x := stats.Normal{Mu: 0.4, Sigma: 0.05}
	vars := []stats.Normal{7: x}
	mean, variance := f.Dist(vars)
	s2 := x.Var()
	wantVar := s2 * (math.Pow(2+2*3*0.4, 2) + 2*9*s2)
	wantMean := 3*(0.4*0.4+s2) + 2*0.4 + 1
	if !almostEq(variance, wantVar, 1e-12) {
		t.Errorf("Var = %v, want %v (Lemma 4)", variance, wantVar)
	}
	if !almostEq(mean, wantMean, 1e-12) {
		t.Errorf("Mean = %v, want %v", mean, wantMean)
	}
}

func TestDistMatchesLemma8(t *testing.T) {
	// C6 variance must equal sigma_l^2(b0 mu_r + b1)^2 +
	// sigma_r^2(b0 mu_l + b2)^2 + b0^2 sigma_l^2 sigma_r^2.
	f := &Func{Kind: c6, B: [4]float64{5, 3, 2, 1}, VarA: 1, VarB: 2}
	xl := stats.Normal{Mu: 0.3, Sigma: 0.04}
	xr := stats.Normal{Mu: 0.6, Sigma: 0.07}
	vars := []stats.Normal{1: xl, 2: xr}
	_, variance := f.Dist(vars)
	sl2, sr2 := xl.Var(), xr.Var()
	want := sl2*math.Pow(5*0.6+3, 2) + sr2*math.Pow(5*0.3+2, 2) + 25*sl2*sr2
	if !almostEq(variance, want, 1e-12) {
		t.Errorf("Var = %v, want %v (Lemma 8)", variance, want)
	}
}

func TestDistLinearForms(t *testing.T) {
	f := &Func{Kind: c3, B: [4]float64{10, 4}, VarA: 3, VarB: -1}
	x := stats.Normal{Mu: 0.2, Sigma: 0.03}
	mean, variance := f.Dist([]stats.Normal{3: x})
	if !almostEq(mean, 10*0.2+4, 1e-12) || !almostEq(variance, 100*x.Var(), 1e-12) {
		t.Errorf("C3 dist = (%v, %v)", mean, variance)
	}
	f5 := &Func{Kind: c5, B: [4]float64{10, 20, 4}, VarA: 1, VarB: 2}
	xl := stats.Normal{Mu: 0.2, Sigma: 0.03}
	xr := stats.Normal{Mu: 0.5, Sigma: 0.01}
	m5, v5 := f5.Dist([]stats.Normal{1: xl, 2: xr})
	if !almostEq(m5, 10*0.2+20*0.5+4, 1e-12) ||
		!almostEq(v5, 100*xl.Var()+400*xr.Var(), 1e-12) {
		t.Errorf("C5 dist = (%v, %v)", m5, v5)
	}
}

// Property: Dist variance is never negative and Eval at the mean is close
// to the distribution mean for linear kinds.
func TestDistProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fn := &Func{Kind: c5, B: [4]float64{r.Float64() * 100, r.Float64() * 100, r.Float64() * 10},
			VarA: 1, VarB: 2}
		vars := []stats.Normal{
			1: stats.Normal{Mu: r.Float64(), Sigma: r.Float64() * 0.1},
			2: stats.Normal{Mu: r.Float64(), Sigma: r.Float64() * 0.1},
		}
		mean, variance := fn.Dist(vars)
		if variance < 0 {
			return false
		}
		at := fn.Eval([]float64{1: vars[1].Mu, 2: vars[2].Mu})
		return almostEq(mean, at, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTermsRoundTrip(t *testing.T) {
	// Sum of term means equals Dist mean for every kind.
	vars := []stats.Normal{
		1: stats.Normal{Mu: 0.3, Sigma: 0.05},
		2: stats.Normal{Mu: 0.7, Sigma: 0.02},
	}
	fns := []Func{
		constant(5),
		{Kind: c2, B: [4]float64{3, 1}, VarA: 1, VarB: -1},
		{Kind: c4, B: [4]float64{2, 3, 4}, VarA: 1, VarB: -1},
		{Kind: c5, B: [4]float64{1, 2, 3}, VarA: 1, VarB: 2},
		{Kind: c6, B: [4]float64{1, 2, 3, 4}, VarA: 1, VarB: 2},
	}
	for _, fn := range fns {
		mean, _ := fn.Dist(vars)
		var sum float64
		var ts [4]Term
		n := fn.Terms(&ts)
		if n != fn.Kind.numCoef() {
			t.Errorf("%v: %d terms, want %d", fn.Kind, n, fn.Kind.numCoef())
		}
		for _, tm := range ts[:n] {
			sum += tm.Mean(vars)
		}
		if !almostEq(mean, sum, 1e-12) {
			t.Errorf("%v: term means %v != dist mean %v", fn.Kind, sum, mean)
		}
	}
}

func TestZeroAndConstant(t *testing.T) {
	if z := constant(0); !z.IsZero() {
		t.Error("Zero not zero")
	}
	c := constant(3)
	if c.IsZero() || c.Eval(nil) != 3 {
		t.Error("Constant wrong")
	}
	m, v := c.Dist(nil)
	if m != 3 || v != 0 {
		t.Errorf("Constant dist = (%v, %v)", m, v)
	}
}

func TestProbeIntervalClamps(t *testing.T) {
	lo, hi := probeInterval(stats.Normal{Mu: 0.01, Sigma: 0.05})
	if lo != 0 {
		t.Errorf("lo = %v, want 0", lo)
	}
	lo, hi = probeInterval(stats.Normal{Mu: 0.99, Sigma: 0.05})
	if hi != 1 {
		t.Errorf("hi = %v, want 1", hi)
	}
	lo, hi = probeInterval(stats.Normal{Mu: 0.5, Sigma: 0})
	if hi <= lo {
		t.Errorf("degenerate interval [%v,%v]", lo, hi)
	}
}
