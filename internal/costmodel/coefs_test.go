package costmodel

import (
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/stats"
	"repro/internal/workload"
)

// genModel is one generated plan's cost models with each operator's
// sampled selectivity distribution, both indexed by node ID.
type genModel struct {
	models []NodeModel
	vars   []stats.Normal
}

// genModels builds the cost models of the plans internal/core's
// prediction digest covers: nEach SelJoin and nEach TPCH generated queries
// on the database of the given kind, planned with plan.Build and
// estimated by the memo-less sampling pass.
func genModels(tb testing.TB, kind datagen.DBKind, nEach int) []genModel {
	tb.Helper()
	const seed = 11
	db := datagen.Generate(datagen.ConfigFor(kind, seed))
	cat := catalog.Build(db)
	sdb, err := sample.Build(db, 0.05, sample.DefaultCopies, seed+2)
	if err != nil {
		tb.Fatal(err)
	}
	var out []genModel
	for _, b := range []workload.Benchmark{workload.SelJoin, workload.TPCH} {
		qs, err := workload.Generate(b, cat, nEach, seed+3)
		if err != nil {
			tb.Fatal(err)
		}
		for _, q := range qs {
			p, err := plan.Build(q, cat)
			if err != nil {
				tb.Fatalf("%v %s: %v", b, q.Name, err)
			}
			est, err := sample.Estimate(p, sdb, cat)
			if err != nil {
				tb.Fatalf("%v %s: %v", b, q.Name, err)
			}
			g := genModel{vars: make([]stats.Normal, len(est.Ops))}
			selfRho := make([]float64, len(est.Ops))
			for i, e := range est.Ops {
				selfRho[i] = e.Rho
				g.vars[i] = stats.NormalFromVar(e.Rho, e.Var)
			}
			if g.models, err = BuildModels(nil, p, cat, selfRho); err != nil {
				tb.Fatalf("%v %s: %v", b, q.Name, err)
			}
			out = append(out, g)
		}
	}
	return out
}

// gridOf returns the W+1 points of x's probe grid.
func gridOf(x stats.Normal) []float64 {
	lo, hi := probeInterval(x)
	pts := make([]float64, gridW+1)
	for i := range pts {
		pts[i] = lo + (hi-lo)*float64(i)/gridW
	}
	return pts
}

// TestCoefsAreTheCostModel holds every closed-form cost function of the
// generated plans — on both databases, with the sampled selectivity
// variance and with none — to the cost model it is read from: Func.Eval
// equals Counts at every point of the probe grid (both grids for a
// binary kind) to 1e-12 relative.
func TestCoefsAreTheCostModel(t *testing.T) {
	var closed, fitted int
	for _, kind := range []datagen.DBKind{datagen.Uniform1G, datagen.Skewed1G} {
		for _, g := range genModels(t, kind, 256) {
			x := make([]float64, len(g.vars))
			for _, zero := range []bool{false, true} {
				vars := g.vars
				if zero {
					vars = make([]stats.Normal, len(g.vars))
					for i, v := range g.vars {
						vars[i] = stats.Normal{Mu: v.Mu, Sigma: 0}
					}
				}
				for i := range g.models {
					m := &g.models[i]
					funcs, err := FitNode(m, vars)
					if err != nil {
						t.Fatal(err)
					}
					for ui, f := range funcs {
						xa := vars[m.VarA]
						k, _, exact := m.kindFor(hardware.Unit(ui), xa)
						if k == c1 {
							continue
						}
						if !exact {
							fitted++
							continue
						}
						closed++
						ptsB := []float64{0}
						if k.binary() {
							ptsB = gridOf(vars[m.VarB])
						}
						for _, pa := range gridOf(xa) {
							for _, pb := range ptsB {
								x[m.VarA] = pa
								if k.binary() {
									x[m.VarB] = pb
								}
								if got, want := f.Eval(x), m.Counts(pa, pb).Get(ui); !almostEq(got, want, 1e-12) {
									t.Fatalf("%v node %d (%v) unit %v %v at (%v, %v): f = %v, Counts = %v",
										kind, i, m.Node.Kind, hardware.Unit(ui), k, pa, pb, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
	if closed == 0 || fitted == 0 {
		t.Fatalf("%d closed-form and %d fitted functions; want both kinds covered", closed, fitted)
	}
	t.Logf("%d closed-form functions equal Counts on their grids; %d fitted", closed, fitted)
}

// indexScan is an index scan over 1,000 rows with one residual predicate
// of selectivity 1/2: the index fetches X·2000 rows, clamped at 1,000
// for X >= 1/2.
func indexScan() *NodeModel {
	return &NodeModel{Node: &engine.Node{Kind: engine.IndexScan}, VarA: 0, VarB: -1,
		SizeL: 1000, Size: 1000, NumPreds: 2, ResidFactor: 0.5}
}

func TestIndexScanBelowAndAboveTheClamp(t *testing.T) {
	for _, c := range []struct {
		name string
		x    stats.Normal
		want [2]float64
	}{
		{"below", stats.Normal{Mu: 0.2, Sigma: 0.01}, [2]float64{2000, 0}},
		{"above", stats.Normal{Mu: 0.8, Sigma: 0.01}, [2]float64{0, 1000}},
	} {
		funcs, err := FitNode(indexScan(), []stats.Normal{c.x})
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range []hardware.Unit{hardware.CR, hardware.CT, hardware.CI, hardware.CO} {
			// NumPreds−1 = 1 residual predicate: NO equals the fetch count.
			if f := funcs[u]; f.Kind != c2 || f.B[0] != c.want[0] || f.B[1] != c.want[1] {
				t.Errorf("%s: unit %v = %v %v, want C2 %v", c.name, u, f.Kind, f.B, c.want)
			}
		}
	}
}

// TestIndexScanAcrossTheClamp fits the kinked count with a line: a slope
// strictly between the two pieces', and, with the intercept free, grid
// residuals that sum to zero.
func TestIndexScanAcrossTheClamp(t *testing.T) {
	m := indexScan()
	x := stats.Normal{Mu: 0.5, Sigma: 0.05}
	if _, _, exact := m.kindFor(hardware.CR, x); exact {
		t.Fatal("an interval across the clamp has closed-form coefficients")
	}
	funcs, err := FitNode(m, []stats.Normal{x})
	if err != nil {
		t.Fatal(err)
	}
	f := funcs[hardware.CR]
	if f.Kind != c2 || !(f.B[0] > 0 && f.B[0] < 2000) {
		t.Fatalf("fit %v %v, want C2 with slope in (0, 2000)", f.Kind, f.B)
	}
	var sum, scale float64
	for _, p := range gridOf(x) {
		y := m.Counts(p, 0).NR
		sum += f.Eval([]float64{p}) - y
		scale += y
	}
	if math.Abs(sum) > 1e-9*scale {
		t.Errorf("grid residuals sum to %v", sum)
	}
}

// TestCleanCoefsKeepsTrueCoefficients is the regression test for fits
// that dropped a real coefficient: a hash join whose Theta·Size dwarfs
// SizeR (2.4e12 vs 600) keeps SizeR exactly. The grid fit returned 0
// there, because cleanCoefs measured SizeR against Theta·Size.
func TestCleanCoefsKeepsTrueCoefficients(t *testing.T) {
	m := &NodeModel{Node: &engine.Node{Kind: engine.HashJoin}, VarA: 1, VarB: 2,
		SizeL: 5e6, SizeR: 600, Size: 3e9, Theta: 800}
	vars := []stats.Normal{{}, stats.Normal{Mu: 0.3, Sigma: 0.05}, stats.Normal{Mu: 0.5, Sigma: 0.05}}
	funcs, err := FitNode(m, vars)
	if err != nil {
		t.Fatal(err)
	}
	nt := funcs[hardware.CT]
	if nt.B[0] != 800*3e9 || nt.B[1] != 5e6 || nt.B[2] != 600 {
		t.Errorf("hash join NT coefficients %v, want [2.4e12 5e6 600 0]", nt.B)
	}
}
