package core

import (
	"math"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/stats"
)

// boundFixture builds a two-level plan (scan under join) whose variables
// are ancestor-descendant, so covariance terms must be bounded.
func boundFixture() (scan, join *engine.Node, asm *assembly) {
	scan = &engine.Node{Kind: engine.SeqScan, Table: "r",
		Preds: []engine.Predicate{{Col: "a", Op: engine.Le, Lo: 1}}}
	other := &engine.Node{Kind: engine.SeqScan, Table: "s"}
	join = &engine.Node{Kind: engine.HashJoin, LeftCol: "a", RightCol: "c",
		Left: scan, Right: other}
	asm = &assembly{
		nodes: join.Finalize(),
		vars:  make([]stats.Normal, 3),
		info:  make([]varInfo, 3),
	}
	asm.vars[scan.ID] = stats.NewNormal(0.3, 0.02)
	asm.info[scan.ID] = varInfo{
		leafOff:   0,
		leafComp:  []float64{0.0004},
		leafN:     []int{500},
		numLeaves: 1,
	}
	asm.vars[other.ID] = stats.NewNormal(1.0, 0)
	asm.info[other.ID] = varInfo{
		leafOff:   1,
		leafComp:  []float64{0},
		leafN:     []int{500},
		numLeaves: 1,
	}
	asm.vars[join.ID] = stats.NewNormal(0.001, 0.0002)
	asm.info[join.ID] = varInfo{
		leafOff:   0,
		leafComp:  []float64{3e-8, 1e-8},
		leafN:     []int{500, 500},
		numLeaves: 2,
	}
	return scan, join, asm
}

func linTerm(v int, coef float64) costmodel.Term {
	return costmodel.Term{Coef: coef, Vars: [2]int{v}, Pows: [2]int{1}, NVars: 1}
}

func sqTerm(v int, coef float64) costmodel.Term {
	return costmodel.Term{Coef: coef, Vars: [2]int{v}, Pows: [2]int{2}, NVars: 1}
}

func TestCovTermsIndependentVarsExact(t *testing.T) {
	scan, join, asm := boundFixture()
	_ = join
	p := New(nil, [5]stats.Normal{}, Config{})
	// Same variable: Cov(5X, 3X) = 15 sigma^2, exact.
	cov, bounded := p.covTerms(linTerm(scan.ID, 5), linTerm(scan.ID, 3), asm)
	want := 15 * asm.vars[scan.ID].Var()
	if bounded || math.Abs(cov-want) > 1e-15 {
		t.Errorf("same-var cov = %v (bounded=%v), want %v exact", cov, bounded, want)
	}
}

func TestCovTermsAncestorDescendantBounded(t *testing.T) {
	scan, join, asm := boundFixture()
	p := New(nil, [5]stats.Normal{}, Config{})
	cov, bounded := p.covTerms(linTerm(scan.ID, 2), linTerm(join.ID, 4), asm)
	if !bounded {
		t.Fatal("expected a bounded covariance for nested operators")
	}
	if cov < 0 {
		t.Errorf("bound %v negative", cov)
	}
	// Must not exceed Cauchy-Schwarz.
	cs := math.Sqrt(termVar(linTerm(scan.ID, 2), asm.vars) * termVar(linTerm(join.ID, 4), asm.vars))
	if cov > cs+1e-18 {
		t.Errorf("bound %v exceeds Cauchy-Schwarz %v", cov, cs)
	}
}

func TestTightBoundBelowCauchySchwarz(t *testing.T) {
	scan, join, asm := boundFixture()
	p := New(nil, [5]stats.Normal{}, Config{})
	a, b := linTerm(scan.ID, 1), linTerm(join.ID, 1)
	tight, _ := p.covTerms(a, b, asm)
	loose := math.Sqrt(termVar(a, asm.vars) * termVar(b, asm.vars))
	if tight > loose+1e-18 {
		t.Errorf("tight bound %v above Cauchy-Schwarz %v", tight, loose)
	}
}

func TestNoCovZeroesBoundedTerms(t *testing.T) {
	scan, join, asm := boundFixture()
	p := New(nil, [5]stats.Normal{}, Config{Variant: NoCov})
	cov, bounded := p.covTerms(linTerm(scan.ID, 1), linTerm(join.ID, 1), asm)
	if cov != 0 || bounded {
		t.Errorf("NoCov: cov=%v bounded=%v, want 0/false", cov, bounded)
	}
}

func TestQuadraticBoundsUseTheorems(t *testing.T) {
	scan, join, asm := boundFixture()
	p := New(nil, [5]stats.Normal{}, Config{})
	// X^2 vs X'^2 triggers Theorem 9; X^2 vs X' triggers Theorem 10.
	c99, b99 := p.covTerms(sqTerm(scan.ID, 1), sqTerm(join.ID, 1), asm)
	c21, b21 := p.covTerms(sqTerm(scan.ID, 1), linTerm(join.ID, 1), asm)
	if !b99 || !b21 || c99 < 0 || c21 < 0 {
		t.Errorf("quadratic bounds: (%v,%v) (%v,%v)", c99, b99, c21, b21)
	}
}

func TestSharedLeaves(t *testing.T) {
	scan, join, asm := boundFixture()
	m, n := sharedLeaves(&asm.info[scan.ID], &asm.info[join.ID])
	if m != 1 || n != 500 {
		t.Errorf("sharedLeaves = (%d, %d), want (1, 500)", m, n)
	}
	// Disjoint leaf sets share nothing.
	m, n = sharedLeaves(&asm.info[scan.ID], &varInfo{leafOff: 9, leafN: []int{100}})
	if m != 0 || n != 0 {
		t.Errorf("disjoint sharedLeaves = (%d, %d)", m, n)
	}
}

func TestRestrictedVarSumsSharedComponents(t *testing.T) {
	scan, join, asm := boundFixture()
	// The join shares only leaf 0 with the scan.
	got := restrictedVar(&asm.info[join.ID], &asm.info[scan.ID])
	if math.Abs(got-3e-8) > 1e-20 {
		t.Errorf("restrictedVar = %v, want 3e-8", got)
	}
	// The scan's full variance vs the join: all its leaves are shared.
	got = restrictedVar(&asm.info[scan.ID], &asm.info[join.ID])
	if math.Abs(got-0.0004) > 1e-18 {
		t.Errorf("restrictedVar = %v, want 4e-4", got)
	}
}

func TestTheoremFFactorsBehave(t *testing.T) {
	// f factors vanish as n grows and increase with shared relations m.
	f9a := theorem9F(100, 1, 2, 3)
	f9b := theorem9F(10000, 1, 2, 3)
	if f9b >= f9a {
		t.Errorf("theorem9F not decreasing in n: %v vs %v", f9a, f9b)
	}
	f9m1 := theorem9F(1000, 1, 3, 3)
	f9m2 := theorem9F(1000, 2, 3, 3)
	if f9m2 <= f9m1 {
		t.Errorf("theorem9F not increasing in m: %v vs %v", f9m1, f9m2)
	}
	f10a := theorem10F(100, 1, 2, 2)
	f10b := theorem10F(10000, 1, 2, 2)
	if f10b >= f10a {
		t.Errorf("theorem10F not decreasing in n: %v vs %v", f10a, f10b)
	}
}

func TestGAndHRho(t *testing.T) {
	if gRho(0) != 0 || gRho(1) != 0 {
		t.Error("g(rho) should vanish at 0 and 1")
	}
	if math.Abs(gRho(0.5)-0.5) > 1e-15 {
		t.Errorf("g(0.5) = %v, want 0.5", gRho(0.5))
	}
	if hRho(0.5) <= gRho(0.5) {
		t.Errorf("h(0.5)=%v should exceed g(0.5)=%v", hRho(0.5), gRho(0.5))
	}
	if gRho(-0.1) != 0 || hRho(1.5) != 0 {
		t.Error("out-of-range rho should clamp to 0")
	}
}

func TestExactTermCovMatchesStatsHelpers(t *testing.T) {
	scan, _, asm := boundFixture()
	x := asm.vars[scan.ID]
	// Cov(X, X^2) = 2 mu sigma^2.
	got := linTerm(scan.ID, 1).Cov(sqTerm(scan.ID, 1), asm.vars)
	if want := stats.CovXX2(x); math.Abs(got-want) > 1e-15 {
		t.Errorf("Cov(X, X^2) = %v, want %v", got, want)
	}
	// Var[X^2] via the covariance of the square with itself.
	got = sqTerm(scan.ID, 1).Cov(sqTerm(scan.ID, 1), asm.vars)
	if want := stats.VarX2(x); math.Abs(got-want) > 1e-15 {
		t.Errorf("Var[X^2] = %v, want %v", got, want)
	}
}
