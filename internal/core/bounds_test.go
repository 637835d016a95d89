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
	asm.vars[scan.ID] = stats.Normal{Mu: 0.3, Sigma: 0.02}
	asm.info[scan.ID] = varInfo{
		leafOff:  0,
		leafLen:  1,
		leafComp: []float64{0.0004},
	}
	asm.vars[other.ID] = stats.Normal{Mu: 1.0, Sigma: 0}
	asm.info[other.ID] = varInfo{
		leafOff:  1,
		leafLen:  1,
		leafComp: []float64{0},
	}
	asm.vars[join.ID] = stats.Normal{Mu: 0.001, Sigma: 0.0002}
	asm.info[join.ID] = varInfo{
		leafOff:  0,
		leafLen:  2,
		leafComp: []float64{3e-8, 1e-8},
	}
	return scan, join, asm
}

func linTerm(v int, coef float64) costmodel.Term {
	return costmodel.Term{Coef: coef, Vars: [2]int{v}, Pows: [2]int{1}, NVars: 1}
}

func sqTerm(v int, coef float64) costmodel.Term {
	return costmodel.Term{Coef: coef, Vars: [2]int{v}, Pows: [2]int{2}, NVars: 1}
}

// covOf runs covTerms on two terms, their moments computed first as
// assemble computes them.
func covOf(p *Predictor, a, b costmodel.Term, asm *assembly) (float64, bool) {
	ca, cb := newCovTerm(a, asm.vars), newCovTerm(b, asm.vars)
	return p.covTerms(&ca, &cb, asm)
}

// varOf returns Var[t] as covTerms' Cauchy-Schwarz bound reads it.
func varOf(t costmodel.Term, asm *assembly) float64 { return newCovTerm(t, asm.vars).vr }

func TestCovTermsIndependentVarsExact(t *testing.T) {
	scan, join, asm := boundFixture()
	_ = join
	p := New(nil, [5]stats.Normal{}, All)
	// Same variable: Cov(5X, 3X) = 15 sigma^2, exact.
	cov, bounded := covOf(p, linTerm(scan.ID, 5), linTerm(scan.ID, 3), asm)
	want := 15 * asm.vars[scan.ID].Var()
	if bounded || math.Abs(cov-want) > 1e-15 {
		t.Errorf("same-var cov = %v (bounded=%v), want %v exact", cov, bounded, want)
	}
}

func TestCovTermsAncestorDescendantBounded(t *testing.T) {
	scan, join, asm := boundFixture()
	p := New(nil, [5]stats.Normal{}, All)
	cov, bounded := covOf(p, linTerm(scan.ID, 2), linTerm(join.ID, 4), asm)
	if !bounded {
		t.Fatal("expected a bounded covariance for nested operators")
	}
	if cov < 0 {
		t.Errorf("bound %v negative", cov)
	}
	// Must not exceed Cauchy-Schwarz.
	cs := math.Sqrt(varOf(linTerm(scan.ID, 2), asm) * varOf(linTerm(join.ID, 4), asm))
	if cov > cs+1e-18 {
		t.Errorf("bound %v exceeds Cauchy-Schwarz %v", cov, cs)
	}
}

func TestTightBoundBelowCauchySchwarz(t *testing.T) {
	scan, join, asm := boundFixture()
	p := New(nil, [5]stats.Normal{}, All)
	a, b := linTerm(scan.ID, 1), linTerm(join.ID, 1)
	tight, _ := covOf(p, a, b, asm)
	loose := math.Sqrt(varOf(a, asm) * varOf(b, asm))
	if tight > loose+1e-18 {
		t.Errorf("tight bound %v above Cauchy-Schwarz %v", tight, loose)
	}
}

func TestNoCovZeroesBoundedTerms(t *testing.T) {
	scan, join, asm := boundFixture()
	p := New(nil, [5]stats.Normal{}, NoCov)
	cov, bounded := covOf(p, linTerm(scan.ID, 1), linTerm(join.ID, 1), asm)
	if cov != 0 || bounded {
		t.Errorf("NoCov: cov=%v bounded=%v, want 0/false", cov, bounded)
	}
}

func TestQuadraticBoundsUseTheorems(t *testing.T) {
	scan, join, asm := boundFixture()
	p := New(nil, [5]stats.Normal{}, All)
	// X^2 vs X'^2 and X^2 vs X' are bounded, by Cauchy-Schwarz alone.
	for _, c := range [][2]costmodel.Term{
		{sqTerm(scan.ID, 1), sqTerm(join.ID, 1)},
		{sqTerm(scan.ID, 1), linTerm(join.ID, 1)},
	} {
		cov, bounded := covOf(p, c[0], c[1], asm)
		cs := math.Sqrt(varOf(c[0], asm) * varOf(c[1], asm))
		if !bounded || cov != cs {
			t.Errorf("quadratic bound %v (bounded=%v), want Cauchy-Schwarz %v", cov, bounded, cs)
		}
	}
}

func TestSharedLeaves(t *testing.T) {
	scan, join, asm := boundFixture()
	if m := sharedLeaves(&asm.info[scan.ID], &asm.info[join.ID]); m != 1 {
		t.Errorf("sharedLeaves = %d, want 1", m)
	}
	// Disjoint leaf sets share nothing.
	if m := sharedLeaves(&asm.info[scan.ID], &varInfo{leafOff: 9, leafLen: 1}); m != 0 {
		t.Errorf("disjoint sharedLeaves = %d", m)
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
