package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m
}

func TestNormalCDFKnownValues(t *testing.T) {
	std := Normal{Mu: 0, Sigma: 1}
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{1.959963984540054, 0.975},
		{3, 0.9986501019683699},
	}
	for _, c := range cases {
		if got := std.CDF(c.x); !almostEq(got, c.want, 1e-12) {
			t.Errorf("CDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestQuantileInvertsCDF(t *testing.T) {
	n := Normal{Mu: -4, Sigma: 2.5}
	for _, p := range []float64{1e-8, 1e-4, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1 - 1e-6} {
		x := n.Quantile(p)
		if got := n.CDF(x); !almostEq(got, p, 1e-9) {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestQuantileProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := r.Float64()
		if p <= 0 || p >= 1 {
			return true
		}
		x := StdNormalQuantile(p)
		std := Normal{Mu: 0, Sigma: 1}
		return almostEq(std.CDF(x), p, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInterval(t *testing.T) {
	n := Normal{Mu: 10, Sigma: 2}
	lo, hi := n.Interval(0.95)
	if !almostEq(lo, 10-1.959963984540054*2, 1e-9) || !almostEq(hi, 10+1.959963984540054*2, 1e-9) {
		t.Errorf("Interval(0.95) = [%v, %v]", lo, hi)
	}
	if got := n.CDF(hi) - n.CDF(lo); !almostEq(got, 0.95, 1e-12) {
		t.Errorf("mass of the 95%% interval = %v", got)
	}
}

func TestMomentsMatchTable3(t *testing.T) {
	n := Normal{Mu: 3, Sigma: 2}
	mu, s2 := 3.0, 4.0
	want := []float64{
		mu,
		mu*mu + s2,
		mu*mu*mu + 3*mu*s2,
		mu*mu*mu*mu + 6*mu*mu*s2 + 3*s2*s2,
	}
	for k := 1; k <= 4; k++ {
		if got := n.Moment(k); !almostEq(got, want[k-1], 1e-12) {
			t.Errorf("Moment(%d) = %v, want %v", k, got, want[k-1])
		}
	}
}

// Monte-Carlo checks of the closed-form covariance identities used by the
// variance propagation (Lemma 4, Lemma 8, Table 3 consequences).
func TestMomentIdentitiesMonteCarlo(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	x := Normal{Mu: 0.4, Sigma: 0.15}
	y := Normal{Mu: 0.7, Sigma: 0.05}
	const n = 400000
	var sx, sx2, sx3, sx4, sxy, sx2y2, sxxy float64
	for i := 0; i < n; i++ {
		xv := x.Mu + x.Sigma*r.NormFloat64()
		yv := y.Mu + y.Sigma*r.NormFloat64()
		sx += xv
		sx2 += xv * xv
		sx3 += xv * xv * xv
		sx4 += xv * xv * xv * xv
		sxy += xv * yv
		sx2y2 += xv * xv * yv * yv
		sxxy += xv * xv * yv
	}
	inv := 1.0 / n
	ex, ex2, ex3, ex4 := sx*inv, sx2*inv, sx3*inv, sx4*inv
	exy, ex2y2, ex2y := sxy*inv, sx2y2*inv, sxxy*inv

	if got, want := ex4-ex2*ex2, VarX2(x); !almostEq(got, want, 0.02) {
		t.Errorf("Var[X^2]: mc %v vs formula %v", got, want)
	}
	if got, want := ex3-ex2*ex, CovXX2(x); !almostEq(got, want, 0.02) {
		t.Errorf("Cov(X,X^2): mc %v vs formula %v", got, want)
	}
	if got, want := ex2y2-exy*exy, ProductVar(x, y); !almostEq(got, want, 0.02) {
		t.Errorf("Var[XY]: mc %v vs formula %v", got, want)
	}
	if got, want := ex2y-exy*ex, CovProductLeft(x, y); !almostEq(got, want, 0.02) {
		t.Errorf("Cov(XY,X): mc %v vs formula %v", got, want)
	}
}

func TestNormalFromVarClampsNegative(t *testing.T) {
	n := NormalFromVar(1, -1e-18)
	if n.Sigma != 0 {
		t.Errorf("expected clamped sigma, got %v", n.Sigma)
	}
}

func TestDegeneratePointMass(t *testing.T) {
	n := Normal{Mu: 5, Sigma: 0}
	if n.CDF(4.999) != 0 || n.CDF(5) != 1 {
		t.Error("point-mass CDF wrong")
	}
}
