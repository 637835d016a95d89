package solve

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func matFromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m
}

func TestCholeskyKnown(t *testing.T) {
	a := matFromRows([][]float64{{4, 2}, {2, 3}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// L = [[2,0],[1,sqrt(2)]]
	if math.Abs(l.At(0, 0)-2) > 1e-12 || math.Abs(l.At(1, 0)-1) > 1e-12 ||
		math.Abs(l.At(1, 1)-math.Sqrt2) > 1e-12 {
		t.Errorf("Cholesky = %+v", l)
	}
}

func TestCholeskySingular(t *testing.T) {
	a := matFromRows([][]float64{{1, 1}, {1, 1}})
	if _, err := Cholesky(a); err == nil {
		t.Error("expected error on singular matrix")
	}
}

func TestSolveSPD(t *testing.T) {
	a := matFromRows([][]float64{{4, 1, 0}, {1, 3, 1}, {0, 1, 2}})
	want := []float64{1, -2, 3}
	b := a.MulVec(want)
	got, err := SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("SolveSPD = %v, want %v", got, want)
		}
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Overdetermined but consistent system recovers exact coefficients.
	a := NewMatrix(6, 2)
	want := []float64{2.5, -1}
	y := make([]float64, 6)
	for i := 0; i < 6; i++ {
		x := float64(i)
		a.Set(i, 0, x)
		a.Set(i, 1, 1)
		y[i] = want[0]*x + want[1]
	}
	got, err := LeastSquares(a, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Fatalf("LeastSquares = %v, want %v", got, want)
		}
	}
}

func TestNNLSMatchesUnconstrainedWhenInterior(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := NewMatrix(20, 3)
	truth := []float64{1.5, 0.7, 2.0} // all positive => constraint inactive
	y := make([]float64, 20)
	for i := 0; i < 20; i++ {
		var s float64
		for j := 0; j < 3; j++ {
			v := r.Float64()
			a.Set(i, j, v)
			s += v * truth[j]
		}
		y[i] = s
	}
	got, err := NNLS(a, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := range truth {
		if math.Abs(got[j]-truth[j]) > 1e-6 {
			t.Fatalf("NNLS = %v, want %v", got, truth)
		}
	}
}

func TestNNLSClampsNegative(t *testing.T) {
	// One-column system where the unconstrained optimum is negative.
	a := NewMatrix(3, 1)
	for i := 0; i < 3; i++ {
		a.Set(i, 0, 1)
	}
	y := []float64{-1, -2, -3}
	got, err := NNLS(a, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Errorf("NNLS = %v, want [0]", got)
	}
}

func TestNNLSFreeIntercept(t *testing.T) {
	// y = -3 + 0*x: slope constrained >= 0, intercept free.
	a := NewMatrix(5, 2)
	y := make([]float64, 5)
	for i := 0; i < 5; i++ {
		a.Set(i, 0, float64(i))
		a.Set(i, 1, 1)
		y[i] = -3
	}
	got, err := NNLS(a, y, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]) > 1e-8 || math.Abs(got[1]+3) > 1e-6 {
		t.Errorf("NNLS = %v, want [0 -3]", got)
	}
}

// Property: NNLS never returns a worse residual than the zero vector and
// never violates the constraints.
func TestNNLSProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 8+r.Intn(10), 1+r.Intn(4)
		a := NewMatrix(rows, cols)
		y := make([]float64, rows)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				a.Set(i, j, r.NormFloat64())
			}
			y[i] = r.NormFloat64()
		}
		x, err := NNLS(a, y, nil)
		if err != nil {
			return false
		}
		for _, v := range x {
			if v < 0 {
				return false
			}
		}
		zero := make([]float64, cols)
		return residual(a, x, y) <= residual(a, zero, y)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the NNLS solution satisfies the KKT conditions: for active
// coordinates (x_i = 0) the gradient is >= 0; for passive ones it is ~0.
func TestNNLSKKT(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 10+r.Intn(10), 2+r.Intn(3)
		a := NewMatrix(rows, cols)
		y := make([]float64, rows)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				a.Set(i, j, r.Float64())
			}
			y[i] = r.NormFloat64() * 2
		}
		x, err := NNLS(a, y, nil)
		if err != nil {
			return false
		}
		// gradient g = A^T (A x - y)
		res := a.MulVec(x)
		for i := range res {
			res[i] -= y[i]
		}
		g := a.TransMulVec(res)
		for i, xi := range x {
			if xi > 1e-10 {
				if math.Abs(g[i]) > 1e-5 {
					return false
				}
			} else if g[i] < -1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMatrixOps(t *testing.T) {
	a := matFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got := a.MulVec([]float64{1, 1})
	want := []float64{3, 7, 11}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVec = %v", got)
		}
	}
	gt := a.TransMulVec([]float64{1, 1, 1})
	if gt[0] != 9 || gt[1] != 12 {
		t.Fatalf("TransMulVec = %v", gt)
	}
	g := a.Gram()
	if g.At(0, 0) != 35 || g.At(0, 1) != 44 || g.At(1, 1) != 56 {
		t.Fatalf("Gram = %+v", g)
	}
}

// residual returns ||A x - y||_2.
func residual(a *Matrix, x, y []float64) float64 {
	r := a.MulVec(x)
	var s float64
	for i := range r {
		d := r[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}
