package costmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// probe lays out the C2 (n = 2: v, 1) or C4 (n = 3: v², v, 1) rows at
// the gridW+1 points of [lo, hi], with v scaled by hi, and the counts
// y = mag·(c0·v² + c1·v + c2) there.
func probe(n int, lo, hi float64, c [3]float64, mag float64) (rows [gridW + 1][maxCoef]float64, y [gridW + 1]float64) {
	for i := range rows {
		v := (lo + (hi-lo)*float64(i)/gridW) / hi
		if n == 3 {
			rows[i] = [maxCoef]float64{v * v, v, 1}
		} else {
			rows[i] = [maxCoef]float64{v, 1}
		}
		y[i] = mag * (c[0]*v*v + c[1]*v + c[2])
	}
	return rows, y
}

// TestLeastSquaresExact: an overdetermined but consistent system recovers
// its coefficients, a negative one included, when no column is held at 0.
func TestLeastSquaresExact(t *testing.T) {
	var rows [6][maxCoef]float64
	var y [6]float64
	want := [2]float64{2.5, -1}
	for i := range rows {
		x := float64(i)
		rows[i] = [maxCoef]float64{x, 1}
		y[i] = want[0]*x + want[1]
	}
	got, ok := lsq(rows[:], y[:], 2, 0)
	if !ok {
		t.Fatal("lsq: singular system")
	}
	for j := range want {
		if math.Abs(got[j]-want[j]) > 1e-6 {
			t.Fatalf("lsq = %v, want %v", got[:2], want)
		}
	}
}

// TestNNLSMatchesUnconstrainedWhenInterior feeds nnls counts that are
// exactly a combination of its columns with non-negative constrained
// coefficients: no constraint binds, and it returns the combination up to
// the normal equations' conditioning and their ridge.
func TestNNLSMatchesUnconstrainedWhenInterior(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var rows [20][maxCoef]float64
	var y [20]float64
	truth := [maxCoef]float64{1.5, 0.7, 2.0}
	for i := range rows {
		for j := range truth {
			rows[i][j] = r.Float64()
			y[i] += rows[i][j] * truth[j]
		}
	}
	got := nnls(rows[:], y[:], 3)
	for j := range truth {
		if math.Abs(got[j]-truth[j]) > 1e-6 {
			t.Fatalf("random rows: nnls = %v, want %v", got, truth)
		}
	}
	for _, c := range []struct {
		n    int
		want [3]float64
	}{
		{2, [3]float64{7, -3}},
		{3, [3]float64{2, 5, -1}},
		{3, [3]float64{0.5, 0, 4}},
	} {
		var pc [3]float64 // as c0·v² + c1·v + c2
		copy(pc[3-c.n:], c.want[:c.n])
		rows, y := probe(c.n, 0.4, 1, pc, 1)
		b := nnls(rows[:], y[:], c.n)
		for j := 0; j < c.n; j++ {
			if math.Abs(b[j]-c.want[j]) > 1e-7*math.Abs(c.want[0]+c.want[1]+c.want[2]) {
				t.Errorf("grid n=%d: nnls = %v, want %v", c.n, b[:c.n], c.want[:c.n])
				break
			}
		}
	}
}

// TestNNLSClampsNegative: where the unconstrained optimum has a negative
// constrained coefficient, nnls holds it at exactly 0 and refits the rest.
func TestNNLSClampsNegative(t *testing.T) {
	// A falling line: slope clamped, intercept the mean of y.
	var rows [3][maxCoef]float64
	y := [3]float64{-1, -2, -3}
	for i := range rows {
		rows[i] = [maxCoef]float64{float64(i), 1}
	}
	if got := nnls(rows[:], y[:], 2); got[0] != 0 || math.Abs(got[1]+2) > 1e-9 {
		t.Errorf("falling line: nnls = %v, want [0 -2]", got[:2])
	}
	// A concave count: the X² coefficient is clamped.
	grid, gy := probe(3, 0.2, 1, [3]float64{-1, 2, 0}, 1)
	if got := nnls(grid[:], gy[:], 3); got[0] != 0 || got[1] < 0 {
		t.Errorf("concave count: nnls = %v, want a zero X² coefficient", got)
	}
}

// TestNNLSFreeIntercept: y = -3 + 0·x, slope constrained >= 0, intercept
// free to go negative.
func TestNNLSFreeIntercept(t *testing.T) {
	var rows [5][maxCoef]float64
	var y [5]float64
	for i := range rows {
		rows[i] = [maxCoef]float64{float64(i), 1}
		y[i] = -3
	}
	if got := nnls(rows[:], y[:], 2); math.Abs(got[0]) > 1e-8 || math.Abs(got[1]+3) > 1e-6 {
		t.Errorf("nnls = %v, want [0 -3]", got[:2])
	}
}

// Property: nnls never violates a sign constraint and never returns a
// worse residual than the zero vector.
func TestNNLSProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 8+r.Intn(10), 1+r.Intn(maxCoef)
		rows := make([][maxCoef]float64, m)
		y := make([]float64, m)
		for i := range rows {
			for j := 0; j < n; j++ {
				rows[i][j] = r.NormFloat64()
			}
			y[i] = r.NormFloat64()
		}
		b := nnls(rows, y, n)
		for j := 0; j < n-1; j++ {
			if b[j] < 0 {
				return false
			}
		}
		return residual(rows, y, b, n) <= residual(rows, y, [maxCoef]float64{}, n)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestNNLSKKT checks the KKT conditions on generated probes — random
// intervals, counts of random sign and curvature, concave ones included
// so that a sign constraint binds: at the solution a free coefficient has
// zero gradient and a constrained zero has no descent direction into the
// feasible side.
func TestNNLSKKT(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var bound int
	for trial := 0; trial < 2000; trial++ {
		n := 2 + trial%2 // C2 and C4
		lo := r.Float64() * 0.9
		hi := lo + (1-lo)*math.Max(r.Float64(), 1e-3)
		c := [3]float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		rows, y := probe(n, lo, hi, c, math.Pow(10, 6*r.Float64()))
		b := nnls(rows[:], y[:], n)
		for j := 0; j < n; j++ {
			// grad_j = Σ_i A_ij (A_i·b − y_i), against the scale of its terms.
			var grad, scale float64
			for i := range rows {
				var fit, abs float64
				for k := 0; k < n; k++ {
					fit += rows[i][k] * b[k]
					abs += math.Abs(rows[i][k] * b[k])
				}
				grad += rows[i][j] * (fit - y[i])
				scale += math.Abs(rows[i][j]) * (abs + math.Abs(y[i]))
			}
			tol := 1e-8 * scale
			switch {
			case j < n-1 && b[j] < 0:
				t.Fatalf("trial %d: b[%d] = %v < 0", trial, j, b[j])
			case j < n-1 && b[j] == 0:
				bound++
				if grad < -tol {
					t.Fatalf("trial %d: constrained b[%d] = 0 with descent gradient %v (tol %v), b = %v", trial, j, grad, tol, b)
				}
			case math.Abs(grad) > tol:
				t.Fatalf("trial %d: free b[%d] = %v has gradient %v (tol %v)", trial, j, b[j], grad, tol)
			}
		}
	}
	if bound == 0 {
		t.Fatal("no generated probe bound a sign constraint")
	}
	t.Logf("%d constrained zeros", bound)
}
