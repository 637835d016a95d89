package calib

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

func observeAll(a *Accumulator, obs [][3]float64) {
	for _, o := range obs {
		a.Observe(o[0], o[1], o[2])
	}
}

func synth(n int, seed int64) [][3]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][3]float64, n)
	for i := range out {
		mean := 0.5 + rng.Float64()
		sigma := 0.05 + 0.1*rng.Float64()
		obs := mean + sigma*rng.NormFloat64()
		out[i] = [3]float64{mean, sigma, obs}
	}
	return out
}

// Merging the same disjoint shards in any order must agree: integer
// tallies exactly, floating-point moments to high relative accuracy.
func TestMergeOrderInvariance(t *testing.T) {
	obs := synth(4000, 11)
	shards := make([]Accumulator, 8)
	for i, o := range obs {
		shards[i%len(shards)].Observe(o[0], o[1], o[2])
	}

	var fwd Accumulator
	for i := range shards {
		s := shards[i]
		fwd.Merge(&s)
	}
	var rev Accumulator
	for i := len(shards) - 1; i >= 0; i-- {
		s := shards[i]
		rev.Merge(&s)
	}
	// Pairwise tree merge, a third order.
	tree := make([]Accumulator, len(shards))
	copy(tree, shards)
	for len(tree) > 1 {
		var next []Accumulator
		for i := 0; i < len(tree); i += 2 {
			a := tree[i]
			if i+1 < len(tree) {
				a.Merge(&tree[i+1])
			}
			next = append(next, a)
		}
		tree = next
	}

	for _, other := range []*Accumulator{&rev, &tree[0]} {
		if fwd.n != other.n || fwd.relN != other.relN || fwd.within != other.within {
			t.Fatalf("integer tallies diverge across merge orders: %+v vs %+v", fwd, *other)
		}
		mf, mo := fwd.Metrics(), other.Metrics()
		approx := func(name string, a, b float64) {
			if diff := math.Abs(a - b); diff > 1e-9*(1+math.Abs(a)) {
				t.Errorf("%s diverges across merge orders: %v vs %v", name, a, b)
			}
		}
		approx("mape", mf.MAPE, mo.MAPE)
		approx("bias", mf.Bias, mo.Bias)
		approx("mean_z", mf.MeanZ, mo.MeanZ)
		approx("pearson_r", mf.PearsonR, mo.PearsonR)
	}
}

// A sequential accumulator and a sharded-then-merged one must agree on
// the same stream.
func TestMergeMatchesSequential(t *testing.T) {
	obs := synth(5000, 7)
	var seq Accumulator
	observeAll(&seq, obs)

	var a, b Accumulator
	observeAll(&a, obs[:1777])
	observeAll(&b, obs[1777:])
	a.Merge(&b)

	ms, mm := seq.Metrics(), a.Metrics()
	if ms.N != mm.N {
		t.Fatalf("n: %d vs %d", ms.N, mm.N)
	}
	approx := func(name string, x, y float64) {
		if diff := math.Abs(x - y); diff > 1e-9*(1+math.Abs(x)) {
			t.Errorf("%s: sequential %v vs merged %v", name, x, y)
		}
	}
	approx("mape", ms.MAPE, mm.MAPE)
	approx("bias", ms.Bias, mm.Bias)
	approx("pearson_r", ms.PearsonR, mm.PearsonR)
	for i := range ms.Coverage {
		if ms.Coverage[i] != mm.Coverage[i] {
			t.Errorf("coverage[%d]: %+v vs %+v", i, ms.Coverage[i], mm.Coverage[i])
		}
	}
}

// Welford-style updates must stay numerically sane at a million
// observations with a large common offset — the naive sum-of-squares
// formulation loses catastrophically here.
func TestNumericalStabilityMillionObservations(t *testing.T) {
	if testing.Short() {
		t.Skip("1e6 observations")
	}
	const n = 1_000_000
	const offset = 1e6 // seconds: huge relative to the 1e-3 spread
	rng := rand.New(rand.NewSource(3))
	var a Accumulator
	for i := 0; i < n; i++ {
		mean := offset + 1e-3*rng.Float64()
		obs := mean + 1e-4*rng.NormFloat64()
		a.Observe(mean, 1e-4, obs)
	}
	m := a.Metrics()
	if m.N != n {
		t.Fatalf("n = %d", m.N)
	}
	// Predicted and observed are strongly correlated by construction.
	if m.PearsonR < 0.9 || m.PearsonR > 1 {
		t.Errorf("pearson_r = %v, want in (0.9, 1]", m.PearsonR)
	}
	// Residuals are symmetric N(0, 1e-4): bias stays tiny relative to
	// the offset, MAPE tiny in absolute terms.
	if math.Abs(m.Bias) > 1e-5 {
		t.Errorf("bias = %v, want |bias| <= 1e-5", m.Bias)
	}
	if m.MAPE <= 0 || m.MAPE > 1e-6 {
		t.Errorf("mape = %v, want small positive", m.MAPE)
	}
	if math.Abs(m.MeanZ) > 0.01 {
		t.Errorf("mean_z = %v, want near 0", m.MeanZ)
	}
	// ~90% of observations inside the 90% interval.
	if c := m.Coverage[1].Observed; c < 0.88 || c > 0.92 {
		t.Errorf("coverage@90 = %v, want ~0.9", c)
	}
	for _, v := range []float64{m.MAPE, m.Bias, m.MeanZ, m.PearsonR} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite metric: %+v", m)
		}
	}
}

// Zero- and one-observation accumulators must report all-finite
// metrics (no 0/0), including the sigma=0 and observed=0 edge cases.
func TestMetricsFiniteOnTinyCounts(t *testing.T) {
	check := func(name string, m Metrics) {
		t.Helper()
		vals := []float64{m.MAPE, m.Bias, m.MeanZ, m.PearsonR}
		for i := range m.Coverage {
			vals = append(vals, m.Coverage[i].Nominal, m.Coverage[i].Observed, m.Coverage[i].Drift)
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: non-finite metric in %+v", name, m)
			}
		}
	}
	var empty Accumulator
	m := empty.Metrics()
	check("empty", m)
	if m.N != 0 || len(m.Coverage) != len(coverageLevels) {
		t.Fatalf("empty metrics malformed: %+v", m)
	}

	var one Accumulator
	one.Observe(1.0, 0.1, 1.05)
	m = one.Metrics()
	check("one", m)
	if m.N != 1 || m.PearsonR != 0 {
		t.Fatalf("one-observation metrics: %+v", m)
	}

	var degenerate Accumulator
	degenerate.Observe(1.0, 0, 0) // sigma=0 and observed=0 together
	degenerate.Observe(1.0, 0, 0)
	check("degenerate", degenerate.Metrics())

	var constant Accumulator // constant predictions: zero variance side
	constant.Observe(2, 0.5, 1.9)
	constant.Observe(2, 0.5, 2.2)
	m = constant.Metrics()
	check("constant", m)
	if m.PearsonR != 0 {
		t.Fatalf("constant predictions must report r=0, got %v", m.PearsonR)
	}
}

// Coverage counts match the definition: inside the central interval at
// each level, boundaries inclusive, sigma=0 collapsing to equality.
func TestCoverageSemantics(t *testing.T) {
	var a Accumulator
	a.Observe(1.0, 0.1, 1.0)  // center: inside all levels
	a.Observe(1.0, 0.1, 1.1)  // 1 sigma: outside 50%, inside 90/95
	a.Observe(1.0, 0.1, 10.0) // far out: outside all
	a.Observe(1.0, 0, 1.0)    // sigma=0: interval collapses to the mean
	a.Observe(1.0, 0, 1.01)   // sigma=0, off the mean: outside
	m := a.Metrics()
	want := [3]float64{2.0 / 5, 3.0 / 5, 3.0 / 5}
	for i := range want {
		if math.Abs(m.Coverage[i].Observed-want[i]) > 1e-12 {
			t.Errorf("coverage[%d] = %v, want %v", i, m.Coverage[i].Observed, want[i])
		}
	}
}

// TestCoverageMatchesNormalInterval holds Observe's precomputed z-values
// to stats.Normal.Interval on a generated grid: σ zero, subnormal,
// ordinary and huge; μ negative, zero and positive; observations on
// either side of each interval bound, exactly on it, and far off. The
// within counts must be equal, observation for observation.
func TestCoverageMatchesNormalInterval(t *testing.T) {
	sigmas := []float64{0, math.SmallestNonzeroFloat64, 1e-310, 1e-9, 0.1, 1, 3.7, 1e150, math.MaxFloat64 / 4}
	mus := []float64{-1e6, -2.5, -math.SmallestNonzeroFloat64, 0, 1e-300, 0.75, 1, 42, 1e200}
	var got Accumulator
	var want [len(coverageLevels)]int64
	n := 0
	for _, mu := range mus {
		for _, sigma := range sigmas {
			dist := stats.Normal{Mu: mu, Sigma: sigma}
			var obs []float64
			for _, level := range coverageLevels {
				lo, hi := dist.Interval(level)
				for _, b := range []float64{lo, hi} {
					obs = append(obs, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)))
				}
			}
			obs = append(obs, mu, -math.MaxFloat64, math.MaxFloat64, 0)
			for _, o := range obs {
				got.Observe(mu, sigma, o)
				n++
				for i, level := range coverageLevels {
					if lo, hi := dist.Interval(level); o >= lo && o <= hi {
						want[i]++
					}
				}
			}
		}
	}
	if got.within != want {
		t.Fatalf("within counts over %d observations: %v, want %v (stats.Normal.Interval)", n, got.within, want)
	}
}

// TestObserveZeroAllocs: Observe is on the simulator's per-execution
// path twice (the machine's accumulator and the serving layer's drift
// feedback).
func TestObserveZeroAllocs(t *testing.T) {
	var a Accumulator
	if allocs := testing.AllocsPerRun(1000, func() { a.Observe(1.0, 0.1, 1.05) }); allocs != 0 {
		t.Fatalf("Observe allocates %.1f times per call", allocs)
	}
}
