package sim

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/rng"
)

// stream returns a fresh arrival stream keyed by seed.
func stream(seed int64) *rng.Stream {
	s := rng.NewStream(seed)
	return &s
}

// TestArrivalProcessesMeanRate checks that both processes deliver the configured mean rate (within sampling tolerance over a
// long horizon), so scenarios comparing temporal structure hold offered
// load constant.
func TestArrivalProcessesMeanRate(t *testing.T) {
	const horizon, rate = 4000.0, 2.0
	specs := map[string]ArrivalSpec{
		"poisson": {Process: processPoisson, Rate: rate},
		"bursty":  {Process: processBursty, Rate: rate, OnFraction: 0.2, Cycle: 40},
	}
	for name, spec := range specs {
		spec, err := spec.normalized(horizon)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		times := spec.times(nil, stream(42), horizon)
		got := float64(len(times)) / horizon
		if math.Abs(got-rate) > 0.25*rate {
			t.Errorf("%s: observed rate %.3f, want ~%.1f", name, got, rate)
		}
		if !sort.Float64sAreSorted(times) {
			t.Errorf("%s: arrival times not sorted", name)
		}
		for _, x := range times {
			if x < 0 || x >= horizon {
				t.Errorf("%s: arrival %g outside [0, %g)", name, x, horizon)
				break
			}
		}
	}
}

// TestArrivalsDeterministic: the same stream key reproduces the same
// arrival instants.
func TestArrivalsDeterministic(t *testing.T) {
	spec, err := ArrivalSpec{Process: processBursty, Rate: 3}.normalized(100)
	if err != nil {
		t.Fatal(err)
	}
	a := spec.times(nil, stream(7), 100)
	b := spec.times(nil, stream(7), 100)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestBurstyIsBurstier: at equal mean rate, the bursty process must
// have a higher interarrival coefficient of variation than Poisson
// (CV 1) — the property the admission tests lean on.
func TestBurstyIsBurstier(t *testing.T) {
	const horizon, rate = 4000.0, 2.0
	cv := func(times []float64) float64 {
		var gaps []float64
		for i := 1; i < len(times); i++ {
			gaps = append(gaps, times[i]-times[i-1])
		}
		var sum float64
		for _, g := range gaps {
			sum += g
		}
		mean := sum / float64(len(gaps))
		var ss float64
		for _, g := range gaps {
			ss += (g - mean) * (g - mean)
		}
		return math.Sqrt(ss/float64(len(gaps))) / mean
	}
	pois, _ := ArrivalSpec{Process: processPoisson, Rate: rate}.normalized(horizon)
	burst, _ := ArrivalSpec{Process: processBursty, Rate: rate, OnFraction: 0.2, Cycle: 40}.normalized(horizon)
	cvP := cv(pois.times(nil, stream(3), horizon))
	cvB := cv(burst.times(nil, stream(3), horizon))
	if cvB <= cvP*1.2 {
		t.Errorf("bursty CV %.3f not clearly above poisson CV %.3f", cvB, cvP)
	}
}

// TestArrivalOrderMatchesComparator: compareArrivals sorts generated
// arrivals, many of them tied in time (signed zeros included), into
// exactly the order the reflective sort.Slice comparator it replaced
// gives — element for element, template pointer included.
func TestArrivalOrderMatchesComparator(t *testing.T) {
	src := stream(11)
	tmpls := make([]template, 8)
	times := []float64{math.Copysign(0, -1), 0, 0.25, 0.25, 0.5, 1, 1, 2}
	for trial := 0; trial < 50; trial++ {
		var arrs []arrival
		for ti := 0; ti < 1+src.Intn(40); ti++ {
			for k := 0; k < src.Intn(12); k++ {
				arrs = append(arrs, arrival{
					at: times[src.Intn(len(times))], tenant: int32(ti), ord: uint32(k),
					tmpl: &tmpls[src.Intn(len(tmpls))],
				})
			}
		}
		for i := len(arrs) - 1; i > 0; i-- {
			j := src.Intn(i + 1)
			arrs[i], arrs[j] = arrs[j], arrs[i]
		}
		want := slices.Clone(arrs)
		sort.Slice(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.tenant != b.tenant {
				return a.tenant < b.tenant
			}
			return a.ord < b.ord
		})
		slices.SortFunc(arrs, compareArrivals)
		for i := range arrs {
			if arrs[i] != want[i] || math.Signbit(arrs[i].at) != math.Signbit(want[i].at) {
				t.Fatalf("trial %d, position %d: %+v, want %+v", trial, i, arrs[i], want[i])
			}
		}
	}
}
