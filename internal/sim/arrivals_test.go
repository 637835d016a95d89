package sim

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// stream returns a fresh arrival stream keyed by seed.
func stream(seed int64) *rng.Stream {
	s := rng.NewStream(seed)
	return &s
}

// TestArrivalProcessesMeanRate checks that every synthetic process
// delivers the configured mean rate (within sampling tolerance over a
// long horizon), so scenarios comparing temporal structure hold offered
// load constant.
func TestArrivalProcessesMeanRate(t *testing.T) {
	const horizon, rate = 4000.0, 2.0
	specs := map[string]ArrivalSpec{
		"poisson": {Process: ProcessPoisson, Rate: rate},
		"bursty":  {Process: ProcessBursty, Rate: rate, OnFraction: 0.2, Cycle: 40},
		"diurnal": {Process: ProcessDiurnal, Rate: rate, Amplitude: 0.8, Period: 500},
	}
	for name, spec := range specs {
		spec, err := spec.normalized(horizon)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		times := spec.times(stream(42), horizon)
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
	spec, err := ArrivalSpec{Process: ProcessBursty, Rate: 3}.normalized(100)
	if err != nil {
		t.Fatal(err)
	}
	a := spec.times(stream(7), 100)
	b := spec.times(stream(7), 100)
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
	pois, _ := ArrivalSpec{Process: ProcessPoisson, Rate: rate}.normalized(horizon)
	burst, _ := ArrivalSpec{Process: ProcessBursty, Rate: rate, OnFraction: 0.2, Cycle: 40}.normalized(horizon)
	cvP := cv(pois.times(stream(3), horizon))
	cvB := cv(burst.times(stream(3), horizon))
	if cvB <= cvP*1.2 {
		t.Errorf("bursty CV %.3f not clearly above poisson CV %.3f", cvB, cvP)
	}
}
