package hardware

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/rng"
)

// measureFixture builds a small executed plan to draw measured times
// against.
func measureFixture(t testing.TB) *engine.OpResult {
	t.Helper()
	db := engine.NewDB()
	tab := engine.NewTable("t", []string{"x"}, 1000)
	for i := range 1000 {
		tab.Data[0][i] = int64(i)
	}
	db.Add(tab)
	plan := &engine.Node{Kind: engine.SeqScan, Table: "t"}
	plan.Finalize()
	res, err := engine.Run(db, plan)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMeasurePlanSeededV1BitCompatible pins the seam's whole reason to
// exist: the v1 path is the historical math/rand measurement bit for
// bit, so every golden pinned before the seam survives.
func TestMeasurePlanSeededV1BitCompatible(t *testing.T) {
	p := PC1()
	res := measureFixture(t)
	for key := int64(-3); key < 40; key += 7 {
		want := p.measurePlan(res, rand.New(rand.NewSource(key)))
		if got := p.MeasurePlanSeeded(res, rng.V1, key); got != want {
			t.Fatalf("key %d: v1 seeded = %v, historical = %v", key, got, want)
		}
	}
}

// TestRunIsFirstMeasuredRun holds the execute/measure split on both
// stream versions: MeasurePlanSeeded is the mean of averageRuns
// successive realizations on one stream, and the first of them is
// RunPlanSeeded's, bit for bit.
func TestRunIsFirstMeasuredRun(t *testing.T) {
	p := PC1()
	res := measureFixture(t)
	for key := int64(-3); key < 40; key += 7 {
		r := rand.New(rand.NewSource(key))
		s := rng.NewStream(key)
		realize := map[rng.Version]func() float64{
			rng.V1: func() float64 { return p.planTime(res, r) },
			rng.V2: func() float64 { return p.planTimeStream(res, &s) },
		}
		for v, next := range realize {
			var runs [averageRuns]float64
			var sum float64
			for i := range runs {
				runs[i] = next()
				sum += runs[i]
			}
			if got := p.RunPlanSeeded(res, v, key); got != runs[0] {
				t.Errorf("v%d key %d: RunPlanSeeded = %v, first realization = %v", v+1, key, got, runs[0])
			}
			if got, want := p.MeasurePlanSeeded(res, v, key), sum/averageRuns; got != want {
				t.Errorf("v%d key %d: MeasurePlanSeeded = %v, mean of %d realizations = %v", v+1, key, got, averageRuns, want)
			}
			if runs[0] == runs[1] {
				t.Errorf("v%d key %d: successive realizations coincide at %v", v+1, key, runs[0])
			}
		}
	}
}

// TestMeasurePlanSeededV2Deterministic: same (version, key) → same
// measured time; distinct keys → distinct times.
func TestMeasurePlanSeededV2Deterministic(t *testing.T) {
	p := PC2()
	res := measureFixture(t)
	a := p.MeasurePlanSeeded(res, rng.V2, 99)
	if b := p.MeasurePlanSeeded(res, rng.V2, 99); b != a {
		t.Fatalf("v2 not deterministic: %v vs %v", a, b)
	}
	if c := p.MeasurePlanSeeded(res, rng.V2, 100); c == a {
		t.Fatalf("distinct keys coincided: %v", a)
	}
	if a <= 0 {
		t.Fatalf("non-positive measured time %v", a)
	}
}

// TestMeasurePlanSeededVersionsAgreeInDistribution: v2 changes the
// generator, never the model — across many keys, the two versions'
// measured times must agree in mean and spread.
func TestMeasurePlanSeededVersionsAgreeInDistribution(t *testing.T) {
	p := PC1()
	res := measureFixture(t)
	const n = 2000
	var s1, s2, q1, q2 float64
	for key := int64(0); key < n; key++ {
		a := p.MeasurePlanSeeded(res, rng.V1, key)
		b := p.MeasurePlanSeeded(res, rng.V2, key)
		s1 += a
		s2 += b
		q1 += a * a
		q2 += b * b
	}
	m1, m2 := s1/n, s2/n
	if math.Abs(m1-m2)/m1 > 0.02 {
		t.Errorf("v1 mean %v vs v2 mean %v: differ by >2%%", m1, m2)
	}
	sd1 := math.Sqrt(q1/n - m1*m1)
	sd2 := math.Sqrt(q2/n - m2*m2)
	cv1, cv2 := sd1/m1, sd2/m2
	if math.Abs(cv1-cv2)/cv1 > 0.25 {
		t.Errorf("v1 CV %v vs v2 CV %v: differ by >25%%", cv1, cv2)
	}
}

// TestMeasurePlanSeededV2Allocs pins the v2 stream's zero-allocation
// claim at the layer that owns the hot loop, for one run (every
// execution) and for the five-run measurement.
func TestMeasurePlanSeededV2Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	p := PC1()
	res := measureFixture(t)
	for name, draw := range map[string]func(*engine.OpResult, rng.Version, int64) float64{
		"RunPlanSeeded":     p.RunPlanSeeded,
		"MeasurePlanSeeded": p.MeasurePlanSeeded,
	} {
		key := int64(0)
		allocs := testing.AllocsPerRun(200, func() {
			draw(res, rng.V2, key)
			key++
		})
		if allocs != 0 {
			t.Errorf("v2 %s allocates %.1f/op, want 0", name, allocs)
		}
	}
}

func BenchmarkMeasurePlanSeededV1(b *testing.B) {
	p := PC1()
	res := measureFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MeasurePlanSeeded(res, rng.V1, int64(i))
	}
}

func BenchmarkMeasurePlanSeededV2(b *testing.B) {
	p := PC1()
	res := measureFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MeasurePlanSeeded(res, rng.V2, int64(i))
	}
}
