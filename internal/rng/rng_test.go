package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// oldExecSeed is the pre-seam derivation verbatim (api.go's execSeed
// before it delegated here): hash/fnv over qname·\x00·plansig, XOR
// seed+3, splitmix finalizer. ExecKey must match it bit for bit or
// every v1 golden breaks.
func oldExecSeed(seed int64, qname, plansig string) int64 {
	h := fnv.New64a()
	h.Write([]byte(qname))
	h.Write([]byte{0})
	h.Write([]byte(plansig))
	z := uint64(seed+3) ^ h.Sum64()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	return int64(z)
}

func TestExecKeyMatchesHistoricalDerivation(t *testing.T) {
	cases := []struct {
		seed           int64
		qname, plansig string
	}{
		{0, "", ""},
		{1, "q", "sig"},
		{5, "tenant/template#00042", "J(J(S(t0),S(t1)),S(t2))"},
		{-7, "weird\x00name", "sig\x00with\x00zeros"},
		{1 << 40, "α-unicode", "π"},
	}
	for _, c := range cases {
		if got, want := ExecKey(c.seed, c.qname, c.plansig), oldExecSeed(c.seed, c.qname, c.plansig); got != want {
			t.Errorf("ExecKey(%d, %q, %q) = %d, want %d", c.seed, c.qname, c.plansig, got, want)
		}
	}
}

func TestStreamDeterministicPerKey(t *testing.T) {
	a, b := NewStream(42), NewStream(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal keys diverged at draw %d", i)
		}
	}
	c := NewStream(43)
	a = NewStream(42)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with distinct keys coincided on %d/100 draws", same)
	}
}

func TestStreamFloat64Range(t *testing.T) {
	s := NewStream(7)
	for i := 0; i < 10000; i++ {
		if f := s.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 draw %d = %g out of [0,1)", i, f)
		}
	}
}

func TestStreamIntnBoundsAndUniformity(t *testing.T) {
	s := NewStream(9)
	const n, draws = 7, 70000
	var counts [n]int
	for i := 0; i < draws; i++ {
		v := s.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d out of range", n, v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < draws/n*8/10 || c > draws/n*12/10 {
			t.Errorf("Intn bucket %d: %d draws, want ~%d", i, c, draws/n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0): want panic")
		}
	}()
	s.Intn(0)
}

// TestStreamMoments pins the distributions the measurement path relies
// on: NormFloat64 ~ N(0,1), ExpFloat64 ~ Exp(1), Float64 ~ U[0,1).
func TestStreamMoments(t *testing.T) {
	s := NewStream(11)
	const n = 200000
	var sumN, sumN2, sumE, sumU float64
	for i := 0; i < n; i++ {
		x := s.NormFloat64()
		sumN += x
		sumN2 += x * x
		sumE += s.ExpFloat64()
		sumU += s.Float64()
	}
	if mean := sumN / n; math.Abs(mean) > 0.01 {
		t.Errorf("NormFloat64 mean = %g, want ~0", mean)
	}
	if v := sumN2 / n; math.Abs(v-1) > 0.02 {
		t.Errorf("NormFloat64 variance = %g, want ~1", v)
	}
	if mean := sumE / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("ExpFloat64 mean = %g, want ~1", mean)
	}
	if mean := sumU / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %g, want ~0.5", mean)
	}
}

func BenchmarkStreamSeedAndDraw(b *testing.B) {
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		s := NewStream(int64(i))
		sink += s.NormFloat64()
	}
	_ = sink
}

func BenchmarkMathRandSeedAndDraw(b *testing.B) {
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		sink += r.NormFloat64()
	}
	_ = sink
}
