package sample

import (
	"math"
	"math/rand"
	"testing"
)

// addNaive is what addRepeated stands for: m sequential additions.
func addNaive(s, x float64, m int) float64 {
	for ; m > 0; m-- {
		s += x
	}
	return s
}

// checkAddRepeated requires addRepeated(s, x, m) to equal the naive loop
// bit for bit.
func checkAddRepeated(t *testing.T, s, x float64, m int) {
	t.Helper()
	if got, want := addRepeated(s, x, m), addNaive(s, x, m); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("addRepeated(%x, %x, %d) = %x, want %x", s, x, m, got, want)
	}
}

// TestAddRepeatedBitExact holds addRepeated to the naive loop on inputs
// chosen to break it — a sum starting at zero, an addend larger than the
// sum, addends on an exact half ulp of the sum's binade (where
// ties-to-even reads the sum's parity), addends too small to move the
// sum, crossings of many binades and of the subnormal edge, counts up to
// 3e6 — and on random ones built the same ways.
func TestAddRepeatedBitExact(t *testing.T) {
	one := 1.0
	odd := math.Nextafter(one, 2) // 1 + 2^-52: an odd sum in [1, 2)
	half := 0x1p-53               // half an ulp of [1, 2)
	fixed := []struct {
		s, x float64
		m    int
	}{
		{0, 0.1, 3_000_000},
		{0, 1e-12, 3_000_000},
		{0, 5e-324, 3_000_000}, // subnormal steps up to the normal range
		{0, 0x1p-1030, 1 << 20},
		{0, 3, 1000},
		{1, 3, 100},            // x > s
		{1e-300, 1e300, 10},    // x far above s
		{odd, half, 10},        // one tie rounds up to even, then nothing moves
		{one, half, 10},        // the tie rounds down: s never moves
		{odd, 3 * half, 1000},  // every addition a tie: increments of 1 and 2 ulps
		{one, 3 * half, 1000},  // the same from an even start
		{odd, 5 * half, 4097},  // 2 and 3 ulps alternate until settled
		{one, 0x1p-54, 100000}, // below half an ulp: stagnation
		{0.75, 0x1p-53, 2_500_000},
		{0.999, 1e-9, 3_000_000}, // crosses 1 and 2 on the way
		{1 << 52, 0.5, 1000},     // half-integer ties at the ulp of 1
		{1 << 52, 1.5, 1000},
		{math.MaxFloat64 / 2, math.MaxFloat64 / 8, 20}, // runs into +Inf
		{0, 0, 10},
		{2, 1, 0},
	}
	for _, c := range fixed {
		checkAddRepeated(t, c.s, c.x, c.m)
	}

	r := rand.New(rand.NewSource(36))
	// binade returns a random float of the binade [2^e, 2^(e+1)).
	binade := func(e int) float64 { return math.Ldexp(1+r.Float64(), e) }
	for i := 0; i < 3000; i++ {
		e := r.Intn(80) - 40
		var s, x float64
		switch i % 5 {
		case 0: // from zero
			x = binade(e)
		case 1: // addend above the sum
			s, x = binade(e), binade(e+1+r.Intn(10))
		case 2: // an odd multiple of half the ulp of s's binade: exact ties
			s = binade(e)
			x = float64(2*r.Intn(1<<12)+1) * math.Ldexp(1, e-53)
		case 3: // below half an ulp, or a few ulps
			s = binade(e)
			x = math.Ldexp(1+r.Float64(), e-53-r.Intn(4))
		default: // a small addend crossing binades
			s, x = binade(e), binade(e-10-r.Intn(30))
		}
		m := r.Intn(5000)
		if i%100 == 0 {
			m = r.Intn(3_000_000)
		}
		checkAddRepeated(t, s, x, m)
	}
}

// FuzzAddRepeated holds addRepeated to the naive loop for any
// non-negative finite sum and addend and up to 65535 additions.
func FuzzAddRepeated(f *testing.F) {
	f.Fuzz(func(t *testing.T, s, x float64, m uint16) {
		s, x = math.Abs(s), math.Abs(x)
		if math.IsNaN(s) || math.IsInf(s, 0) || math.IsNaN(x) || math.IsInf(x, 0) {
			return
		}
		checkAddRepeated(t, s, x, int(m))
	})
}
