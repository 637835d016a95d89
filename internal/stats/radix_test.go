package stats

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sortSizes straddles the cutoff, where the kernel switches from
// slices.Sort to the radix passes.
var sortSizes = []int{0, 1, 2, 3, 17, 1024, radixCutoff - 1, radixCutoff, radixCutoff + 1, 5000}

// int64Cases are the shapes the kernel must sort like slices.Sort, at
// length n: random, heavy duplicates, presorted, reversed, the extremes
// of the type, and keys that agree on every byte but one (one pass).
func int64Cases(n int, r *rand.Rand) map[string][]int64 {
	cases := map[string][]int64{}
	add := func(name string, f func(i int) int64) {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		cases[name] = xs
	}
	add("random", func(int) int64 { return int64(r.Uint64()) })
	add("duplicates", func(int) int64 { return int64(r.Intn(5)) - 2 })
	add("presorted", func(i int) int64 { return int64(i) * 3 })
	add("reversed", func(i int) int64 { return int64(n-i) * 7 })
	add("negatives", func(int) int64 { return -int64(r.Intn(1 << 20)) })
	extremes := []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1, -1, 0, 1}
	add("extremes", func(int) int64 { return extremes[r.Intn(len(extremes))] })
	add("one byte", func(int) int64 { return 0x1234_5600_0000_0000 | int64(r.Intn(256))<<24 })
	return cases
}

func TestSortInt64sMatchesSlicesSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var scratch []uint64
	for _, n := range sortSizes {
		for name, xs := range int64Cases(n, r) {
			want := slices.Clone(xs)
			slices.Sort(want)
			scratch = SortInt64s(xs, scratch)
			if !slices.Equal(xs, want) {
				t.Errorf("n=%d %s: radix order differs from slices.Sort", n, name)
			}
		}
	}
}

// floatRef is slices.Sort with the kernel's order of zeros: −0 first.
func floatRef(xs []float64) []float64 {
	ref := slices.Clone(xs)
	slices.SortFunc(ref, func(a, b float64) int {
		if c := cmp.Compare(a, b); c != 0 {
			return c
		}
		switch sa, sb := math.Signbit(a), math.Signbit(b); {
		case sa && !sb:
			return -1
		case sb && !sa:
			return 1
		}
		return 0
	})
	return ref
}

// checkFloats holds got, the kernel's sort of in, bit for bit to
// floatRef(in), and value for value to slices.Sort.
func checkFloats(t *testing.T, label string, in, got []float64) {
	t.Helper()
	want := floatRef(in)
	plain := slices.Clone(in)
	slices.Sort(plain)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) || got[i] != plain[i] {
			t.Errorf("%s: at %d got %v, want %v (slices.Sort %v)", label, i, got[i], want[i], plain[i])
			return
		}
	}
}

func TestSortFloat64sMatchesSlicesSort(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	special := []float64{
		math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, -0x1p-1030, // subnormal
		math.MaxFloat64, -math.MaxFloat64, 1, -1,
	}
	var scratch []uint64
	for _, n := range sortSizes {
		cases := map[string]func(i int) float64{
			"latencies":  func(int) float64 { return r.ExpFloat64() * 0.3 },
			"signed":     func(int) float64 { return r.NormFloat64() * 1e3 },
			"specials":   func(int) float64 { return special[r.Intn(len(special))] },
			"subnormals": func(int) float64 { return math.Float64frombits(r.Uint64()>>12) * float64(1-2*r.Intn(2)) },
			"presorted":  func(i int) float64 { return float64(i) - float64(n)/2 },
			"reversed":   func(i int) float64 { return float64(n-i) * 0.5 },
			"duplicates": func(int) float64 { return float64(r.Intn(4)) - 1.5 },
		}
		for name, f := range cases {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = f(i)
			}
			in := slices.Clone(xs)
			scratch = SortFloat64s(xs, scratch)
			checkFloats(t, fmt.Sprintf("n=%d %s", n, name), in, xs)
		}
	}
}

// TestSortScratchReused holds the scratch contract: a buffer large
// enough comes back as it went in, a short one comes back grown.
func TestSortScratchReused(t *testing.T) {
	xs := make([]int64, 3*radixCutoff)
	for i := range xs {
		xs[i] = int64(len(xs) - i)
	}
	scratch := SortInt64s(xs, nil)
	if cap(scratch) < len(xs) {
		t.Fatalf("scratch not grown: cap %d for %d keys", cap(scratch), len(xs))
	}
	again := SortInt64s(xs[:2*radixCutoff], scratch)
	if &again[:1][0] != &scratch[:1][0] {
		t.Error("a large enough scratch buffer was replaced")
	}
	if allocs := testing.AllocsPerRun(5, func() { SortInt64s(xs, scratch) }); allocs != 0 {
		t.Errorf("a sort with its scratch allocates %v times", allocs)
	}
}

// FuzzRadixSort holds both entry points to the reference sorts on keys
// built from the fuzzer's bytes: the words tiled reps+1 times, each tile
// shifted by step, so short inputs reach past the cutoff too.
func FuzzRadixSort(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0), int64(0))
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\x7f\x00\x00\x00\x00\x00\x00\x00\x80"), uint8(200), int64(1))
	f.Add(make([]byte, 64), uint8(255), int64(-1<<40))
	f.Add([]byte("0123456789abcdefghijklmnopqrstuv"), uint8(130), int64(0x0101010101))
	f.Fuzz(func(t *testing.T, data []byte, reps uint8, step int64) {
		m := min(len(data)/8, 512) // at most 131,072 keys
		if m == 0 {
			return
		}
		ints := make([]int64, m*(int(reps)+1))
		floats := make([]float64, 0, len(ints))
		for i := range ints {
			ints[i] = int64(binary.LittleEndian.Uint64(data[8*(i%m):])) + int64(i/m)*step
			if v := math.Float64frombits(uint64(ints[i])); !math.IsNaN(v) {
				floats = append(floats, v)
			}
		}
		want := slices.Clone(ints)
		slices.Sort(want)
		SortInt64s(ints, nil)
		if !slices.Equal(ints, want) {
			t.Fatalf("%d int64 keys: radix order differs from slices.Sort", len(ints))
		}
		in := slices.Clone(floats)
		SortFloat64s(floats, nil)
		checkFloats(t, fmt.Sprintf("%d float64 keys", len(floats)), in, floats)
	})
}

// BenchmarkSortKeys sweeps the length across the cutoff, radix passes
// against slices.Sort on the same keys, at two widths: "3B" keys are
// uniform in [0, 2^24), three radix passes like the catalog's columns;
// "8B" keys are the mapped bits of exponential latencies, which differ
// in every byte like the simulator's samples. The cutoff is where radix
// starts to win on both.
func BenchmarkSortKeys(b *testing.B) {
	for _, width := range []string{"3B", "8B"} {
		for _, n := range []int{16, 128, 256, 512, 1024, 1536, 2048, 8192, 80000} {
			r := rand.New(rand.NewSource(int64(n)))
			src := make([]uint64, n)
			for i := range src {
				src[i] = uint64(r.Intn(1 << 24))
				if width == "8B" {
					src[i] = math.Float64bits(r.ExpFloat64()) | signBit
				}
			}
			keys, scratch := make([]uint64, n), make([]uint64, n)
			b.Run(fmt.Sprintf("%s/n=%d/radix", width, n), func(b *testing.B) {
				for b.Loop() {
					copy(keys, src)
					radixKeys(keys, scratch)
				}
			})
			b.Run(fmt.Sprintf("%s/n=%d/pdqsort", width, n), func(b *testing.B) {
				for b.Loop() {
					copy(keys, src)
					slices.Sort(keys)
				}
			})
		}
	}
}
