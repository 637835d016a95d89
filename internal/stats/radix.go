package stats

import (
	"slices"
	"unsafe"
)

// radixCutoff is the length below which sortKeys hands its keys to
// slices.Sort, whose cost per key is lower on short inputs than the
// radix passes' fixed cost. BenchmarkSortKeys sweeps the length on a
// 2-core x86-64 box: keys three bytes wide break even near 512; keys
// that differ in all eight bytes between 1,536 (radix 1.25x slower) and
// 2,048 (radix 1.3x faster).
const radixCutoff = 2048

const signBit = 1 << 63

// SortInt64s sorts xs ascending. It is an LSD radix sort on the keys
// with their sign bit flipped, so that unsigned order is signed order;
// the result is the one ascending order, equal to slices.Sort's.
// scratch is the kernel's buffer: SortInt64s returns it, grown to
// len(xs) if it was shorter, for the next call to reuse.
func SortInt64s(xs []int64, scratch []uint64) []uint64 {
	keys := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs))
	for i, k := range keys {
		keys[i] = k ^ signBit
	}
	scratch = sortKeys(keys, scratch)
	for i, k := range keys {
		keys[i] = k ^ signBit
	}
	return scratch
}

// SortFloat64s sorts xs ascending in IEEE 754 order: each value's bits
// are mapped to a key whose unsigned order is the values' order
// (negatives have every bit flipped, the rest only the sign bit), and
// the keys are radix sorted. xs must hold no NaN; −0 sorts before +0,
// so the result is unique, where slices.Sort leaves zeros of either
// sign in any order. scratch is reused as in SortInt64s.
func SortFloat64s(xs []float64, scratch []uint64) []uint64 {
	keys := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs))
	for i, u := range keys {
		keys[i] = u ^ (uint64(int64(u)>>63) | signBit)
	}
	scratch = sortKeys(keys, scratch)
	for i, k := range keys {
		keys[i] = k ^ ((k>>63 - 1) | signBit)
	}
	return scratch
}

// sortKeys sorts keys ascending: by slices.Sort below radixCutoff,
// else by radixKeys. scratch is reused as in SortInt64s.
func sortKeys(keys, scratch []uint64) []uint64 {
	if len(keys) < radixCutoff {
		slices.Sort(keys)
		return scratch
	}
	return radixKeys(keys, scratch)
}

// radixKeys sorts keys ascending, least significant byte first, with
// scratch (grown to len(keys) if shorter, and returned) as the other
// side of each pass. A first pass ANDs and ORs the keys to find the
// bytes on which they differ; only those are sorted on, so keys that
// span a few bytes of range take a few passes. Each pass counts the
// next pass's byte while it scatters (the last counts one nothing reads).
func radixKeys(keys, scratch []uint64) []uint64 {
	n := len(keys)
	and, or := ^uint64(0), uint64(0)
	for _, k := range keys {
		and &= k
		or |= k
	}
	var shifts [8]uint
	passes := 0
	for shift := uint(0); shift < 64; shift += 8 {
		if byte((and^or)>>shift) != 0 {
			shifts[passes] = shift
			passes++
		}
	}
	if passes == 0 {
		return scratch
	}
	if cap(scratch) < n {
		scratch = make([]uint64, n)
	}
	var counts, next [256]int
	for _, k := range keys {
		counts[byte(k>>shifts[0])]++
	}
	src, dst := keys, scratch[:n]
	for p := range passes {
		shift, nshift := shifts[p], shifts[(p+1)%8]
		sum := 0
		for b, c := range counts {
			counts[b] = sum
			sum += c
		}
		next = [256]int{}
		for _, k := range src {
			b := byte(k >> shift)
			dst[counts[b]] = k
			counts[b]++
			next[byte(k>>nshift)]++
		}
		counts = next
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(keys, src)
	}
	return scratch
}
