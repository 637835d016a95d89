// Package rng is the measurement-stream seam: every source of
// per-execution randomness in the pipeline (measured plan times, sim
// arrival processes) draws through this package.
//
// Version 1 is the historical stream — math/rand's lagged-Fibonacci
// source seeded per execution — which a directly opened System still
// measures on by default. Version 2 is a counter-based splitmix64
// stream seeded directly from a 64-bit key: no ~607-word seeding
// ritual, no heap allocation, statistically equivalent draws (pinned by
// test at the root package). The simulator runs only Version 2, its
// arrival processes included. The key derivation (ExecKey) is shared
// by both versions and is bit-identical to the pre-seam execSeed, so
// v1 and v2 executions of the same (seed, query, plan) differ only in
// generator, never in seeding.
package rng

import (
	"math"
	"math/bits"
)

// Version selects a System's measurement-stream generation. The zero
// value is V1, so an unversioned Config keeps the historical stream.
type Version uint8

const (
	// V1 is the historical math/rand stream (the default of a directly
	// opened System).
	V1 Version = iota
	// V2 is the counter-based splitmix64 stream: zero-allocation,
	// no seeding warm-up, statistically equivalent to V1.
	V2
)

// FNV-1a constants (hash/fnv's 64-bit parameters), inlined so ExecKey
// hashes incrementally with zero allocation.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// ExecKey derives the deterministic per-execution stream key from the
// configured master seed and a fingerprint of the query and its plan —
// bit-identical to the historical execSeed (FNV-1a over
// qname·\x00·plansig, XOR seed+3, splitmix finalizer), but without the
// hash-object and byte-slice allocations: the parts are hashed
// incrementally. Two Systems with the same Config measure the same time
// for the same query; distinct queries get well-separated streams.
func ExecKey(seed int64, qname, plansig string) int64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(qname); i++ {
		h ^= uint64(qname[i])
		h *= fnvPrime64
	}
	// The \x00 separator: XOR with zero is the identity, so only the
	// multiply survives.
	h *= fnvPrime64
	for i := 0; i < len(plansig); i++ {
		h ^= uint64(plansig[i])
		h *= fnvPrime64
	}
	z := uint64(seed+3) ^ h
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	return int64(z)
}

// Stream is the V2 generator: splitmix64 over a counter, with a cached
// spare normal draw (Marsaglia polar). The zero value is a valid stream
// keyed by 0; NewStream keys one by an ExecKey. Streams are values —
// callers keep them on the stack and pass pointers, so a measurement
// draw allocates nothing.
type Stream struct {
	state    uint64
	spare    float64
	hasSpare bool
}

// NewStream returns a stream positioned at key's first draw.
func NewStream(key int64) Stream { return Stream{state: uint64(key)} }

// Uint64 advances the counter and returns the next 64 uniform bits
// (splitmix64: Weyl-sequence increment, two xor-multiply mixes).
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Float64 returns a uniform draw in [0, 1) with 53 bits of precision.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal draw via the Marsaglia polar
// method, caching the pair's second draw. (math/rand uses a ziggurat;
// the distributions agree, the streams do not — which is exactly what
// the version seam exists to manage.)
func (s *Stream) NormFloat64() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(q) / q)
		s.spare = v * f
		s.hasSpare = true
		return u * f
	}
}

// ExpFloat64 returns an Exp(1) draw by inversion.
func (s *Stream) ExpFloat64() float64 {
	return -math.Log(1 - s.Float64())
}

// Intn returns a uniform draw in [0, n) via Lemire's multiply-shift
// rejection. Panics if n <= 0, matching math/rand.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	hi, lo := bits.Mul64(s.Uint64(), uint64(n))
	if lo < uint64(n) {
		thresh := -uint64(n) % uint64(n) // (2^64 - n) mod n
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), uint64(n))
		}
	}
	return int(hi)
}
