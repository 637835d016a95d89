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
//
// ExecKey hashes qname·\x00·plansig with FNV-1a, and the plan half is
// memoized per plan (PlanKey) by a low-byte identity: an FNV-1a step
// XORs a byte into the state, which moves only the state's low 8 bits,
// so x ^ b = x + δ(x mod 256, b); and multiplying mod 2⁶⁴ derives the
// product's low 8 bits from the factors' low 8 bits alone. By
// induction, hashing a fixed suffix s from any state x ends at
//
//	x·P^|s| + C_s[x mod 256]  (mod 2⁶⁴)
//
// where P is the FNV prime and C_s is a 256-entry table that depends
// on s only.
package rng

import (
	"math"
	"math/bits"
	"sync/atomic"
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
	// The \x00 separator: XOR with zero is the identity, so only the
	// multiply survives.
	return finish(seed, fnv1a(fnv1a(fnvOffset64, qname)*fnvPrime64, plansig))
}

// fnv1a continues an FNV-1a hash from state h over the bytes of s.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// finish mixes the seed into a query-and-plan hash: XOR seed+3, then the
// splitmix finalizer.
func finish(seed int64, h uint64) int64 {
	z := uint64(seed+3) ^ h
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	return int64(z)
}

// Name is the FNV-1a state of an execution name hashed so far:
// ExecKey's query half, kept as a state so a caller that names many
// executions alike hashes their shared prefix once and each name's own
// tail only. NameOf(a).Add(b) == NameOf(a + b).
type Name uint64

// NameOf returns the state after hashing s.
func NameOf(s string) Name { return Name(fnv1a(fnvOffset64, s)) }

// Add continues the state over the bytes of s.
func (n Name) Add(s string) Name { return Name(fnv1a(uint64(n), s)) }

// AddDecimal continues the state over v's decimal digits, zero-padded
// on the left to width (at most 20): the bytes strconv formats v as,
// after the padding, without building them as a string.
func (n Name) AddDecimal(v uint64, width int) Name {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 && len(buf)-i >= width {
			break
		}
	}
	h := uint64(n)
	for _, c := range buf[i:] {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return Name(h)
}

// PlanKey is ExecKey with its plan half memoized: one per plan
// signature, shared by every execution of that plan, so a key costs the
// hash of the query name plus one multiply and one load. It keeps
// P^|s| for ExecKey's suffix s = \x00·plansig and fills C_s (see the
// package doc) lazily: a miss hashes s from the state x as ExecKey does
// and stores h_end − x·P^|s|. Entries are read and written atomically,
// and racing writers store the same value. A PlanKey is about 2 KiB.
type PlanKey struct {
	sig string
	pow uint64           // P^(1+len(sig))
	set [4]atomic.Uint64 // bit r set once c[r] is filled
	c   [256]atomic.Uint64
}

// NewPlanKey returns the memo for plan signature plansig, empty.
func NewPlanKey(plansig string) *PlanKey {
	pow := uint64(fnvPrime64)
	for range len(plansig) {
		pow *= fnvPrime64
	}
	return &PlanKey{sig: plansig, pow: pow}
}

// Key equals ExecKey(seed, qname, plansig) for the memo's plansig,
// given name = NameOf(qname): the name arrives hashed.
func (k *PlanKey) Key(seed int64, name Name) int64 {
	x := uint64(name)
	r := uint8(x)
	bit := uint64(1) << (r & 63)
	if k.set[r>>6].Load()&bit != 0 {
		return finish(seed, x*k.pow+k.c[r].Load())
	}
	h := fnv1a(x*fnvPrime64, k.sig)
	k.c[r].Store(h - x*k.pow)
	k.set[r>>6].Or(bit)
	return finish(seed, h)
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
