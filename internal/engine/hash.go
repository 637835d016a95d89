package engine

// Slot is one entry of the open-addressed hash table shared by the
// executor's joins and aggregates and the sampling pass's joins: a key,
// the chain of rows holding it (Head is 1 + the last such row, 0 marks a
// free slot) and the chain's length. A table is a power of two of slots
// at load <= 1/2.
type Slot struct {
	Key       int64
	Head, Cnt int32
}

// Fib is the Fibonacci hash of a key. The home slot of a key in a table
// of 2^b slots is the product's top b bits; a longer prefix can serve as
// a probe-filter bit.
func Fib(key int64) uint64 { return uint64(key) * 0x9E3779B97F4A7C15 }

// Find returns the slot holding key, or the free slot where it belongs,
// starting from the key's home slot s, then probing linearly.
func Find(slots []Slot, s int, key int64) *Slot {
	for mask := len(slots) - 1; slots[s].Head != 0 && slots[s].Key != key; {
		s = (s + 1) & mask
	}
	return &slots[s]
}

// grow returns s resized to n elements, reallocating only when its
// capacity falls short. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
