package rng

import (
	"strconv"
	"testing"
)

// warmPlanKey returns a memo for plansig with all 256 table entries
// filled: the one-byte names 0..255 land on distinct low bytes, because
// the FNV prime is odd and the offset's XOR with b is a bijection.
func warmPlanKey(plansig string) *PlanKey {
	k := NewPlanKey(plansig)
	for b := 0; b < 256; b++ {
		k.Key(-1, NameOf(string([]byte{byte(b)})))
	}
	return k
}

// FuzzExecKeyMemo holds PlanKey to its definition, ExecKey, for any
// (seed, name, signature): on a cold memo (the call fills its entry),
// again on the entry it just filled, on a memo whose whole table was
// filled by other names under another seed, and with the name hashed
// in two pieces.
func FuzzExecKeyMemo(f *testing.F) {
	f.Add(int64(0), "", "")
	f.Add(int64(1), "q", "sig")
	f.Add(int64(5), "tenant/template#00042", "J(J(S(t0),S(t1)),S(t2))")
	f.Add(int64(-7), "weird\x00name", "sig\x00with\x00zeros")
	f.Add(int64(1<<40), "α-unicode", "π")
	f.Add(int64(-1<<63), "\xff", "\xff\x00")
	f.Fuzz(func(t *testing.T, seed int64, qname, plansig string) {
		want := ExecKey(seed, qname, plansig)
		k := NewPlanKey(plansig)
		if got := k.Key(seed, NameOf(qname)); got != want {
			t.Fatalf("cold Key(%d, %q) for %q = %d, want %d", seed, qname, plansig, got, want)
		}
		if got := k.Key(seed, NameOf(qname)); got != want {
			t.Fatalf("Key(%d, %q) for %q on its own entry = %d, want %d", seed, qname, plansig, got, want)
		}
		if got := warmPlanKey(plansig).Key(seed, NameOf(qname)); got != want {
			t.Fatalf("warm Key(%d, %q) for %q = %d, want %d", seed, qname, plansig, got, want)
		}
		half := len(qname) / 2
		if got := k.Key(seed, NameOf(qname[:half]).Add(qname[half:])); got != want {
			t.Fatalf("Key(%d, NameOf(%q).Add(%q)) for %q = %d, want %d", seed, qname[:half], qname[half:], plansig, got, want)
		}
	})
}

// TestPlanKeyMatchesExecKey sweeps generated simulator-shaped names and
// signatures through one memo per signature, every entry filled many
// times over.
func TestPlanKeyMatchesExecKey(t *testing.T) {
	s := NewStream(43)
	for p := 0; p < 16; p++ {
		sig := "J(S(t" + strconv.Itoa(p) + "),S(t" + strconv.FormatUint(s.Uint64(), 36) + "))"
		k := NewPlanKey(sig)
		for i := 0; i < 4096; i++ {
			seed := int64(s.Uint64())
			name := "grid/" + strconv.Itoa(s.Intn(10000)) + "/q" + strconv.Itoa(p) + "#" + strconv.Itoa(i)
			if got, want := k.Key(seed, NameOf(name)), ExecKey(seed, name, sig); got != want {
				t.Fatalf("Key(%d, %q) for %q = %d, want %d", seed, name, sig, got, want)
			}
		}
	}
}

// TestPlanKeyHitAllocs: a memo hit allocates nothing.
func TestPlanKeyHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	k := warmPlanKey("J(J(S(t0),S(t1)),S(t2))")
	name := NameOf("tenant/template#00042")
	var sink int64
	if n := testing.AllocsPerRun(1000, func() { sink += k.Key(5, name) }); n != 0 {
		t.Errorf("memo hit: %v allocs/call, want 0", n)
	}
}

// TestAddDecimalMatchesFormatted: AddDecimal hashes exactly the bytes of
// strconv's formatting, left-padded with zeros to the width.
func TestAddDecimalMatchesFormatted(t *testing.T) {
	for _, v := range []uint64{0, 7, 10, 99999, 100000, 1<<32 - 1, 1<<64 - 1} {
		for _, width := range []int{0, 1, 5, 20} {
			digits := strconv.FormatUint(v, 10)
			for len(digits) < width {
				digits = "0" + digits
			}
			if got, want := NameOf("m/q#").AddDecimal(v, width), NameOf("m/q#"+digits); got != want {
				t.Errorf("AddDecimal(%d, %d) = %#x, want the state after %q, %#x", v, width, got, digits, want)
			}
		}
	}
}
