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
		k.Key(-1, string([]byte{byte(b)}))
	}
	return k
}

// FuzzExecKeyMemo holds PlanKey to its definition, ExecKey, for any
// (seed, name, signature): on a cold memo (the call fills its entry),
// again on the entry it just filled, and on a memo whose whole table
// was filled by other names under another seed.
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
		if got := k.Key(seed, qname); got != want {
			t.Fatalf("cold Key(%d, %q) for %q = %d, want %d", seed, qname, plansig, got, want)
		}
		if got := k.Key(seed, qname); got != want {
			t.Fatalf("Key(%d, %q) for %q on its own entry = %d, want %d", seed, qname, plansig, got, want)
		}
		if got := warmPlanKey(plansig).Key(seed, qname); got != want {
			t.Fatalf("warm Key(%d, %q) for %q = %d, want %d", seed, qname, plansig, got, want)
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
			if got, want := k.Key(seed, name), ExecKey(seed, name, sig); got != want {
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
	var sink int64
	if n := testing.AllocsPerRun(1000, func() { sink += k.Key(5, "tenant/template#00042") }); n != 0 {
		t.Errorf("memo hit: %v allocs/call, want 0", n)
	}
}
