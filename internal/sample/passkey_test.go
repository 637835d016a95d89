package sample

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/plan"
	"repro/internal/workload"
)

// passKeysSHA256 is the SHA-256 of every memo key TestPassKeysPinned's
// walk asks for, each followed by a zero byte, captured at 739448c,
// where passKey rendered each subtree through fmt on every call. The
// subtree section of the estimate cache and the tier classification
// read these bytes; do not re-capture without a reason in CHANGES.md.
const passKeysSHA256 = "8a8c476616fca997cff10730718ca44136107dd6309b0c6ec1488baefc67676f"

// TestPassKeysPinned holds the memo-key bytes of the sampling pass on
// plans nobody wrote: every alternative plan.Alternatives(q, cat, 8)
// returns for generated Micro, SelJoin and TPCH queries over uniform-1G
// and skewed-10G. Every node's signature stored at Finalize must equal
// a fresh String(), and the SHA-256 over every key the walk asks its
// memo for must equal the literal.
func TestPassKeysPinned(t *testing.T) {
	const seed, nEach = 11, 32
	h := sha256.New()
	keys := 0
	memo := func(key string, compute func() (*Pass, error)) (*Pass, error) {
		h.Write([]byte(key))
		h.Write([]byte{0})
		keys++
		return compute()
	}
	for _, kind := range []datagen.DBKind{datagen.Uniform1G, datagen.Skewed10G} {
		db := datagen.Generate(datagen.ConfigFor(kind, seed))
		cat := catalog.Build(db)
		sdb, err := Build(db, 0.05, DefaultCopies, seed+2)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range workload.Benchmarks {
			qs, err := workload.Generate(b, cat, nEach, seed+3)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range qs {
				alts, err := plan.Alternatives(q, cat, 8)
				if err != nil {
					t.Fatalf("%v %v %s: %v", kind, b, q.Name, err)
				}
				for _, p := range alts {
					for _, x := range p.Nodes() {
						if sig, fresh := x.Sig, x.String(); sig != fresh {
							t.Fatalf("%v %v %s: node %d stores signature\n%s\nrenders\n%s", kind, b, q.Name, x.ID, sig, fresh)
						}
					}
					if _, err := EstimateMemo(context.Background(), p, sdb, cat, memo); err != nil {
						t.Fatalf("%v %v %s: %v", kind, b, q.Name, err)
					}
				}
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != passKeysSHA256 {
		t.Errorf("SHA-256 over %d pass keys %s, pinned %s", keys, got, passKeysSHA256)
	}
}

// TestPassKeyAllocs holds passKey to one allocation, the key itself:
// the subtree's signature is read off the node, not rendered.
func TestPassKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	plans, _, _ := genPlans(t, datagen.Uniform1G, 4)
	root := plans[len(plans)-1]
	copies := make([]int, len(root.LeafTables))
	perCall := testing.AllocsPerRun(100, func() { _ = passKey(root, copies) })
	if perCall != 1 {
		t.Errorf("passKey allocates %.1f allocs/call, want 1", perCall)
	}
}
