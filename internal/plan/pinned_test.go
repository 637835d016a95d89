package plan_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/plan"
	"repro/internal/workload"
)

// plansSHA256 is the SHA-256 over the signature of every alternative
// plan.Alternatives returns for 32 queries of each benchmark on each of
// the four databases, captured before Build, BuildOrdered and
// Alternatives shared their access-path and join steps.
const plansSHA256 = "ae90f86102b238f221c54f68d309a188f8b6a9754c9120b81e54e1911071547c"

// TestPlansPinned holds every plan the optimizer emits — the default
// plan and each alternative join order, with their scan kinds, predicate
// orders and join algorithms — to the literal above.
func TestPlansPinned(t *testing.T) {
	const seed, nEach = 11, 32
	h := sha256.New()
	plans := 0
	for kind := datagen.Uniform1G; kind <= datagen.Skewed10G; kind++ {
		cat := catalog.Build(datagen.Generate(datagen.ConfigFor(kind, seed)))
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
					h.Write([]byte(p.Sig))
					h.Write([]byte{0})
					plans++
				}
				h.Write([]byte{1})
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != plansSHA256 {
		t.Errorf("SHA-256 over %d plan signatures %s, pinned %s", plans, got, plansSHA256)
	}
}
