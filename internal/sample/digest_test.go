package sample

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/workload"
)

// genPlans generates nEach SelJoin and nEach TPCH queries against a
// generated database of the given kind, planned with plan.Build, and
// the samples (default ratio, default copies) they are estimated on.
// The SelJoin plans come first.
func genPlans(tb testing.TB, kind datagen.DBKind, nEach int) ([]*engine.Node, *DB, *catalog.Catalog) {
	tb.Helper()
	const seed = 11
	db := datagen.Generate(datagen.ConfigFor(kind, seed))
	cat := catalog.Build(db)
	sdb, err := Build(db, 0.05, DefaultCopies, seed+2)
	if err != nil {
		tb.Fatal(err)
	}
	var plans []*engine.Node
	for _, b := range []workload.Benchmark{workload.SelJoin, workload.TPCH} {
		qs, err := workload.Generate(b, cat, nEach, seed+3)
		if err != nil {
			tb.Fatal(err)
		}
		for _, q := range qs {
			p, err := plan.Build(q, cat)
			if err != nil {
				tb.Fatalf("%v %s: %v", b, q.Name, err)
			}
			plans = append(plans, p)
		}
	}
	return plans, sdb, cat
}

// digestEstimates writes every operator of est into h in ascending node
// ID, every float as %x: ID, Rho, Var, FromOptimizer, LeafComp in
// ascending global leaf ordinal (LeafOff + i), SampleCounts.
func digestEstimates(h hash.Hash, est *Estimates) {
	for id := range est.Ops {
		e := &est.Ops[id]
		fmt.Fprintf(h, "%d %x %x %v", id, e.Rho, e.Var, e.FromOptimizer)
		for i, w := range e.LeafComp {
			fmt.Fprintf(h, " c%d=%x", e.LeafOff+i, w)
		}
		c := e.SampleCounts
		fmt.Fprintf(h, " %x %x %x %x %x\n", c.NS, c.NR, c.NT, c.NI, c.NO)
	}
}

// Digests of TestEstimateDigestPinned, re-captured at 4ab7e57 (which
// still pinned b68c59a5…, the row-materializing pass's digest from
// 49385a1) by hashing its estimates without the two fields deleted
// since: the full-relation cardinality and the per-leaf sample sizes.
// The three digests are equal because the numbers do not depend on the
// memo.
const (
	digestMemoless = "fd8d70bf5fa5aa3fff5a58ad41adf5f54cbdc308af4e3daa787c35d52b1dd8ca"
	digestColdMemo = "fd8d70bf5fa5aa3fff5a58ad41adf5f54cbdc308af4e3daa787c35d52b1dd8ca"
	digestWarmMemo = "fd8d70bf5fa5aa3fff5a58ad41adf5f54cbdc308af4e3daa787c35d52b1dd8ca"
)

// TestEstimateDigestPinned is the oracle on inputs nobody wrote: 256
// SelJoin and 256 TPCH generated queries on uniform-1G and on skewed-1G
// samples, estimated memo-less, through a cold memo and through a warm
// one, every operator's every number hashed. A change to the sampling
// pass must leave the three literals untouched; do not re-capture
// without a reason in CHANGES.md.
func TestEstimateDigestPinned(t *testing.T) {
	const nEach = 256
	memoless, cold, warm := sha256.New(), sha256.New(), sha256.New()
	for _, kind := range []datagen.DBKind{datagen.Uniform1G, datagen.Skewed1G} {
		plans, sdb, cat := genPlans(t, kind, nEach)
		rec := newMemoRecorder()
		for i, p := range plans {
			est, err := Estimate(p, sdb, cat)
			if err != nil {
				t.Fatalf("%v plan %d: Estimate: %v", kind, i, err)
			}
			digestEstimates(memoless, est)
			if est, err = EstimateMemo(context.Background(), p, sdb, cat, rec.memo); err != nil {
				t.Fatalf("%v plan %d: cold memo: %v", kind, i, err)
			}
			digestEstimates(cold, est)
		}
		misses := rec.misses
		for i, p := range plans {
			est, err := EstimateMemo(context.Background(), p, sdb, cat, rec.memo)
			if err != nil {
				t.Fatalf("%v plan %d: warm memo: %v", kind, i, err)
			}
			digestEstimates(warm, est)
		}
		if rec.misses != misses {
			t.Errorf("%v: warm pass computed %d fresh passes", kind, rec.misses-misses)
		}
	}
	for _, c := range []struct {
		name string
		h    hash.Hash
		want string
	}{
		{"memo-less", memoless, digestMemoless},
		{"cold memo", cold, digestColdMemo},
		{"warm memo", warm, digestWarmMemo},
	} {
		if got := fmt.Sprintf("%x", c.h.Sum(nil)); got != c.want {
			t.Errorf("%s digest %s, pinned %s", c.name, got, c.want)
		}
	}
}

// BenchmarkEstimateCold is the sampling pass by itself: one op is a
// memo-less Estimate of each of 64 generated plans (32 SelJoin, 32 TPCH)
// on uniform-10G samples at the default ratio — no cache, no predictor,
// no harness.
func BenchmarkEstimateCold(b *testing.B) {
	plans, sdb, cat := genPlans(b, datagen.Uniform10G, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range plans {
			if _, err := Estimate(p, sdb, cat); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestPinnedPlansJoinBothWays checks that the plans behind the digests
// exercise both choices of the looked-up side of the join — the left
// input and the right one — so each is held against literals.
func TestPinnedPlansJoinBothWays(t *testing.T) {
	plans, sdb, cat := genPlans(t, datagen.Uniform1G, 256)
	lookedLeft, lookedRight := 0, 0
	for _, p := range plans {
		// The walk asks the memo once per operator, in postorder.
		var post []*engine.Node
		var order func(n *engine.Node)
		order = func(n *engine.Node) {
			if n != nil {
				order(n.Left)
				order(n.Right)
				post = append(post, n)
			}
		}
		order(p)
		passes := make(map[*engine.Node]*Pass, len(post))
		memo := func(_ string, compute func() (*Pass, error)) (*Pass, error) {
			ps, err := compute()
			passes[post[len(passes)]] = ps
			return ps, err
		}
		if _, err := EstimateMemo(context.Background(), p, sdb, cat, memo); err != nil {
			t.Fatal(err)
		}
		for _, n := range post {
			if !n.Kind.IsJoin() || passes[n].tainted {
				continue
			}
			if lookupRight(passes[n.Left], passes[n.Right]) {
				lookedRight++
			} else {
				lookedLeft++
			}
		}
	}
	if lookedLeft == 0 || lookedRight == 0 {
		t.Errorf("joins looking up the left input: %d, the right: %d; want both", lookedLeft, lookedRight)
	}
	t.Logf("joins looking up the left input: %d, the right: %d", lookedLeft, lookedRight)
}

// TestConcurrentEstimateFreshSamples has several goroutines estimate the
// same plans, in the same order, on one fresh sample DB, so the first
// build of each table's key index is contended — and raced, under the
// race detector — and requires every estimate to equal a sequential one
// on a second fresh DB drawn the same way.
func TestConcurrentEstimateFreshSamples(t *testing.T) {
	plans, ref, cat := genPlans(t, datagen.Uniform1G, 16)
	_, sdb, _ := genPlans(t, datagen.Uniform1G, 1)
	digest := func(p *engine.Node, sdb *DB) string {
		est, err := Estimate(p, sdb, cat)
		if err != nil {
			t.Error(err)
			return ""
		}
		h := sha256.New()
		digestEstimates(h, est)
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	want := make([]string, len(plans))
	for i, p := range plans {
		want[i] = digest(p, ref)
	}
	const workers = 4
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i, p := range plans {
				if got := digest(p, sdb); got != want[i] {
					t.Errorf("plan %d: concurrent estimate %s, sequential %s", i, got, want[i])
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}
