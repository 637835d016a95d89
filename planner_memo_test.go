package uaqetp

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/cache"
)

// memoMutations are single-field edits of joinQuery, one per Query field
// plan.Build reads, each of which must give the query its own planner
// memo entry.
var memoMutations = []struct {
	name string
	edit func(q *Query)
}{
	{"Tables order", func(q *Query) { q.Tables[0], q.Tables[1] = q.Tables[1], q.Tables[0] }},
	{"Tables element", func(q *Query) { q.Tables[1] = "customer" }},
	{"Tables split at a comma", func(q *Query) { q.Tables = []string{"orders,lineitem"} }},
	{"Pred.Col", func(q *Query) { q.Preds[0].Col = "o_custkey" }},
	{"Pred.Op", func(q *Query) { q.Preds[0].Op = Ge }},
	{"Pred.Lo", func(q *Query) { q.Preds[0].Lo = 25001 }},
	{"Pred.Hi", func(q *Query) { q.Preds[0].Hi = 1 }},
	{"Preds dropped", func(q *Query) { q.Preds = nil }},
	{"Join.LeftTable", func(q *Query) { q.Joins[0].LeftTable = "customer" }},
	{"Join.LeftCol", func(q *Query) { q.Joins[0].LeftCol = "o_custkey" }},
	{"Join.RightTable", func(q *Query) { q.Joins[0].RightTable = "customer" }},
	{"Join.RightCol", func(q *Query) { q.Joins[0].RightCol = "l_partkey" }},
	{"Agg scalar", func(q *Query) { q.Agg = &AggSpec{} }},
	{"Agg.GroupCol", func(q *Query) { q.Agg = &AggSpec{GroupCol: "o_custkey"} }},
	{"Agg.SortInput", func(q *Query) { q.Agg = &AggSpec{SortInput: true} }},
}

// TestPlannerMemoKeysEveryField holds the planner memo to plan.Build's
// inputs: a query differing only in Name shares the memoized *Plan, and
// a query differing in any field Build reads never does — it gets a
// fingerprint of its own, and BuildPlan either plans it afresh or
// reports Build's error for it, but never returns the cached plan.
func TestPlannerMemoKeysEveryField(t *testing.T) {
	ctx := context.Background()
	planner := testSystem(t).Planner()
	base, err := planner.BuildPlan(ctx, joinQuery())
	if err != nil {
		t.Fatal(err)
	}
	renamed := joinQuery()
	renamed.Name = "another name"
	if p, err := planner.BuildPlan(ctx, renamed); err != nil || p != base {
		t.Errorf("renamed query: got %p (err %v), want the memoized plan %p", p, err, base)
	}

	baseKey := appendFingerprint(nil, joinQuery())
	seen := map[string]string{string(baseKey): "base"}
	for _, m := range memoMutations {
		q := joinQuery()
		m.edit(q)
		key := appendFingerprint(nil, q)
		if prev, dup := seen[string(key)]; dup {
			t.Errorf("%s: fingerprint %q equals that of %s", m.name, key, prev)
		}
		seen[string(key)] = m.name
		if p, err := planner.BuildPlan(ctx, q); err == nil && p == base {
			t.Errorf("%s: BuildPlan returned the base query's memoized plan", m.name)
		}
	}
	// The agg variants as suffixes of each other: GroupCol "" + SortInput
	// must not read as a GroupCol ending in the sorted marker.
	a := appendFingerprint(nil, &Query{Agg: &AggSpec{GroupCol: "s"}})
	b := appendFingerprint(nil, &Query{Agg: &AggSpec{SortInput: true}})
	if bytes.Equal(a, b) {
		t.Errorf("GroupCol %q and SortInput share fingerprint %q", "s", a)
	}
}

// TestPlannerMemoSurvivesQueryMutation: the memo keeps its own copy of
// the fingerprint, so editing a query after BuildPlan neither changes
// what a later lookup of the original shape returns nor lets the edited
// query hit the original's entry.
func TestPlannerMemoSurvivesQueryMutation(t *testing.T) {
	ctx := context.Background()
	planner := testSystem(t).Planner()
	q := joinQuery()
	first, err := planner.BuildPlan(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	sig := first.String()
	q.Tables[0], q.Tables[1] = q.Tables[1], q.Tables[0]
	q.Preds[0].Lo = 1000
	q.Joins[0].LeftCol, q.Joins[0].RightCol = "o_custkey", "l_partkey"

	again, err := planner.BuildPlan(ctx, joinQuery())
	if err != nil {
		t.Fatal(err)
	}
	if again != first || again.String() != sig {
		t.Fatalf("original shape after mutation: got %p %q, want %p %q", again, again.String(), first, sig)
	}
	if p, err := planner.BuildPlan(ctx, q); err == nil && p == first {
		t.Fatal("mutated query served the original's memoized plan")
	}
}

// TestPlanKeyUnderConcurrentNamespaces: Systems with different sampling
// ratios share one planner memo, so one Plan is keyed under several
// estimate namespaces, from several goroutines at once. Whatever the
// interleaving, key returns the key of the namespace asked for, and each
// System predicts what an independently opened System with its sampling
// ratio predicts.
func TestPlanKeyUnderConcurrentNamespaces(t *testing.T) {
	ctx := context.Background()
	sys := testSystem(t)
	other, err := sys.WithSamplingRatio(0.02)
	if err != nil {
		t.Fatal(err)
	}
	systems := []*System{sys, other}
	queries := stressQueries()
	want := make([][]string, len(systems))
	for si, s := range systems {
		cfg := s.Config()
		cfg.Cache = nil
		ref, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			p, err := ref.PredictContext(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			want[si] = append(want[si], predFingerprint(p))
		}
	}
	split := -1 // a query the two sampling ratios predict differently
	for qi := range queries {
		if want[0][qi] != want[1][qi] {
			split = qi
			break
		}
	}
	if split < 0 {
		t.Fatal("sampling ratios 0.05 and 0.02 predict alike; the test cannot tell their keys apart")
	}
	plan, err := sys.Planner().BuildPlan(ctx, queries[split])
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				si := (g + i) % len(systems)
				ns := systems[si].estNS
				if k := plan.key(&plan.est, ns, nil); k.key != ns+"\x00"+plan.root.Sig || k.hash != cache.Hash(k.key) {
					t.Errorf("key under %q: %q %#x", ns, k.key, k.hash)
					return
				}
				qi := (g + i/2) % len(queries)
				p, err := systems[si].PredictContext(ctx, queries[qi])
				if err != nil {
					t.Error(err)
					return
				}
				if got := predFingerprint(p); got != want[si][qi] {
					t.Errorf("system %d, %s: prediction differs from an independent System's", si, queries[qi].Name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
