package uaqetp

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/hardware"
	"repro/internal/rng"
	"repro/internal/workload"
)

// clonedName is the name the simulator gave each arrival when it
// executed a renamed copy of the template's query: member/query#ordinal,
// the ordinal zero-padded to five digits. It is the reference ExecName
// is held to, kept as it was written.
func clonedName(member, query string, ordinal int) string {
	o := strconv.Itoa(ordinal)
	var b strings.Builder
	b.Grow(len(member) + len(query) + len(o) + 7)
	b.WriteString(member)
	b.WriteByte('/')
	b.WriteString(query)
	b.WriteByte('#')
	for i := len(o); i < 5; i++ {
		b.WriteByte('0')
	}
	b.WriteString(o)
	return b.String()
}

// checkExecName holds execution ordinal of q by member to the cloned
// name: the name it builds, and its key under plansig for each seed.
func checkExecName(t *testing.T, member string, q *Query, ordinal uint32, plansig string, seeds ...int64) {
	t.Helper()
	n := NewExecMember(member).Exec(q, ordinal)
	want := clonedName(member, q.Name, int(ordinal))
	if got := n.Of(q); got != want {
		t.Fatalf("ExecName of (%q, %q, %d) builds %q, want %q", member, q.Name, ordinal, got, want)
	}
	k := rng.NewPlanKey(plansig)
	for _, seed := range seeds {
		if got, want := k.Key(seed, n.state(q)), rng.ExecKey(seed, want, plansig); got != want {
			t.Fatalf("ExecName of (%q, %q, %d) keys %d under seed %d, rng.ExecKey over the cloned name %d",
				member, q.Name, ordinal, got, seed, want)
		}
	}
}

// TestExecNameKeyMatchesClonedName: over generated templates and their
// plans, members of a single-tenant group and of a Count group, and
// ordinals across the padding boundary up to the int32 maximum, the key
// an ExecName hashes incrementally equals rng.ExecKey over the name the
// simulator used to build.
func TestExecNameKeyMatchesClonedName(t *testing.T) {
	sys := testSystem(t)
	ctx := context.Background()
	members := []string{"alpha", "grid/0000", "grid/0042", "grid/9999"}
	ordinals := []uint32{0, 9, 10, 99, 100, 9999, 99999, 100000, 1 << 20, math.MaxInt32}
	var n int
	for _, b := range []workload.Benchmark{workload.SelJoin, workload.TPCH} {
		qs, err := sys.GenerateWorkload(b, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			p, err := sys.Planner().BuildPlan(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range members {
				for _, o := range ordinals {
					checkExecName(t, m, q, o, p.String(), 7, -3, math.MinInt64)
					n++
				}
			}
		}
	}
	t.Logf("%d (member, template, ordinal) triples", n)
}

// FuzzExecNameKey holds an ExecName to the cloned name it stands for,
// for any member, query name, ordinal, plan signature and seed.
func FuzzExecNameKey(f *testing.F) {
	f.Add(int64(7), "alpha", "seljoin-cols-05", uint32(0), "J(S(t0),S(t1))")
	f.Add(int64(-3), "grid/0042", "tpch-q3-01", uint32(99999), "")
	f.Add(int64(0), "", "", uint32(100000), "\x00")
	f.Add(int64(1<<40), "α/ü", "π#0", uint32(math.MaxInt32), "sig")
	f.Add(int64(-1<<63), "m", "q", uint32(math.MaxUint32), "\xff\x00")
	f.Fuzz(func(t *testing.T, seed int64, member, query string, ordinal uint32, plansig string) {
		checkExecName(t, member, &Query{Name: query}, ordinal, plansig, seed)
	})
}

// renamingExecutor is a custom Executor stage that remembers the names
// of the queries it runs.
type renamingExecutor struct {
	inner Executor
	seen  []*Query
}

func (x *renamingExecutor) Execute(ctx context.Context, q *Query, p *Plan) (float64, error) {
	x.seen = append(x.seen, q)
	return x.inner.Execute(ctx, q, p)
}

// TestExecuteAsMatchesRenamedExecute: ExecuteAs measures what Execute
// measures on a copy of the query renamed to the execution's name, on
// the built-in executor, on a drift-injected one before and after its
// switch, and on a custom stage, which is handed that renamed copy; the
// zero ExecName runs the query as it is.
func TestExecuteAsMatchesRenamedExecute(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RNG = RNGv2
	sys, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := joinQuery()
	p, err := sys.Planner().BuildPlan(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	drifted, sw, err := sys.WithDriftInjection(hardware.PC2())
	if err != nil {
		t.Fatal(err)
	}
	custom := &renamingExecutor{inner: sys.Executor()}
	executors := []struct {
		what string
		x    Executor
	}{{"built-in", sys.Executor()}, {"drift-injected", drifted.Executor()}, {"custom", custom}}
	member := NewExecMember("grid/0003")
	for _, phase := range []string{"before the switch", "after the switch"} {
		for _, o := range []uint32{0, 41, 100000} {
			n := member.Exec(q, o)
			renamed := *q
			renamed.Name = n.Of(q)
			for _, e := range executors {
				got, err := ExecuteAs(ctx, e.x, q, n, p)
				if err != nil {
					t.Fatal(err)
				}
				want, err := e.x.Execute(ctx, &renamed, p)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s, %s: ExecuteAs %s measured %v, Execute on the renamed copy %v", e.what, phase, renamed.Name, got, want)
				}
			}
			if handed := custom.seen[len(custom.seen)-2]; handed == q || handed.Name != renamed.Name || handed.Tables[0] != q.Tables[0] {
				t.Errorf("custom stage handed %q (the shared query: %v), want a copy named %q", handed.Name, handed == q, renamed.Name)
			}
		}
		sw.Switch()
	}
	if q.Name != "api-join" {
		t.Errorf("the shared query was renamed to %q", q.Name)
	}
	for _, e := range executors {
		got, err := ExecuteAs(ctx, e.x, q, ExecName{}, p)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := e.x.Execute(ctx, q, p); got != want {
			t.Errorf("%s: zero ExecName measured %v, Execute %v", e.what, got, want)
		}
	}
	if handed := custom.seen[len(custom.seen)-2]; handed != q {
		t.Errorf("custom stage handed a copy %q for the zero ExecName, want the query itself", handed.Name)
	}
	if got := (ExecName{}).Of(q); got != q.Name {
		t.Errorf("zero ExecName builds %q, want the query's own name %q", got, q.Name)
	}
}
