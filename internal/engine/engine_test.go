package engine

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// testDB builds a tiny two-table database with a known join structure:
// r(a, b) with a = 0..n-1, b = a % 10; s(c, d) with c = 0..m-1, d = c % 5.
func testDB(nr, ns int) *DB {
	db := NewDB()
	r, s := NewTable("r", []string{"a", "b"}, nr), NewTable("s", []string{"c", "d"}, ns)
	for i := range nr {
		r.Data[0][i], r.Data[1][i] = int64(i), int64(i%10)
	}
	for i := range ns {
		s.Data[0][i], s.Data[1][i] = int64(i), int64(i%5)
	}
	db.Add(r)
	db.Add(s)
	return db
}

func TestSeqScanNoPredicate(t *testing.T) {
	db := testDB(250, 10)
	plan := &Node{Kind: SeqScan, Table: "r"}
	plan.Finalize()
	res, err := Run(db, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.M != 250 || res.Selectivity != 1 {
		t.Errorf("M=%v X=%v", res.M, res.Selectivity)
	}
	if res.Counts.NS != 3 { // ceil(250/100)
		t.Errorf("NS=%v, want 3", res.Counts.NS)
	}
	if res.Counts.NT != 250 || res.Counts.NO != 0 {
		t.Errorf("counts=%+v", res.Counts)
	}
}

func TestSeqScanPredicate(t *testing.T) {
	db := testDB(100, 10)
	plan := &Node{Kind: SeqScan, Table: "r",
		Preds: []Predicate{{Col: "a", Op: Lt, Lo: 30}}}
	plan.Finalize()
	res, err := Run(db, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.M != 30 {
		t.Errorf("M=%v, want 30", res.M)
	}
	if math.Abs(res.Selectivity-0.3) > 1e-12 {
		t.Errorf("X=%v, want 0.3", res.Selectivity)
	}
	if res.Counts.NO != 100 { // predicate evaluated on every tuple
		t.Errorf("NO=%v, want 100", res.Counts.NO)
	}
}

func TestIndexScanCounts(t *testing.T) {
	db := testDB(100, 10)
	plan := &Node{Kind: IndexScan, Table: "r",
		Preds: []Predicate{{Col: "a", Op: Between, Lo: 10, Hi: 19}}}
	plan.Finalize()
	res, err := Run(db, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.M != 10 {
		t.Fatalf("M=%v, want 10", res.M)
	}
	if res.Counts.NR != 10 || res.Counts.NI != 10 || res.Counts.NT != 10 || res.Counts.NS != 0 {
		t.Errorf("counts=%+v", res.Counts)
	}
}

func TestPredicateOps(t *testing.T) {
	cases := []struct {
		p    Predicate
		v    int64
		want bool
	}{
		{Predicate{Op: Lt, Lo: 5}, 4, true},
		{Predicate{Op: Lt, Lo: 5}, 5, false},
		{Predicate{Op: Le, Lo: 5}, 5, true},
		{Predicate{Op: Eq, Lo: 5}, 5, true},
		{Predicate{Op: Eq, Lo: 5}, 6, false},
		{Predicate{Op: Ge, Lo: 5}, 5, true},
		{Predicate{Op: Gt, Lo: 5}, 5, false},
		{Predicate{Op: Between, Lo: 2, Hi: 4}, 2, true},
		{Predicate{Op: Between, Lo: 2, Hi: 4}, 4, true},
		{Predicate{Op: Between, Lo: 2, Hi: 4}, 5, false},
	}
	for _, c := range cases {
		if got := c.p.Matches(c.v); got != c.want {
			t.Errorf("%v matches %d = %v, want %v", c.p, c.v, got, c.want)
		}
	}
}

func TestHashJoinCardinalityAndSelectivity(t *testing.T) {
	// r.b in 0..9, s.d in 0..4; join r.b = s.d matches b in 0..4.
	db := testDB(100, 50)
	plan := &Node{
		Kind: HashJoin, LeftCol: "b", RightCol: "d",
		Left:  &Node{Kind: SeqScan, Table: "r"},
		Right: &Node{Kind: SeqScan, Table: "s"},
	}
	plan.Finalize()
	res, err := Run(db, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Each of the 5 matching b-values occurs 10x in r and 10x in s.
	want := 5.0 * 10 * 10
	if res.M != want {
		t.Errorf("M=%v, want %v", res.M, want)
	}
	if lp := res.LeafProduct; lp != 5000 {
		t.Errorf("leaf product %v, want 5000", lp)
	}
	if math.Abs(res.Selectivity-want/5000) > 1e-12 {
		t.Errorf("X=%v", res.Selectivity)
	}
	if res.Counts.NT != 100+50+want || res.Counts.NO != 150 {
		t.Errorf("counts=%+v", res.Counts)
	}
}

func TestNestLoopCountsQuadratic(t *testing.T) {
	db := testDB(20, 30)
	plan := &Node{
		Kind: NestLoopJoin, LeftCol: "b", RightCol: "d",
		Left:  &Node{Kind: SeqScan, Table: "r"},
		Right: &Node{Kind: SeqScan, Table: "s"},
	}
	plan.Finalize()
	res, err := Run(db, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.NO != 20*30 {
		t.Errorf("NO=%v, want 600", res.Counts.NO)
	}
}

func TestJoinEquivalenceAcrossAlgorithms(t *testing.T) {
	// All three join algorithms must produce the same output cardinality.
	db := testDB(60, 40)
	var ms []float64
	for _, k := range []NodeKind{HashJoin, MergeJoin, NestLoopJoin} {
		plan := &Node{
			Kind: k, LeftCol: "b", RightCol: "d",
			Left:  &Node{Kind: SeqScan, Table: "r"},
			Right: &Node{Kind: SeqScan, Table: "s"},
		}
		plan.Finalize()
		res, err := Run(db, plan)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, res.M)
	}
	if ms[0] != ms[1] || ms[1] != ms[2] {
		t.Errorf("join cardinalities disagree: %v", ms)
	}
}

func TestSortMaterializePassThrough(t *testing.T) {
	db := testDB(128, 10)
	plan := &Node{Kind: Sort, Left: &Node{Kind: Materialize,
		Left: &Node{Kind: SeqScan, Table: "r"}}}
	plan.Finalize()
	res, err := Run(db, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.M != 128 || res.Left.M != 128 {
		t.Errorf("pass-through changed cardinality: %v", res.M)
	}
	if want := 128 * math.Log2(128); res.Counts.NO != want {
		t.Errorf("sort NO=%v, want %v", res.Counts.NO, want)
	}
	if res.Left.Counts.NT != 128 {
		t.Errorf("materialize NT=%v", res.Left.Counts.NT)
	}
}

func TestAggregateGroupBy(t *testing.T) {
	db := testDB(100, 10)
	plan := &Node{Kind: Aggregate, GroupCol: "b",
		Left: &Node{Kind: SeqScan, Table: "r"}}
	res, rows := aggregateRows(t, db, plan)
	if res.M != 10 { // b has 10 distinct values
		t.Errorf("groups=%v, want 10", res.M)
	}
	var total int64
	for _, r := range rows {
		total += r[1]
	}
	if total != 100 {
		t.Errorf("group counts sum to %v, want 100", total)
	}
}

func TestScalarAggregate(t *testing.T) {
	db := testDB(37, 10)
	plan := &Node{Kind: Aggregate,
		Left: &Node{Kind: SeqScan, Table: "r"}}
	res, rows := aggregateRows(t, db, plan)
	if res.M != 1 || len(rows) != 1 || rows[0][0] != 37 {
		t.Errorf("scalar aggregate got M=%v rows=%v", res.M, rows)
	}
}

// aggregateRows finalizes and runs plan, an aggregate, keeping its
// output relation — the one-leaf relation a join above it would read —
// and returns the result and that relation's rows in provenance order.
func aggregateRows(t *testing.T, db *DB, plan *Node) (*OpResult, [][]int64) {
	t.Helper()
	plan.Finalize()
	res, rel, err := run(db, plan, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.leaves) != 1 || len(rel.prov) != int(res.M) {
		t.Fatalf("aggregate relation has %d leaves and %d rows, M=%v", len(rel.leaves), len(rel.prov), res.M)
	}
	tab := rel.leaves[0]
	rows := make([][]int64, len(rel.prov))
	for i, r := range rel.prov {
		for _, col := range tab.Data {
			rows[i] = append(rows[i], col[r])
		}
	}
	return res, rows
}

func TestFinalizeAssignsIDsAndLeaves(t *testing.T) {
	plan := &Node{
		Kind: HashJoin, LeftCol: "b", RightCol: "d",
		Left: &Node{
			Kind: HashJoin, LeftCol: "a", RightCol: "c",
			Left:  &Node{Kind: SeqScan, Table: "r"},
			Right: &Node{Kind: SeqScan, Table: "s"},
		},
		Right: &Node{Kind: SeqScan, Table: "u"},
	}
	order := plan.Finalize()
	if len(order) != 5 {
		t.Fatalf("got %d nodes", len(order))
	}
	for i, n := range order {
		if n.ID != i {
			t.Errorf("node %d has ID %d", i, n.ID)
		}
	}
	want := []string{"r", "s", "u"}
	if len(plan.LeafTables) != 3 {
		t.Fatalf("leaves=%v", plan.LeafTables)
	}
	for i := range want {
		if plan.LeafTables[i] != want[i] {
			t.Errorf("leaves=%v, want %v", plan.LeafTables, want)
		}
	}
	// Each node stores its subtree's rendering; a changed node is
	// re-finalized, and every signature above it follows.
	order[2].Preds = []Predicate{{Col: "a", Op: Lt, Lo: 3}}
	plan.Finalize()
	for _, n := range order {
		if n.Sig != n.String() {
			t.Errorf("node %d stores %q, renders %q", n.ID, n.Sig, n.String())
		}
	}
	if sig := "HashJoin(b = d)\n  HashJoin(a = c)\n    SeqScan(r | a < 3)\n    SeqScan(s)\n  SeqScan(u)\n"; plan.Sig != sig {
		t.Errorf("root signature %q, want %q", plan.Sig, sig)
	}
}

func TestValidateRejectsMalformedPlans(t *testing.T) {
	bad := []*Node{
		{Kind: SeqScan}, // no table
		{Kind: HashJoin, Left: &Node{Kind: SeqScan, Table: "r"}}, // missing right
		{Kind: Sort}, // unary without child
		{Kind: SeqScan, Table: "r", Left: &Node{Kind: SeqScan, Table: "s"}}, // scan with child
	}
	for i, n := range bad {
		if err := n.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestRunUnknownTable(t *testing.T) {
	db := NewDB()
	plan := &Node{Kind: SeqScan, Table: "nope"}
	plan.Finalize()
	if _, err := Run(db, plan); err == nil {
		t.Error("expected error for unknown table")
	}
}

// Property: join output cardinality equals the brute-force pair count.
func TestJoinMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nr, ns := 1+r.Intn(40), 1+r.Intn(40)
		rt, st := NewTable("r", []string{"a"}, nr), NewTable("s", []string{"c"}, ns)
		for i := range rt.Data[0] {
			rt.Data[0][i] = int64(r.Intn(8))
		}
		for i := range st.Data[0] {
			st.Data[0][i] = int64(r.Intn(8))
		}
		db := NewDB()
		db.Add(rt)
		db.Add(st)
		plan := &Node{Kind: HashJoin, LeftCol: "a", RightCol: "c",
			Left:  &Node{Kind: SeqScan, Table: "r"},
			Right: &Node{Kind: SeqScan, Table: "s"}}
		plan.Finalize()
		res, err := Run(db, plan)
		if err != nil {
			return false
		}
		var brute int
		for _, a := range rt.Data[0] {
			for _, c := range st.Data[0] {
				if a == c {
					brute++
				}
			}
		}
		return res.M == float64(brute)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: selectivity is always within [0, 1] for scans and equals
// M / Π|R| for joins.
func TestSelectivityInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := testDB(10+r.Intn(100), 10+r.Intn(50))
		plan := &Node{Kind: HashJoin, LeftCol: "b", RightCol: "d",
			Left: &Node{Kind: SeqScan, Table: "r",
				Preds: []Predicate{{Col: "a", Op: Lt, Lo: int64(r.Intn(100))}}},
			Right: &Node{Kind: SeqScan, Table: "s"}}
		plan.Finalize()
		res, err := Run(db, plan)
		if err != nil {
			return false
		}
		for _, x := range res.Results() {
			if x.Selectivity < 0 || x.Selectivity > 1 {
				return false
			}
			if x.LeafProduct > 0 && math.Abs(x.Selectivity-x.M/x.LeafProduct) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTotalCounts(t *testing.T) {
	db := testDB(100, 50)
	plan := &Node{Kind: HashJoin, LeftCol: "b", RightCol: "d",
		Left:  &Node{Kind: SeqScan, Table: "r"},
		Right: &Node{Kind: SeqScan, Table: "s"}}
	plan.Finalize()
	res, err := Run(db, plan)
	if err != nil {
		t.Fatal(err)
	}
	total := res.TotalCounts()
	sum := res.Counts.Add(res.Left.Counts).Add(res.Right.Counts)
	if total != sum {
		t.Errorf("TotalCounts=%+v, manual=%+v", total, sum)
	}
}

func TestCountsGet(t *testing.T) {
	c := Counts{1, 2, 3, 4, 5}
	for i := 0; i < 5; i++ {
		if c.Get(i) != float64(i+1) {
			t.Errorf("Get(%d)=%v", i, c.Get(i))
		}
	}
}
