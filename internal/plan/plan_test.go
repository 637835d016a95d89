package plan

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/engine"
)

func testEnv(t *testing.T) (*engine.DB, *catalog.Catalog) {
	t.Helper()
	db := datagen.Generate(datagen.Config{ScaleFactor: 0.002, Seed: 1})
	return db, catalog.Build(db)
}

func TestBuildSingleTableScan(t *testing.T) {
	db, cat := testEnv(t)
	q := &Query{
		Name:   "scan",
		Tables: []string{"lineitem"},
		Preds: []engine.Predicate{
			{Col: "l_quantity", Op: engine.Le, Lo: 25},
		},
	}
	p, err := Build(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Kind.IsScan() || p.Table != "lineitem" || len(p.Preds) == 0 {
		t.Fatalf("unexpected plan:\n%s", p)
	}
	res, err := engine.Run(db, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Selectivity <= 0.3 || res.Selectivity >= 0.7 {
		t.Errorf("selectivity %v, expected near 0.5", res.Selectivity)
	}
}

func TestBuildChoosesIndexScanForSelectivePredicate(t *testing.T) {
	_, cat := testEnv(t)
	q := &Query{
		Name:   "selective",
		Tables: []string{"lineitem"},
		Preds: []engine.Predicate{
			{Col: "l_quantity", Op: engine.Eq, Lo: 7},
		},
	}
	p, err := Build(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != engine.IndexScan {
		t.Errorf("kind=%v, want IndexScan", p.Kind)
	}
}

func TestBuildTwoWayJoin(t *testing.T) {
	db, cat := testEnv(t)
	q := &Query{
		Name:   "join2",
		Tables: []string{"orders", "lineitem"},
		Joins: []JoinCond{{
			LeftTable: "orders", LeftCol: "o_orderkey",
			RightTable: "lineitem", RightCol: "l_orderkey",
		}},
	}
	p, err := Build(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Kind.IsJoin() {
		t.Fatalf("root is %v, want a join:\n%s", p.Kind, p)
	}
	res, err := engine.Run(db, p)
	if err != nil {
		t.Fatal(err)
	}
	li := db.Tables["lineitem"]
	// FK join: every lineitem matches exactly one order.
	if res.M != float64(li.NumRows()) {
		t.Errorf("join cardinality %v, want %d", res.M, li.NumRows())
	}
}

func TestBuildMultiWayJoinExecutes(t *testing.T) {
	db, cat := testEnv(t)
	q := &Query{
		Name:   "join4",
		Tables: []string{"customer", "orders", "lineitem", "supplier"},
		Preds: []engine.Predicate{
			{Col: "c_mktsegment", Op: engine.Eq, Lo: 1},
		},
		Joins: []JoinCond{
			{LeftTable: "customer", LeftCol: "c_custkey", RightTable: "orders", RightCol: "o_custkey"},
			{LeftTable: "orders", LeftCol: "o_orderkey", RightTable: "lineitem", RightCol: "l_orderkey"},
			{LeftTable: "lineitem", LeftCol: "l_suppkey", RightTable: "supplier", RightCol: "s_suppkey"},
		},
	}
	p, err := Build(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(db, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.M <= 0 {
		t.Error("empty multi-way join result")
	}
	// Exactly 3 joins and 4 scans in the tree.
	joins, scans := 0, 0
	for _, n := range p.Nodes() {
		if n.Kind.IsJoin() {
			joins++
		}
		if n.Kind.IsScan() {
			scans++
		}
	}
	if joins != 3 || scans != 4 {
		t.Errorf("joins=%d scans=%d:\n%s", joins, scans, p)
	}
}

func TestBuildAggregate(t *testing.T) {
	db, cat := testEnv(t)
	q := &Query{
		Name:   "agg",
		Tables: []string{"lineitem"},
		Preds: []engine.Predicate{
			{Col: "l_shipdate", Op: engine.Le, Lo: 1200},
		},
		Agg: &AggSpec{GroupCol: "l_returnflag", SortInput: true},
	}
	p, err := Build(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != engine.Aggregate {
		t.Fatalf("root %v, want Aggregate:\n%s", p.Kind, p)
	}
	if p.Left.Kind != engine.Sort {
		t.Fatalf("expected Sort under Aggregate:\n%s", p)
	}
	res, err := engine.Run(db, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.M < 1 || res.M > 3 {
		t.Errorf("groups=%v, want 1..3", res.M)
	}
}

func TestBuildDisconnectedJoinGraphFails(t *testing.T) {
	_, cat := testEnv(t)
	q := &Query{
		Name:   "disconnected",
		Tables: []string{"orders", "lineitem", "part"},
		Joins: []JoinCond{
			{LeftTable: "orders", LeftCol: "o_orderkey", RightTable: "lineitem", RightCol: "l_orderkey"},
		},
	}
	if _, err := Build(q, cat); err == nil {
		t.Error("expected error for disconnected join graph")
	}
}

func TestBuildUnknownColumnFails(t *testing.T) {
	_, cat := testEnv(t)
	q := &Query{
		Name:   "bad",
		Tables: []string{"lineitem"},
		Preds:  []engine.Predicate{{Col: "no_such_col", Op: engine.Le, Lo: 1}},
	}
	if _, err := Build(q, cat); err == nil {
		t.Error("expected error for unknown predicate column")
	}
}

func TestEstimateCardinalities(t *testing.T) {
	db, cat := testEnv(t)
	q := &Query{
		Name:   "est",
		Tables: []string{"orders", "lineitem"},
		Preds: []engine.Predicate{
			{Col: "o_orderdate", Op: engine.Le, Lo: datagen.DateDays / 2},
		},
		Joins: []JoinCond{{
			LeftTable: "orders", LeftCol: "o_orderkey",
			RightTable: "lineitem", RightCol: "l_orderkey",
		}},
		Agg: &AggSpec{GroupCol: "l_returnflag"},
	}
	p, err := Build(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(db, p)
	if err != nil {
		t.Fatal(err)
	}
	// Root (aggregate) estimate should be within 2x of truth; join
	// estimates within an order of magnitude for this FK join.
	for _, r := range res.Results() {
		e, err := cat.Cardinality(r.Node)
		if err != nil {
			t.Fatalf("no estimate for node %d (%v): %v", r.Node.ID, r.Node.Kind, err)
		}
		if r.M > 0 && (e < r.M/20 || e > r.M*20) {
			t.Errorf("node %d (%v): estimate %v vs actual %v", r.Node.ID, r.Node.Kind, e, r.M)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	_, cat := testEnv(t)
	q := &Query{
		Name:   "det",
		Tables: []string{"customer", "orders", "lineitem"},
		Joins: []JoinCond{
			{LeftTable: "customer", LeftCol: "c_custkey", RightTable: "orders", RightCol: "o_custkey"},
			{LeftTable: "orders", LeftCol: "o_orderkey", RightTable: "lineitem", RightCol: "l_orderkey"},
		},
	}
	p1, err := Build(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Build(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if p1.String() != p2.String() {
		t.Errorf("plans differ:\n%s\nvs\n%s", p1, p2)
	}
}

// TestPredicateOnUnlistedTableFails: a predicate on a table the query
// does not list used to be dropped, planning a different query.
func TestPredicateOnUnlistedTableFails(t *testing.T) {
	_, cat := testEnv(t)
	q := &Query{
		Name:   "stray",
		Tables: []string{"orders"},
		Preds:  []engine.Predicate{{Col: "p_size", Op: engine.Le, Lo: 3}},
	}
	for name, build := range map[string]func() (*engine.Node, error){
		"Build":        func() (*engine.Node, error) { return Build(q, cat) },
		"Alternatives": func() (*engine.Node, error) { _, err := Alternatives(q, cat, 4); return nil, err },
	} {
		_, err := build()
		if err == nil || !strings.Contains(err.Error(), `"p_size"`) || !strings.Contains(err.Error(), `"part"`) {
			t.Errorf("%s: error %v, want one naming p_size and part", name, err)
		}
	}
}

// TestUnappliedJoinConditionsFail: a condition a left-deep plan cannot
// apply — a second condition between two tables, one closing a cycle,
// one naming a table the query does not list — used to be dropped.
func TestUnappliedJoinConditionsFail(t *testing.T) {
	_, cat := testEnv(t)
	ol := JoinCond{LeftTable: "orders", LeftCol: "o_orderkey", RightTable: "lineitem", RightCol: "l_orderkey"}
	co := JoinCond{LeftTable: "customer", LeftCol: "c_custkey", RightTable: "orders", RightCol: "o_custkey"}
	for _, c := range []struct {
		name   string
		tables []string
		extra  JoinCond
	}{
		{"parallel", []string{"orders", "lineitem"},
			JoinCond{LeftTable: "orders", LeftCol: "o_custkey", RightTable: "lineitem", RightCol: "l_partkey"}},
		{"cycle", []string{"customer", "orders", "lineitem"},
			JoinCond{LeftTable: "lineitem", LeftCol: "l_suppkey", RightTable: "customer", RightCol: "c_custkey"}},
		{"unlisted", []string{"orders", "lineitem"}, co},
	} {
		q := &Query{Name: c.name, Tables: c.tables, Joins: []JoinCond{ol, c.extra}}
		if len(c.tables) == 3 {
			q.Joins = []JoinCond{co, ol, c.extra}
		}
		want := c.extra.String()
		if _, err := Build(q, cat); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Build error %v, want one naming %s", c.name, err, want)
		}
	}
}
