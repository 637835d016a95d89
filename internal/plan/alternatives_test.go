package plan

import (
	"testing"

	"repro/internal/engine"
)

func altQuery() *Query {
	return &Query{
		Name:   "alt",
		Tables: []string{"customer", "orders", "lineitem"},
		Preds: []engine.Predicate{
			{Col: "c_acctbal", Op: engine.Le, Lo: 5000},
		},
		Joins: []JoinCond{
			{LeftTable: "customer", LeftCol: "c_custkey", RightTable: "orders", RightCol: "o_custkey"},
			{LeftTable: "orders", LeftCol: "o_orderkey", RightTable: "lineitem", RightCol: "l_orderkey"},
		},
	}
}

// TestAlternativesDistinctAndEquivalent: every alternative join order
// is a distinct plan with the default plan's (the first one's) result
// cardinality.
func TestAlternativesDistinctAndEquivalent(t *testing.T) {
	db, cat := testEnv(t)
	q := altQuery()
	plans, err := Alternatives(q, cat, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) < 2 {
		t.Fatalf("got %d alternatives, want >= 2", len(plans))
	}
	seen := map[string]bool{}
	var card float64 = -1
	for _, p := range plans {
		s := p.String()
		if seen[s] {
			t.Error("duplicate plan among alternatives")
		}
		seen[s] = true
		res, err := engine.Run(db, p)
		if err != nil {
			t.Fatal(err)
		}
		if card < 0 {
			card = res.M
		} else if res.M != card {
			t.Errorf("alternative disagrees on cardinality: %v vs %v", res.M, card)
		}
	}
}

func TestAlternativesSingleTable(t *testing.T) {
	_, cat := testEnv(t)
	q := &Query{Name: "one", Tables: []string{"lineitem"}}
	plans, err := Alternatives(q, cat, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 {
		t.Errorf("single-table query produced %d plans", len(plans))
	}
}
