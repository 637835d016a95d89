package catalog

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
)

func uniformTable(name, col string, n, domain int, seed int64) *engine.Table {
	r := rand.New(rand.NewSource(seed))
	t := engine.NewTable(name, []string{col}, n)
	for i := range n {
		t.Data[0][i] = int64(r.Intn(domain))
	}
	return t
}

func TestBuildBasicStats(t *testing.T) {
	db := engine.NewDB()
	db.Add(uniformTable("t", "x", 1000, 100, 1))
	c := Build(db)
	ts, err := c.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if ts.Rows != 1000 {
		t.Errorf("rows=%d", ts.Rows)
	}
	cs, err := c.Column("t", "x")
	if err != nil {
		t.Fatal(err)
	}
	if cs.Min < 0 || cs.Max > 99 || cs.Distinct < 80 {
		t.Errorf("stats: min=%d max=%d distinct=%d", cs.Min, cs.Max, cs.Distinct)
	}
}

func TestPredicateSelectivityUniform(t *testing.T) {
	db := engine.NewDB()
	db.Add(uniformTable("t", "x", 20000, 1000, 2))
	c := Build(db)
	cases := []struct {
		p    engine.Predicate
		want float64
	}{
		{engine.Predicate{Col: "x", Op: engine.Lt, Lo: 500}, 0.5},
		{engine.Predicate{Col: "x", Op: engine.Le, Lo: 249}, 0.25},
		{engine.Predicate{Col: "x", Op: engine.Ge, Lo: 900}, 0.1},
		{engine.Predicate{Col: "x", Op: engine.Between, Lo: 100, Hi: 299}, 0.2},
		{engine.Predicate{Col: "x", Op: engine.Eq, Lo: 7}, 0.001},
	}
	for _, cse := range cases {
		got, err := c.PredicateSelectivity("t", &cse.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-cse.want) > 0.05 {
			t.Errorf("%v: selectivity %v, want ~%v", cse.p, got, cse.want)
		}
	}
}

func TestPredicateSelectivityMatchesTruth(t *testing.T) {
	// Histogram estimate should be close to true selectivity even under
	// skew because buckets are equi-depth.
	r := rand.New(rand.NewSource(3))
	n := 30000
	tab := engine.NewTable("t", []string{"x"}, n)
	for i := range n {
		// Skewed: squared uniform concentrates near 0.
		v := r.Float64()
		tab.Data[0][i] = int64(v * v * 1000)
	}
	db := engine.NewDB()
	db.Add(tab)
	c := Build(db)
	for _, bound := range []int64{10, 50, 100, 400, 900} {
		p := engine.Predicate{Col: "x", Op: engine.Le, Lo: bound}
		est, err := c.PredicateSelectivity("t", &p)
		if err != nil {
			t.Fatal(err)
		}
		var truth float64
		for _, v := range tab.Data[0] {
			if v <= bound {
				truth++
			}
		}
		truth /= float64(n)
		if math.Abs(est-truth) > 0.05 {
			t.Errorf("bound %d: est %v vs truth %v", bound, est, truth)
		}
	}
}

func TestSelectivityBoundsClamped(t *testing.T) {
	db := engine.NewDB()
	db.Add(uniformTable("t", "x", 100, 50, 4))
	c := Build(db)
	lo, _ := c.PredicateSelectivity("t", &engine.Predicate{Col: "x", Op: engine.Lt, Lo: -100})
	hi, _ := c.PredicateSelectivity("t", &engine.Predicate{Col: "x", Op: engine.Le, Lo: 10000})
	if lo != 0 || hi != 1 {
		t.Errorf("clamps: lo=%v hi=%v", lo, hi)
	}
}

// TestSelectivityAtMinInt64 holds the operand MinInt64, which a /predict
// body can carry: "< MinInt64" matches nothing, ">= MinInt64" everything,
// and "between MinInt64 and h" what "<= h" does. Lo-1 wrapped to
// MaxInt64 there and turned each answer around.
func TestSelectivityAtMinInt64(t *testing.T) {
	db := engine.NewDB()
	db.Add(uniformTable("t", "x", 1000, 100, 4))
	c := Build(db)
	le50, err := c.PredicateSelectivity("t", &engine.Predicate{Col: "x", Op: engine.Le, Lo: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, cse := range []struct {
		p    engine.Predicate
		want float64
	}{
		{engine.Predicate{Col: "x", Op: engine.Lt, Lo: math.MinInt64}, 0},
		{engine.Predicate{Col: "x", Op: engine.Ge, Lo: math.MinInt64}, 1},
		{engine.Predicate{Col: "x", Op: engine.Between, Lo: math.MinInt64, Hi: 50}, le50},
	} {
		got, err := c.PredicateSelectivity("t", &cse.p)
		if err != nil {
			t.Fatal(err)
		}
		if got != cse.want {
			t.Errorf("%v: selectivity %v, want %v", cse.p.String(), got, cse.want)
		}
	}
}

func TestJoinSelectivityFactor(t *testing.T) {
	db := engine.NewDB()
	db.Add(uniformTable("a", "x", 5000, 100, 5))
	db.Add(uniformTable("b", "y", 5000, 200, 6))
	c := Build(db)
	f, err := c.JoinSelectivityFactor("a", "x", "b", "y")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-1.0/200) > 1e-3 {
		t.Errorf("join factor %v, want ~1/200", f)
	}
}

func TestGroupCount(t *testing.T) {
	db := engine.NewDB()
	db.Add(uniformTable("t", "x", 10000, 42, 7))
	c := Build(db)
	g, err := c.groupCount("t", "x", 10000)
	if err != nil {
		t.Fatal(err)
	}
	if g != 42 {
		t.Errorf("groups=%v, want 42", g)
	}
	capped, _ := c.groupCount("t", "x", 5)
	if capped != 5 {
		t.Errorf("capped groups=%v, want 5", capped)
	}
	scalar, _ := c.groupCount("t", "", 10000)
	if scalar != 1 {
		t.Errorf("scalar groups=%v, want 1", scalar)
	}
}

func TestFindColumn(t *testing.T) {
	db := engine.NewDB()
	db.Add(uniformTable("a", "x", 100, 10, 8))
	db.Add(uniformTable("b", "y", 100, 10, 9))
	c := Build(db)
	tab, _, err := c.FindColumn("y")
	if err != nil || tab != "b" {
		t.Errorf("FindColumn(y) = %q, %v", tab, err)
	}
	if _, _, err := c.FindColumn("nope"); err == nil {
		t.Error("expected error for unknown column")
	}
}

func TestUnknownTableColumnErrors(t *testing.T) {
	c := Build(engine.NewDB())
	if _, err := c.Table("t"); err == nil {
		t.Error("expected table error")
	}
	if _, err := c.Column("t", "x"); err == nil {
		t.Error("expected column error")
	}
}

func TestSmallTableHistogram(t *testing.T) {
	db := engine.NewDB()
	tiny := engine.NewTable("tiny", []string{"x"}, 3)
	copy(tiny.Data[0], []int64{5, 7, 9})
	db.Add(tiny)
	c := Build(db)
	sel, err := c.PredicateSelectivity("tiny", &engine.Predicate{Col: "x", Op: engine.Le, Lo: 7})
	if err != nil {
		t.Fatal(err)
	}
	if sel < 0.3 || sel > 1 {
		t.Errorf("tiny-table selectivity %v", sel)
	}
}
