package workload

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/plan"
)

func testEnv(t *testing.T) (*engine.DB, *catalog.Catalog) {
	t.Helper()
	db := datagen.Generate(datagen.Config{ScaleFactor: 0.002, Seed: 1})
	return db, catalog.Build(db)
}

func TestGenerateCounts(t *testing.T) {
	_, cat := testEnv(t)
	for _, b := range Benchmarks {
		qs, err := Generate(b, cat, 20, 1)
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if len(qs) != 20 {
			t.Errorf("%v: got %d queries", b, len(qs))
		}
	}
}

func TestGenerateRejectsBadCount(t *testing.T) {
	_, cat := testEnv(t)
	if _, err := Generate(Micro, cat, 0, 1); err == nil {
		t.Error("expected error for zero count")
	}
}

func TestAllQueriesBuildAndExecute(t *testing.T) {
	db, cat := testEnv(t)
	for _, b := range Benchmarks {
		qs, err := Generate(b, cat, 16, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			p, err := plan.Build(q, cat)
			if err != nil {
				t.Fatalf("%v/%s: build: %v", b, q.Name, err)
			}
			if _, err := engine.Run(db, p); err != nil {
				t.Fatalf("%v/%s: run: %v", b, q.Name, err)
			}
		}
	}
}

func TestMicroScansSpanSelectivitySpace(t *testing.T) {
	db, cat := testEnv(t)
	qs, err := Generate(Micro, cat, 24, 3)
	if err != nil {
		t.Fatal(err)
	}
	var sels []float64
	for _, q := range qs {
		if len(q.Tables) != 1 {
			continue
		}
		p, err := plan.Build(q, cat)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Run(db, p)
		if err != nil {
			t.Fatal(err)
		}
		sels = append(sels, res.Selectivity)
	}
	if len(sels) < 10 {
		t.Fatalf("only %d scan queries", len(sels))
	}
	var low, high bool
	for _, s := range sels {
		if s < 0.25 {
			low = true
		}
		if s > 0.75 {
			high = true
		}
	}
	if !low || !high {
		t.Errorf("scan selectivities do not span the space: %v", sels)
	}
}

func TestSelJoinQueriesAreAggregateFree(t *testing.T) {
	_, cat := testEnv(t)
	qs, err := Generate(SelJoin, cat, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if q.Agg != nil {
			t.Errorf("%s has an aggregate", q.Name)
		}
		if len(q.Tables) < 2 {
			t.Errorf("%s is not a join query", q.Name)
		}
	}
}

func TestTPCHQueriesHaveAggregates(t *testing.T) {
	_, cat := testEnv(t)
	qs, err := Generate(TPCH, cat, 14, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if q.Agg == nil {
			t.Errorf("%s has no aggregate", q.Name)
		}
	}
	// All 14 templates represented in the first 14 queries.
	seen := make(map[string]bool)
	for _, q := range qs {
		seen[q.Name[:3]] = true
	}
	if len(seen) != 14 {
		t.Errorf("only %d distinct templates in first 14 queries", len(seen))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	_, cat := testEnv(t)
	a, err := Generate(TPCH, cat, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(TPCH, cat, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].Preds) != len(b[i].Preds) {
			t.Fatalf("query %d differs", i)
		}
		for j := range a[i].Preds {
			if a[i].Preds[j] != b[i].Preds[j] {
				t.Fatalf("query %d predicate %d differs", i, j)
			}
		}
	}
}

func TestBenchmarkStrings(t *testing.T) {
	want := []string{"MICRO", "SELJOIN", "TPCH"}
	for i, b := range Benchmarks {
		if b.String() != want[i] {
			t.Errorf("%d: %s", i, b)
		}
	}
}

func TestParseBenchmark(t *testing.T) {
	for _, b := range Benchmarks {
		for _, name := range []string{b.String(), strings.ToLower(b.String())} {
			if got, err := ParseBenchmark(name); err != nil || got != b {
				t.Errorf("ParseBenchmark(%q) = %v, %v; want %v", name, got, err, b)
			}
		}
	}
	if _, err := ParseBenchmark("tpcds"); err == nil || err.Error() != `unknown benchmark "tpcds" (want micro, seljoin, or tpch)` {
		t.Errorf("ParseBenchmark on an unknown name: %v", err)
	}
}
