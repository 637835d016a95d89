package workload

import (
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
)

func traceCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	return catalog.Build(datagen.Generate(datagen.ConfigFor(datagen.Uniform1G, 1)))
}

// TestGenerateTraceDeterministic: same inputs, same arrival-annotated
// trace — entries, times, and query identities.
func TestGenerateTraceDeterministic(t *testing.T) {
	cat := traceCatalog(t)
	a, err := GenerateTrace(SelJoin, cat, 32, 7, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTrace(SelJoin, cat, 32, 7, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 32 || len(b) != 32 {
		t.Fatalf("trace lengths %d/%d, want 32", len(a), len(b))
	}
	for i := range a {
		if a[i].At != b[i].At || a[i].Query.Name != b[i].Query.Name {
			t.Fatalf("entry %d differs: (%v, %s) vs (%v, %s)",
				i, a[i].At, a[i].Query.Name, b[i].At, b[i].Query.Name)
		}
	}

	// Distinct seeds give independent streams: two simulated tenants
	// replaying traces over one catalog must not see identical arrivals.
	c, err := GenerateTrace(SelJoin, cat, 32, 8, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i].At != c[i].At {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical arrival times")
	}
}

// TestGenerateTraceShape: times are sorted and positive, the mean rate
// is in the configured ballpark, and the query sequence is a
// permutation of the benchmark workload (shuffled, not reordered
// template-by-template).
func TestGenerateTraceShape(t *testing.T) {
	cat := traceCatalog(t)
	const n, rate = 64, 2.0
	entries, err := GenerateTrace(SelJoin, cat, n, 7, rate)
	if err != nil {
		t.Fatal(err)
	}
	times := make([]float64, len(entries))
	names := make([]string, len(entries))
	for i, e := range entries {
		times[i], names[i] = e.At, e.Query.Name
	}
	if !sort.Float64sAreSorted(times) {
		t.Error("trace times not sorted")
	}
	if times[0] <= 0 {
		t.Errorf("first arrival %v not after time zero", times[0])
	}
	got := float64(n) / times[n-1] // arrivals over the trace's span
	if math.Abs(got-rate) > 0.5*rate {
		t.Errorf("trace mean rate %.3f, want ~%.1f", got, rate)
	}

	base, err := Generate(SelJoin, cat, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool, n)
	for _, q := range base {
		want[q.Name] = true
	}
	inOrder := true
	for i, name := range names {
		if !want[name] {
			t.Fatalf("trace query %q not from the benchmark workload", name)
		}
		if name != base[i].Name {
			inOrder = false
		}
	}
	if inOrder {
		t.Error("trace replays queries in generation order; want a shuffle")
	}

	if _, err := GenerateTrace(SelJoin, cat, n, 7, 0); err == nil {
		t.Error("non-positive rate accepted")
	}
}

// TestLoadTrace: external JSON traces resolve against a query pool,
// come back time-sorted, and reject malformed records.
func TestLoadTrace(t *testing.T) {
	cat := traceCatalog(t)
	pool, err := Generate(SelJoin, cat, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	path := write("ok.json", `[
		{"at": 3.5, "query": 1},
		{"at": 0.25, "query": 0},
		{"at": 1.5, "query": 3}
	]`)
	entries, err := LoadTrace(path, pool)
	if err != nil {
		t.Fatal(err)
	}
	wantAt := []float64{0.25, 1.5, 3.5}
	wantQ := []string{pool[0].Name, pool[3].Name, pool[1].Name}
	if len(entries) != 3 {
		t.Fatalf("loaded %d entries, want 3", len(entries))
	}
	for i, e := range entries {
		if e.At != wantAt[i] || e.Query.Name != wantQ[i] {
			t.Errorf("entry %d = (%g, %s), want (%g, %s)", i, e.At, e.Query.Name, wantAt[i], wantQ[i])
		}
	}

	bad := map[string]string{
		"neg-time":  `[{"at": -0.5, "query": 0}]`,
		"oob-index": `[{"at": 1, "query": 9}]`,
		"neg-index": `[{"at": 1, "query": -2}]`,
		"empty":     `[]`,
		"unknown":   `[{"at": 1, "query": 0, "x": 1}]`,
	}
	for name, content := range bad {
		if _, err := LoadTrace(write(name+".json", content), pool); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := LoadTrace(path, nil); err == nil {
		t.Error("empty pool accepted")
	}
	if _, err := LoadTrace(filepath.Join(dir, "missing.json"), pool); err == nil {
		t.Error("missing file accepted")
	}
}
