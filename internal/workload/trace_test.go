package workload

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
)

func traceCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	return catalog.Build(datagen.Generate(datagen.ConfigFor(datagen.Uniform1G, 1)))
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
