package catalog

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
)

// referenceBuild is Build as it was before the radix kernel: a fresh
// copy of every column, sorted by slices.Sort.
func referenceBuild(db *engine.DB) *Catalog {
	c := &Catalog{Tables: make(map[string]*TableStats, len(db.Tables))}
	for name, t := range db.Tables {
		ts := &TableStats{
			Rows:    t.NumRows(),
			Pages:   t.Pages(),
			Columns: make(map[string]*ColumnStats, len(t.Cols)),
		}
		for ci, col := range t.Cols {
			vals := slices.Clone(t.Data[ci])
			slices.Sort(vals)
			ts.Columns[col] = buildColumn(vals)
		}
		c.Tables[name] = ts
	}
	return c
}

// TestBuildMatchesReference holds Build to the slices.Sort reference on
// every evaluation database at two seeds, and on a hand-built database
// of an empty table, a one-row table and the int64 extremes.
func TestBuildMatchesReference(t *testing.T) {
	for kind := datagen.Uniform1G; kind <= datagen.Skewed10G; kind++ {
		for _, seed := range []int64{1, 7} {
			db := datagen.Generate(datagen.ConfigFor(kind, seed))
			if got, want := Build(db), referenceBuild(db); !reflect.DeepEqual(got, want) {
				t.Errorf("%v seed %d: Build differs from the slices.Sort reference", kind, seed)
			}
		}
	}
	db := engine.NewDB()
	db.Add(engine.NewTable("empty", []string{"e"}, 0))
	one := engine.NewTable("one", []string{"o"}, 1)
	one.Data[0][0] = -3
	db.Add(one)
	ext := engine.NewTable("extremes", []string{"a", "lo", "hi"}, 5000)
	for i := range 5000 {
		ext.Data[0][i], ext.Data[1][i], ext.Data[2][i] = int64(i%7)-3, math.MinInt64+int64(i%3), math.MaxInt64-int64(i%5)
	}
	db.Add(ext)
	if got, want := Build(db), referenceBuild(db); !reflect.DeepEqual(got, want) {
		t.Errorf("hand-built database: Build differs from the slices.Sort reference:\n%+v\n%+v", got.Tables["extremes"], want.Tables["extremes"])
	}
}

// BenchmarkCatalogBuild times Build on the two large evaluation
// databases: the open.catalog_s layer of every Open.
func BenchmarkCatalogBuild(b *testing.B) {
	for _, kind := range []datagen.DBKind{datagen.Uniform10G, datagen.Skewed10G} {
		db := datagen.Generate(datagen.ConfigFor(kind, 1))
		b.Run(kind.String(), func(b *testing.B) {
			for b.Loop() {
				Build(db)
			}
		})
	}
}
