package datagen

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{ScaleFactor: 0.002, Z: 0, Seed: 1})
	b := Generate(Config{ScaleFactor: 0.002, Z: 0, Seed: 1})
	la, _ := a.Table("lineitem")
	lb, _ := b.Table("lineitem")
	if la.NumRows() != lb.NumRows() {
		t.Fatalf("row counts differ: %d vs %d", la.NumRows(), lb.NumRows())
	}
	for i := range la.Rows {
		for j := range la.Rows[i] {
			if la.Rows[i][j] != lb.Rows[i][j] {
				t.Fatalf("row %d col %d differs", i, j)
			}
		}
	}
}

func TestGenerateAllTablesPresent(t *testing.T) {
	db := Generate(Config{ScaleFactor: 0.002, Seed: 2})
	for _, name := range []string{"region", "nation", "supplier", "customer",
		"part", "partsupp", "orders", "lineitem"} {
		tbl, err := db.Table(name)
		if err != nil {
			t.Fatalf("missing table %s", name)
		}
		if tbl.NumRows() == 0 {
			t.Errorf("table %s empty", name)
		}
	}
}

func TestScaleRatio(t *testing.T) {
	small := Generate(ConfigFor(Uniform1G, 1))
	big := Generate(ConfigFor(Uniform10G, 1))
	ls, _ := small.Table("lineitem")
	lb, _ := big.Table("lineitem")
	ratio := float64(lb.NumRows()) / float64(ls.NumRows())
	if ratio < 8 || ratio > 12 {
		t.Errorf("10G/1G lineitem ratio = %v, want ~10", ratio)
	}
}

func TestForeignKeysValid(t *testing.T) {
	db := Generate(Config{ScaleFactor: 0.002, Z: 1, Seed: 3})
	li, _ := db.Table("lineitem")
	orders, _ := db.Table("orders")
	cust, _ := db.Table("customer")
	nOrders := int64(orders.NumRows())
	ok := li.ColIndex("l_orderkey")
	for _, r := range li.Rows {
		if r[ok] < 0 || r[ok] >= nOrders {
			t.Fatalf("l_orderkey %d out of range", r[ok])
		}
	}
	nCust := int64(cust.NumRows())
	ck := orders.ColIndex("o_custkey")
	for _, r := range orders.Rows {
		if r[ck] < 0 || r[ck] >= nCust {
			t.Fatalf("o_custkey %d out of range", r[ck])
		}
	}
}

func TestSkewIncreasesConcentration(t *testing.T) {
	// Top-1 frequency of l_quantity should be much larger under z=1.
	top1 := func(z float64) float64 {
		db := Generate(Config{ScaleFactor: 0.004, Z: z, Seed: 4})
		li, _ := db.Table("lineitem")
		qi := li.ColIndex("l_quantity")
		counts := make(map[int64]int)
		for _, r := range li.Rows {
			counts[r[qi]]++
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		return float64(best) / float64(li.NumRows())
	}
	u, s := top1(0), top1(1)
	if s < 2*u {
		t.Errorf("skewed top-1 frequency %v not much larger than uniform %v", s, u)
	}
}

func TestUniformValuesCoverDomain(t *testing.T) {
	db := Generate(Config{ScaleFactor: 0.004, Z: 0, Seed: 5})
	li, _ := db.Table("lineitem")
	qi := li.ColIndex("l_quantity")
	seen := make(map[int64]bool)
	for _, r := range li.Rows {
		if r[qi] < 1 || r[qi] > 50 {
			t.Fatalf("l_quantity %d out of 1..50", r[qi])
		}
		seen[r[qi]] = true
	}
	if len(seen) < 45 {
		t.Errorf("only %d distinct quantities; expected near-full coverage", len(seen))
	}
}

func TestShipdateWithinDomain(t *testing.T) {
	db := Generate(Config{ScaleFactor: 0.002, Z: 1, Seed: 6})
	li, _ := db.Table("lineitem")
	si := li.ColIndex("l_shipdate")
	for _, r := range li.Rows {
		if r[si] < 0 || r[si] >= DateDays {
			t.Fatalf("l_shipdate %d out of [0,%d)", r[si], DateDays)
		}
	}
}

func TestConfigForAllKinds(t *testing.T) {
	for _, k := range []DBKind{Uniform1G, Skewed1G, Uniform10G, Skewed10G} {
		cfg := ConfigFor(k, 7)
		if cfg.ScaleFactor <= 0 {
			t.Errorf("%v: bad scale", k)
		}
		skewed := k == Skewed1G || k == Skewed10G
		if skewed != (cfg.Z > 0) {
			t.Errorf("%v: z=%v", k, cfg.Z)
		}
		if k.String() == "" || math.IsNaN(cfg.ScaleFactor) {
			t.Errorf("%v: bad string/scale", k)
		}
	}
}

func TestTinyScaleClampsToMinimum(t *testing.T) {
	db := Generate(Config{ScaleFactor: 1e-9, Seed: 8})
	s, _ := db.Table("supplier")
	if s.NumRows() < 10 {
		t.Errorf("supplier rows = %d, want >= 10", s.NumRows())
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range []DBKind{Uniform1G, Skewed1G, Uniform10G, Skewed10G} {
		for _, name := range []string{k.String(), strings.ToUpper(k.String())} {
			if got, err := ParseKind(name); err != nil || got != k {
				t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, k)
			}
		}
	}
	if _, err := ParseKind("uniform-100G"); err == nil || err.Error() != `unknown database "uniform-100G"` {
		t.Errorf("ParseKind on an unknown name: %v", err)
	}
}

// TestZipfReuseIsBitIdentical pins that keeping one rand.Zipf per domain
// draws exactly what a fresh rand.NewZipf per value drew: the
// constructor takes nothing from the source, so value must match a
// reference that builds a new generator for every draw from the same
// seed, over interleaved domains and several skews.
func TestZipfReuseIsBitIdentical(t *testing.T) {
	domains := []int{2, 5, 25, 120, DateDays, 10000, 50000}
	for _, z := range []float64{0.25, 1, 2.5} {
		g := &generator{cfg: Config{Z: z}, r: rand.New(rand.NewSource(7)), zipf: map[int]*rand.Zipf{}}
		ref := rand.New(rand.NewSource(7))
		for i := 0; i < 20000; i++ {
			domain, salt := domains[(i*i+3*i)%len(domains)], int64(i%17)
			want := (int64(rand.NewZipf(ref, 1+z, 1, uint64(domain-1)).Uint64())*2654435761 + salt) % int64(domain)
			if got := g.value(domain, salt); got != want {
				t.Fatalf("z=%v draw %d (domain %d): got %d, want %d", z, i, domain, got, want)
			}
		}
	}
}

// BenchmarkGenerateSkewed is database generation by itself — the
// open.datagen_s layer of the benchmark's plan_choice workload: one op
// generates skewed-10G.
func BenchmarkGenerateSkewed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(ConfigFor(Skewed10G, 1))
	}
}
