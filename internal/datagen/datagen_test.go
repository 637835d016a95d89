package datagen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"maps"
	"math"
	"math/rand"
	"slices"
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
	for j := range la.Data {
		for i := range la.Data[j] {
			if la.Data[j][i] != lb.Data[j][i] {
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
	for _, v := range li.Data[li.ColIndex("l_orderkey")] {
		if v < 0 || v >= nOrders {
			t.Fatalf("l_orderkey %d out of range", v)
		}
	}
	nCust := int64(cust.NumRows())
	for _, v := range orders.Data[orders.ColIndex("o_custkey")] {
		if v < 0 || v >= nCust {
			t.Fatalf("o_custkey %d out of range", v)
		}
	}
}

func TestSkewIncreasesConcentration(t *testing.T) {
	// Top-1 frequency of l_quantity should be much larger under z=1.
	top1 := func(z float64) float64 {
		db := Generate(Config{ScaleFactor: 0.004, Z: z, Seed: 4})
		li, _ := db.Table("lineitem")
		counts := make(map[int64]int)
		for _, v := range li.Data[li.ColIndex("l_quantity")] {
			counts[v]++
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
	seen := make(map[int64]bool)
	for _, v := range li.Data[li.ColIndex("l_quantity")] {
		if v < 1 || v > 50 {
			t.Fatalf("l_quantity %d out of 1..50", v)
		}
		seen[v] = true
	}
	if len(seen) < 45 {
		t.Errorf("only %d distinct quantities; expected near-full coverage", len(seen))
	}
}

func TestShipdateWithinDomain(t *testing.T) {
	db := Generate(Config{ScaleFactor: 0.002, Z: 1, Seed: 6})
	li, _ := db.Table("lineitem")
	for _, v := range li.Data[li.ColIndex("l_shipdate")] {
		if v < 0 || v >= DateDays {
			t.Fatalf("l_shipdate %d out of [0,%d)", v, DateDays)
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

// TestGeneratedDataPinned hashes every value Generate writes, for all
// four evaluation databases at seed 1: tables in name order, each its
// name and row count, then each column's name and values in row order,
// little-endian. The hash does not depend on the table layout, so it
// holds the generators' draw order on every column, not only on those
// the pinned queries read. The literals were taken from the row-major
// generators; do not re-capture them.
func TestGeneratedDataPinned(t *testing.T) {
	want := map[DBKind]string{
		Uniform1G:  "710a68ca4886131cd7b97a1356df163771031f443b72b9c2da12b42430440936",
		Skewed1G:   "f73eb4e3d4bd184d3cb98ffa5cabc9ed8881b86107e3dfb0f075c463909bab12",
		Uniform10G: "c8317c05504854e0db31fcb9544dcb811ad0380cbde0262ca1c920f39567465e",
		Skewed10G:  "2dd902c4cc63401d4f985a16fda13b4e5038539b51b6abce621a17489a494fcf",
	}
	for kind, digest := range want {
		db := Generate(ConfigFor(kind, 1))
		names := slices.Sorted(maps.Keys(db.Tables))
		h := sha256.New()
		var b []byte
		for _, name := range names {
			tab := db.Tables[name]
			b = binary.LittleEndian.AppendUint64(append(append(b[:0], name...), 0), uint64(tab.NumRows()))
			for c, col := range tab.Cols {
				b = append(append(b, col...), 0)
				for _, v := range tab.Data[c] {
					b = binary.LittleEndian.AppendUint64(b, uint64(v))
				}
			}
			h.Write(b)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != digest {
			t.Errorf("%v: data digest %s, want %s", kind, got, digest)
		}
	}
}

// TestGenerateAllocs pins what generating a database allocates: one
// block of columns per table plus its headers and column index, and the
// generator's source. Row-major tables spent one slice per row (34,718
// allocations for uniform-1G).
func TestGenerateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	allocs := testing.AllocsPerRun(3, func() { Generate(ConfigFor(Uniform1G, 1)) })
	const budget = 48
	if allocs > budget {
		t.Errorf("Generate(uniform-1G) allocates %.0f times, budget %d", allocs, budget)
	}
	t.Logf("Generate(uniform-1G): %.0f allocs", allocs)
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
