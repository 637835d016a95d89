// Package datagen generates synthetic TPC-H-style databases with
// controllable Zipf skew, substituting for the TPC-H dbgen tool and the
// Microsoft skewed TPC-H generator used in the paper (Section 6.1).
//
// The skew parameter z matches the paper's convention: z = 0 yields
// uniform value distributions and larger z yields more skew; the paper's
// skewed databases use z = 1.
//
// Scale maps the paper's "1 GB" and "10 GB" databases onto laptop-sized
// row counts; what the predictor consumes is selectivity structure and
// relative table sizes, which are preserved.
package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/engine"
)

// Config controls database generation.
type Config struct {
	// ScaleFactor multiplies the TPC-H base row counts (SF 1 = 6M
	// lineitem rows). Scale1GB and Scale10GB are the defaults used by the
	// experiment harness.
	ScaleFactor float64
	// Zipf skew: 0 = uniform, 1 = the paper's skewed databases.
	Z float64
	// Seed makes generation deterministic.
	Seed int64
}

// Default scale factors for the two database sizes in the paper, chosen
// so experiments complete quickly in-memory while preserving the 10x
// size ratio.
const (
	Scale1GB  = 0.004
	Scale10GB = 0.04
)

// DateDays is the span of the order/ship date domain in days
// (1992-01-01 .. 1998-12-31, as in TPC-H).
const DateDays = 2557

// Base row counts at scale factor 1 (TPC-H specification).
const (
	baseSupplier = 10000
	baseCustomer = 150000
	basePart     = 200000
	basePartSupp = 800000
	baseOrders   = 1500000
	baseLineItem = 6000000
)

// Generate builds the database. Fixed-size dimension tables (region,
// nation) do not scale.
func Generate(cfg Config) *engine.DB {
	if cfg.ScaleFactor <= 0 {
		cfg.ScaleFactor = Scale1GB
	}
	g := &generator{cfg: cfg, r: rand.New(rand.NewSource(cfg.Seed)), zipf: map[int]*rand.Zipf{}}
	db := engine.NewDB()
	db.Add(g.region())
	db.Add(g.nation())
	db.Add(g.supplier())
	db.Add(g.customer())
	db.Add(g.part())
	db.Add(g.partsupp())
	orders := g.orders()
	db.Add(orders)
	db.Add(g.lineitem(orders))
	return db
}

type generator struct {
	cfg  Config
	r    *rand.Rand
	zipf map[int]*rand.Zipf // the Zipf variate generator of each domain, drawing from r
}

func (g *generator) scaled(base int) int {
	n := int(math.Round(float64(base) * g.cfg.ScaleFactor))
	if n < 10 {
		n = 10
	}
	return n
}

// value draws a value from [0, domain) — uniform when z == 0, Zipf with
// exponent ~1+z otherwise. Zipf ranks are shuffled deterministically per
// (domain, salt) so different columns skew toward different values.
func (g *generator) value(domain int, salt int64) int64 {
	if domain <= 1 {
		return 0
	}
	if g.cfg.Z <= 0 {
		return int64(g.r.Intn(domain))
	}
	// rand.Zipf requires s > 1; map paper z in (0, ...] to s = 1 + z.
	// NewZipf draws nothing from r, so one per domain draws the stream a
	// new one per value would.
	z := g.zipf[domain]
	if z == nil {
		z = rand.NewZipf(g.r, 1+g.cfg.Z, 1, uint64(domain-1))
		g.zipf[domain] = z
	}
	rank := int64(z.Uint64())
	// Spread the heavy ranks across the domain with an affine hash so
	// skewed columns are not all piled at 0.
	return (rank*2654435761 + salt) % int64(domain)
}

func (g *generator) region() *engine.Table {
	rows := make([][]int64, 5)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i)}
	}
	return engine.NewTable("region", []string{"r_regionkey", "r_name"}, rows)
}

func (g *generator) nation() *engine.Table {
	rows := make([][]int64, 25)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i % 5), int64(i)}
	}
	return engine.NewTable("nation", []string{"n_nationkey", "n_regionkey", "n_name"}, rows)
}

func (g *generator) supplier() *engine.Table {
	n := g.scaled(baseSupplier)
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{
			int64(i),           // s_suppkey
			g.value(25, 11),    // s_nationkey
			g.value(10000, 13), // s_acctbal (cents scale)
		}
	}
	return engine.NewTable("supplier", []string{"s_suppkey", "s_nationkey", "s_acctbal"}, rows)
}

func (g *generator) customer() *engine.Table {
	n := g.scaled(baseCustomer)
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{
			int64(i),           // c_custkey
			g.value(25, 17),    // c_nationkey
			g.value(10000, 19), // c_acctbal
			g.value(5, 23),     // c_mktsegment
		}
	}
	return engine.NewTable("customer",
		[]string{"c_custkey", "c_nationkey", "c_acctbal", "c_mktsegment"}, rows)
}

func (g *generator) part() *engine.Table {
	n := g.scaled(basePart)
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{
			int64(i),            // p_partkey
			g.value(25, 29),     // p_brand
			1 + g.value(50, 31), // p_size in 1..50
			g.value(40, 37),     // p_container
			g.value(2000, 41),   // p_retailprice
		}
	}
	return engine.NewTable("part",
		[]string{"p_partkey", "p_brand", "p_size", "p_container", "p_retailprice"}, rows)
}

func (g *generator) partsupp() *engine.Table {
	nPart := g.scaled(basePart)
	nSupp := g.scaled(baseSupplier)
	n := g.scaled(basePartSupp)
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{
			int64(i % nPart),   // ps_partkey (every part covered)
			g.value(nSupp, 43), // ps_suppkey
			g.value(1000, 47),  // ps_supplycost
			g.value(10000, 53), // ps_availqty
		}
	}
	return engine.NewTable("partsupp",
		[]string{"ps_partkey", "ps_suppkey", "ps_supplycost", "ps_availqty"}, rows)
}

func (g *generator) orders() *engine.Table {
	nCust := g.scaled(baseCustomer)
	n := g.scaled(baseOrders)
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{
			int64(i),              // o_orderkey
			g.value(nCust, 59),    // o_custkey
			g.value(DateDays, 61), // o_orderdate
			g.value(50000, 67),    // o_totalprice
			g.value(5, 71),        // o_orderpriority
		}
	}
	return engine.NewTable("orders",
		[]string{"o_orderkey", "o_custkey", "o_orderdate", "o_totalprice", "o_orderpriority"}, rows)
}

func (g *generator) lineitem(orders *engine.Table) *engine.Table {
	nPart := g.scaled(basePart)
	nSupp := g.scaled(baseSupplier)
	n := g.scaled(baseLineItem)
	nOrders := orders.NumRows()
	odIdx := orders.ColIndex("o_orderdate")
	rows := make([][]int64, n)
	for i := range rows {
		// Lineitems reference orders roughly uniformly (each order gets
		// ~4 lineitems), keeping the FK join selectivity realistic.
		okey := int64(i % nOrders)
		odate := orders.Rows[okey][odIdx]
		ship := odate + 1 + g.value(120, 73) // shipped within ~4 months
		if ship >= DateDays {
			ship = DateDays - 1
		}
		rows[i] = []int64{
			okey,                        // l_orderkey
			g.value(nPart, 79),          // l_partkey
			g.value(nSupp, 83),          // l_suppkey
			1 + g.value(50, 89),         // l_quantity in 1..50
			g.value(10000, 97),          // l_extendedprice
			g.value(11, 101),            // l_discount in 0..10 (percent)
			g.value(9, 103),             // l_tax
			ship,                        // l_shipdate
			ship + 1 + g.value(30, 107), // l_receiptdate
			g.value(3, 109),             // l_returnflag
			g.value(2, 113),             // l_linestatus
			g.value(7, 127),             // l_shipmode
		}
	}
	return engine.NewTable("lineitem", []string{
		"l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
		"l_extendedprice", "l_discount", "l_tax", "l_shipdate",
		"l_receiptdate", "l_returnflag", "l_linestatus", "l_shipmode",
	}, rows)
}

// DBKind names the four databases of the paper's evaluation.
type DBKind int

// The four evaluation databases.
const (
	Uniform1G DBKind = iota
	Skewed1G
	Uniform10G
	Skewed10G
)

// String implements fmt.Stringer.
func (k DBKind) String() string {
	switch k {
	case Uniform1G:
		return "uniform-1G"
	case Skewed1G:
		return "skewed-1G"
	case Uniform10G:
		return "uniform-10G"
	case Skewed10G:
		return "skewed-10G"
	default:
		return fmt.Sprintf("DBKind(%d)", int(k))
	}
}

// ParseKind parses a database name as String renders it,
// case-insensitively.
func ParseKind(s string) (DBKind, error) {
	for k := Uniform1G; k <= Skewed10G; k++ {
		if strings.EqualFold(k.String(), s) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown database %q", s)
}

// ConfigFor returns the generation config for one of the paper's four
// databases at the given seed.
func ConfigFor(kind DBKind, seed int64) Config {
	switch kind {
	case Uniform1G:
		return Config{ScaleFactor: Scale1GB, Z: 0, Seed: seed}
	case Skewed1G:
		return Config{ScaleFactor: Scale1GB, Z: 1, Seed: seed}
	case Uniform10G:
		return Config{ScaleFactor: Scale10GB, Z: 0, Seed: seed}
	case Skewed10G:
		return Config{ScaleFactor: Scale10GB, Z: 1, Seed: seed}
	default:
		panic(fmt.Sprintf("datagen: unknown DBKind %d", int(kind)))
	}
}
