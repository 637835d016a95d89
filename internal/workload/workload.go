// Package workload generates the three benchmarks of Section 6.2:
//
//   - MICRO: pure selections and two-way joins placed evenly across the
//     selectivity space (the Picasso-style grids).
//   - SELJOIN: multi-way selection–join queries derived from the TPC-H
//     templates with aggregates stripped ("maximal sub-query without
//     aggregates").
//   - TPCH: parameterized instances of 14 simplified TPC-H templates
//     (1, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 18, 19), aggregates
//     included.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/plan"
)

// Benchmark names one of the paper's three query benchmarks.
type Benchmark int

// The three benchmarks.
const (
	Micro Benchmark = iota
	SelJoin
	TPCH
)

// String implements fmt.Stringer.
func (b Benchmark) String() string {
	switch b {
	case Micro:
		return "MICRO"
	case SelJoin:
		return "SELJOIN"
	case TPCH:
		return "TPCH"
	default:
		return fmt.Sprintf("Benchmark(%d)", int(b))
	}
}

// Benchmarks lists all benchmarks.
var Benchmarks = []Benchmark{Micro, SelJoin, TPCH}

// ParseBenchmark parses a benchmark name, case-insensitively.
func ParseBenchmark(s string) (Benchmark, error) {
	for _, b := range Benchmarks {
		if strings.EqualFold(b.String(), s) {
			return b, nil
		}
	}
	return 0, fmt.Errorf("unknown benchmark %q (want micro, seljoin, or tpch)", s)
}

// Generate produces n queries of the benchmark against the database
// described by cat. Generation is deterministic per seed.
func Generate(b Benchmark, cat *catalog.Catalog, n int, seed int64) ([]*plan.Query, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: non-positive query count %d", n)
	}
	r := rand.New(rand.NewSource(seed))
	switch b {
	case Micro:
		return genMicro(cat, n, r)
	case SelJoin:
		return genSelJoin(cat, n, r)
	case TPCH:
		return genTPCH(cat, n, r)
	default:
		return nil, fmt.Errorf("workload: unknown benchmark %d", int(b))
	}
}

// lePred builds "col <= quantile(sel)" hitting the target selectivity.
func lePred(cat *catalog.Catalog, table, col string, sel float64) (engine.Predicate, error) {
	cs, err := cat.Column(table, col)
	if err != nil {
		return engine.Predicate{}, err
	}
	return engine.Predicate{Col: col, Op: engine.Le, Lo: cs.Quantile(sel)}, nil
}

// scanTargets are the (table, column) pairs MICRO scans cycle through.
var scanTargets = []struct{ table, col string }{
	{"lineitem", "l_shipdate"},
	{"orders", "o_totalprice"},
	{"part", "p_retailprice"},
	{"customer", "c_acctbal"},
	{"lineitem", "l_extendedprice"},
	{"orders", "o_orderdate"},
}

func genMicro(cat *catalog.Catalog, n int, r *rand.Rand) ([]*plan.Query, error) {
	queries := make([]*plan.Query, 0, n)
	// Half scans over a 1-D selectivity grid, half 2-way joins over a
	// 2-D grid; the grids are evenly spaced with tiny jitter so repeated
	// draws do not collide on identical predicates.
	nScan := n / 2
	for i := 0; i < nScan; i++ {
		sel := (float64(i) + 0.5) / float64(nScan)
		tgt := scanTargets[i%len(scanTargets)]
		p, err := lePred(cat, tgt.table, tgt.col, clamp01(sel+0.02*r.Float64()))
		if err != nil {
			return nil, err
		}
		queries = append(queries, &plan.Query{
			Name:   fmt.Sprintf("micro-scan-%02d", i),
			Tables: []string{tgt.table},
			Preds:  []engine.Predicate{p},
		})
	}
	nJoin := n - nScan
	side := gridSide(nJoin)
	for i := 0; i < nJoin; i++ {
		sl := (float64(i%side) + 0.5) / float64(side)
		sr := (float64(i/side) + 0.5) / float64(side)
		po, err := lePred(cat, "orders", "o_totalprice", clamp01(sl))
		if err != nil {
			return nil, err
		}
		pl, err := lePred(cat, "lineitem", "l_quantity", clamp01(sr))
		if err != nil {
			return nil, err
		}
		queries = append(queries, &plan.Query{
			Name:   fmt.Sprintf("micro-join-%02d", i),
			Tables: []string{"orders", "lineitem"},
			Preds:  []engine.Predicate{po, pl},
			Joins: []plan.JoinCond{{
				LeftTable: "orders", LeftCol: "o_orderkey",
				RightTable: "lineitem", RightCol: "l_orderkey",
			}},
		})
	}
	return queries, nil
}

func gridSide(n int) int {
	s := 1
	for s*s < n {
		s++
	}
	return s
}

func clamp01(x float64) float64 {
	if x < 0.02 {
		return 0.02
	}
	if x > 0.98 {
		return 0.98
	}
	return x
}

// joinTemplate is a connected sub-graph of the TPC-H foreign-key graph.
type joinTemplate struct {
	name   string
	tables []string
	joins  []plan.JoinCond
	// predCols lists candidate (table, col) predicate targets.
	predCols []struct{ table, col string }
}

func fkJoin(lt, lc, rt, rc string) plan.JoinCond {
	return plan.JoinCond{LeftTable: lt, LeftCol: lc, RightTable: rt, RightCol: rc}
}

var selJoinTemplates = []joinTemplate{
	{
		name:   "co",
		tables: []string{"customer", "orders"},
		joins:  []plan.JoinCond{fkJoin("customer", "c_custkey", "orders", "o_custkey")},
		predCols: []struct{ table, col string }{
			{"customer", "c_acctbal"}, {"orders", "o_totalprice"}, {"orders", "o_orderdate"},
		},
	},
	{
		name:   "ol",
		tables: []string{"orders", "lineitem"},
		joins:  []plan.JoinCond{fkJoin("orders", "o_orderkey", "lineitem", "l_orderkey")},
		predCols: []struct{ table, col string }{
			{"orders", "o_orderdate"}, {"lineitem", "l_shipdate"}, {"lineitem", "l_quantity"},
		},
	},
	{
		name:   "col",
		tables: []string{"customer", "orders", "lineitem"},
		joins: []plan.JoinCond{
			fkJoin("customer", "c_custkey", "orders", "o_custkey"),
			fkJoin("orders", "o_orderkey", "lineitem", "l_orderkey"),
		},
		predCols: []struct{ table, col string }{
			{"customer", "c_acctbal"}, {"orders", "o_orderdate"}, {"lineitem", "l_extendedprice"},
		},
	},
	{
		name:   "olp",
		tables: []string{"orders", "lineitem", "part"},
		joins: []plan.JoinCond{
			fkJoin("orders", "o_orderkey", "lineitem", "l_orderkey"),
			fkJoin("lineitem", "l_partkey", "part", "p_partkey"),
		},
		predCols: []struct{ table, col string }{
			{"orders", "o_totalprice"}, {"part", "p_retailprice"}, {"lineitem", "l_shipdate"},
		},
	},
	{
		name:   "ols",
		tables: []string{"orders", "lineitem", "supplier"},
		joins: []plan.JoinCond{
			fkJoin("orders", "o_orderkey", "lineitem", "l_orderkey"),
			fkJoin("lineitem", "l_suppkey", "supplier", "s_suppkey"),
		},
		predCols: []struct{ table, col string }{
			{"orders", "o_orderdate"}, {"supplier", "s_acctbal"},
		},
	},
	{
		name:   "cols",
		tables: []string{"customer", "orders", "lineitem", "supplier"},
		joins: []plan.JoinCond{
			fkJoin("customer", "c_custkey", "orders", "o_custkey"),
			fkJoin("orders", "o_orderkey", "lineitem", "l_orderkey"),
			fkJoin("lineitem", "l_suppkey", "supplier", "s_suppkey"),
		},
		predCols: []struct{ table, col string }{
			{"customer", "c_acctbal"}, {"orders", "o_orderdate"}, {"supplier", "s_acctbal"},
		},
	},
	{
		name:   "pps",
		tables: []string{"part", "partsupp", "supplier"},
		joins: []plan.JoinCond{
			fkJoin("part", "p_partkey", "partsupp", "ps_partkey"),
			fkJoin("partsupp", "ps_suppkey", "supplier", "s_suppkey"),
		},
		predCols: []struct{ table, col string }{
			{"part", "p_retailprice"}, {"partsupp", "ps_supplycost"}, {"supplier", "s_acctbal"},
		},
	},
	{
		name:   "lp",
		tables: []string{"lineitem", "part"},
		joins:  []plan.JoinCond{fkJoin("lineitem", "l_partkey", "part", "p_partkey")},
		predCols: []struct{ table, col string }{
			{"lineitem", "l_shipdate"}, {"part", "p_size"},
		},
	},
}

func genSelJoin(cat *catalog.Catalog, n int, r *rand.Rand) ([]*plan.Query, error) {
	queries := make([]*plan.Query, 0, n)
	for i := 0; i < n; i++ {
		tpl := selJoinTemplates[i%len(selJoinTemplates)]
		q := &plan.Query{
			Name:   fmt.Sprintf("seljoin-%s-%02d", tpl.name, i),
			Tables: append([]string{}, tpl.tables...),
			Joins:  append([]plan.JoinCond{}, tpl.joins...),
		}
		// 1-2 random predicates at random target selectivities.
		nPred := 1 + r.Intn(2)
		perm := r.Perm(len(tpl.predCols))
		for _, pi := range perm[:min(nPred, len(tpl.predCols))] {
			pc := tpl.predCols[pi]
			sel := 0.05 + 0.85*r.Float64()
			p, err := lePred(cat, pc.table, pc.col, sel)
			if err != nil {
				return nil, err
			}
			q.Preds = append(q.Preds, p)
		}
		queries = append(queries, q)
	}
	return queries, nil
}
