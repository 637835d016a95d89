// Package catalog maintains the statistics the "query optimizer" side of
// the system uses: row and page counts, per-column min/max/distinct
// counts, and equi-depth histograms. It supplies the optimizer's
// cardinality estimates, which the predictor falls back to for operators
// the sampling estimator cannot handle (aggregates — Algorithm 1 lines
// 3-5) and which the plan builder uses to order joins.
package catalog

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/engine"
	"repro/internal/stats"
)

// histogramBuckets is the number of equi-depth buckets per column.
const histogramBuckets = 64

// ColumnStats summarizes one column.
type ColumnStats struct {
	Min, Max int64
	Distinct int
	// Bounds are the equi-depth bucket upper bounds (ascending,
	// histogramBuckets entries; each bucket holds ~1/B of the rows).
	Bounds []int64
	rows   int
}

// TableStats summarizes one table.
type TableStats struct {
	Rows    int
	Pages   float64
	Columns map[string]*ColumnStats
}

// Catalog holds statistics for every table in a database.
type Catalog struct {
	Tables map[string]*TableStats
}

// Build computes every table's statistics. Each column is copied, in
// turn, into one buffer sized to the largest table and reused by every
// column of every table (a copy of engine.Table's column, not a gather),
// and radix sorted there (stats.SortInt64s) with one scratch buffer of
// the same size beside it; the table's own columns are never reordered.
// The sorted order is unique, so the statistics are those of any other
// sort.
func Build(db *engine.DB) *Catalog {
	c := &Catalog{Tables: make(map[string]*TableStats, len(db.Tables))}
	n := 0
	for _, t := range db.Tables {
		n = max(n, t.NumRows())
	}
	buf, scratch := make([]int64, n), make([]uint64, n)
	for name, t := range db.Tables {
		ts := &TableStats{
			Rows:    t.NumRows(),
			Pages:   t.Pages(),
			Columns: make(map[string]*ColumnStats, len(t.Cols)),
		}
		for ci, col := range t.Cols {
			vals := buf[:copy(buf, t.Data[ci])]
			stats.SortInt64s(vals, scratch) // scratch is never short
			ts.Columns[col] = buildColumn(vals)
		}
		c.Tables[name] = ts
	}
	return c
}

// buildColumn computes a column's statistics from vals, the column
// sorted ascending. It keeps no reference to vals.
func buildColumn(vals []int64) *ColumnStats {
	cs := &ColumnStats{rows: len(vals)}
	if len(vals) == 0 {
		return cs
	}
	cs.Min, cs.Max = vals[0], vals[len(vals)-1]
	distinct := 1
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1] {
			distinct++
		}
	}
	cs.Distinct = distinct
	b := histogramBuckets
	if b > len(vals) {
		b = len(vals)
	}
	cs.Bounds = make([]int64, b)
	for i := 0; i < b; i++ {
		// Upper bound of bucket i covers rows up to rank (i+1)/b.
		idx := (i+1)*len(vals)/b - 1
		cs.Bounds[i] = vals[idx]
	}
	return cs
}

// Table returns stats for the named table or an error.
func (c *Catalog) Table(name string) (*TableStats, error) {
	ts, ok := c.Tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: no statistics for table %q", name)
	}
	return ts, nil
}

// Column returns stats for table.col or an error.
func (c *Catalog) Column(table, col string) (*ColumnStats, error) {
	ts, err := c.Table(table)
	if err != nil {
		return nil, err
	}
	cs, ok := ts.Columns[col]
	if !ok {
		return nil, fmt.Errorf("catalog: no statistics for column %s.%s", table, col)
	}
	return cs, nil
}

// FindColumn locates the table that owns col (column names are globally
// unique in the TPC-H-style schema).
func (c *Catalog) FindColumn(col string) (table string, cs *ColumnStats, err error) {
	for tname, ts := range c.Tables {
		if s, ok := ts.Columns[col]; ok {
			return tname, s, nil
		}
	}
	return "", nil, fmt.Errorf("catalog: column %q not found in any table", col)
}

// fracLE estimates the fraction of rows with value <= v from the
// equi-depth histogram, interpolating linearly inside a bucket.
func (cs *ColumnStats) fracLE(v int64) float64 {
	if cs.rows == 0 || len(cs.Bounds) == 0 {
		return 0
	}
	if v < cs.Min {
		return 0
	}
	if v >= cs.Max {
		return 1
	}
	b := len(cs.Bounds)
	// First bucket whose upper bound is >= v.
	i := sort.Search(b, func(i int) bool { return cs.Bounds[i] >= v })
	if i >= b {
		return 1
	}
	lo := cs.Min
	if i > 0 {
		lo = cs.Bounds[i-1]
	}
	hi := cs.Bounds[i]
	frac := float64(i) / float64(b)
	width := float64(hi - lo)
	if width > 0 {
		frac += (float64(v-lo) / width) / float64(b)
	} else {
		frac += 1 / float64(b)
	}
	if frac > 1 {
		frac = 1
	}
	return frac
}

// fracLT is the fraction with value < v: fracLE(v-1), but 0 at MinInt64.
func (cs *ColumnStats) fracLT(v int64) float64 {
	if v == math.MinInt64 {
		return 0
	}
	return cs.fracLE(v - 1)
}

// Quantile returns an approximate value v such that a fraction q of the
// rows have value <= v, from the equi-depth histogram. Workload
// generators use it to construct predicates with target selectivities
// (the Picasso-style grids of Section 6.2).
func (cs *ColumnStats) Quantile(q float64) int64 {
	if len(cs.Bounds) == 0 {
		return cs.Min
	}
	if q <= 0 {
		return cs.Min
	}
	if q >= 1 {
		return cs.Max
	}
	i := int(q * float64(len(cs.Bounds)))
	if i >= len(cs.Bounds) {
		i = len(cs.Bounds) - 1
	}
	return cs.Bounds[i]
}

// PredicateSelectivity is the optimizer's histogram-based estimate of the
// fraction of rows satisfying p.
func (c *Catalog) PredicateSelectivity(table string, p *engine.Predicate) (float64, error) {
	cs, err := c.Column(table, p.Col)
	if err != nil {
		return 0, err
	}
	var sel float64
	switch p.Op {
	case engine.Lt:
		sel = cs.fracLT(p.Lo)
	case engine.Le:
		sel = cs.fracLE(p.Lo)
	case engine.Eq:
		if cs.Distinct > 0 {
			sel = 1 / float64(cs.Distinct)
		}
	case engine.Ge:
		sel = 1 - cs.fracLT(p.Lo)
	case engine.Gt:
		sel = 1 - cs.fracLE(p.Lo)
	case engine.Between:
		sel = cs.fracLE(p.Hi) - cs.fracLT(p.Lo)
	default:
		return 0, fmt.Errorf("catalog: unknown predicate op %v", p.Op)
	}
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	return sel, nil
}

// JoinSelectivityFactor is the classical System-R style estimate
// 1/max(distinct(l), distinct(r)) for an equijoin l = r.
func (c *Catalog) JoinSelectivityFactor(ltab, lcol, rtab, rcol string) (float64, error) {
	lcs, err := c.Column(ltab, lcol)
	if err != nil {
		return 0, err
	}
	rcs, err := c.Column(rtab, rcol)
	if err != nil {
		return 0, err
	}
	d := lcs.Distinct
	if rcs.Distinct > d {
		d = rcs.Distinct
	}
	if d <= 0 {
		return 0, nil
	}
	return 1 / float64(d), nil
}

// groupCount estimates the number of groups when grouping rows of table
// by col, capped by the input cardinality.
func (c *Catalog) groupCount(table, col string, inputRows float64) (float64, error) {
	if col == "" {
		return 1, nil
	}
	cs, err := c.Column(table, col)
	if err != nil {
		return 0, err
	}
	g := float64(cs.Distinct)
	if g > inputRows {
		g = inputRows
	}
	if g < 1 {
		g = 1
	}
	return g, nil
}

// FullSize returns Π|R| over the leaf tables of the subtree rooted at n:
// the Cartesian size a selectivity of n is relative to.
func (c *Catalog) FullSize(n *engine.Node) (float64, error) {
	p := 1.0
	for _, t := range n.LeafTables {
		ts, err := c.Table(t)
		if err != nil {
			return 0, err
		}
		p *= float64(ts.Rows)
	}
	return p, nil
}

// JoinFactor returns JoinSelectivityFactor for a join node, each join
// column resolved to the first leaf table of its side that carries it.
func (c *Catalog) JoinFactor(n *engine.Node) (float64, error) {
	lt, err := c.tableOf(n.Left.LeafTables, n.LeftCol)
	if err != nil {
		return 0, err
	}
	rt, err := c.tableOf(n.Right.LeafTables, n.RightCol)
	if err != nil {
		return 0, err
	}
	return c.JoinSelectivityFactor(lt, n.LeftCol, rt, n.RightCol)
}

func (c *Catalog) tableOf(tables []string, col string) (string, error) {
	for _, t := range tables {
		if _, err := c.Column(t, col); err == nil {
			return t, nil
		}
	}
	return "", fmt.Errorf("catalog: column %q not found among %v", col, tables)
}

// Cardinality returns the optimizer's estimate of the output cardinality
// of the subtree rooted at n, which the predictor falls back to at and
// above aggregates (Algorithm 1 lines 3-5).
func (c *Catalog) Cardinality(n *engine.Node) (float64, error) {
	switch {
	case n.Kind.IsScan():
		ts, err := c.Table(n.Table)
		if err != nil {
			return 0, err
		}
		card := float64(ts.Rows)
		for pi := range n.Preds {
			sel, err := c.PredicateSelectivity(n.Table, &n.Preds[pi])
			if err != nil {
				return 0, err
			}
			card *= sel
		}
		return card, nil
	case n.Kind.IsJoin():
		l, err := c.Cardinality(n.Left)
		if err != nil {
			return 0, err
		}
		r, err := c.Cardinality(n.Right)
		if err != nil {
			return 0, err
		}
		f, err := c.JoinFactor(n)
		if err != nil {
			return 0, err
		}
		return l * r * f, nil
	case n.Kind == engine.Aggregate:
		in, err := c.Cardinality(n.Left)
		if err != nil {
			return 0, err
		}
		if n.GroupCol == "" {
			return 1, nil
		}
		tab, _, err := c.FindColumn(n.GroupCol)
		if err != nil {
			return 0, err
		}
		return c.groupCount(tab, n.GroupCol, in)
	default: // Sort, Materialize
		return c.Cardinality(n.Left)
	}
}
