// Package engine is the in-memory relational execution substrate. It
// provides integer-encoded tables stored by column (the repository's one
// table layout: sample tables are Tables too), predicates, binary
// query-plan trees (Section 2 of the paper), and an executor that
// computes every operator's true cardinalities, selectivity and
// PostgreSQL cost-model resource counts n = (ns, nr, nt, ni, no) of
// Equation (1).
//
// The executor never builds a joined tuple: an intermediate relation is
// provenance — row indices into its leaf tables — and the plan's root
// relation is only counted. A scan is the filter kernel the sampling
// pass runs too (Table.Filter). Joins are always evaluated hash-based
// for speed, in the open-addressed table the sampling pass shares
// (hash.go); the reported counts follow each operator's nominal
// algorithm (a nested-loop join reports Nl*Nr tuple comparisons even
// though the engine does not perform quadratic work), so simulated cost
// is faithful without quadratic wall-clock time.
package engine

import (
	"fmt"
	"math"
	"slices"
	"strconv"
)

// TuplesPerPage is the fixed page fan-out used to convert row counts to
// page counts for the I/O cost units.
const TuplesPerPage = 100

// Table is an in-memory relation with int64-encoded attributes, stored
// by column: Data[c] holds column Cols[c], one value per row, and every
// column is NumRows long. It is the one table layout of the repository.
// datagen fills a database's columns row by row; catalog.Build copies
// each column to sort it; the executor and the sampling pass (whose
// sample tables are Tables of the sampled rows) filter a scan through
// Filter, one column per predicate, and read a join or group key by
// (column, row) through provenance, never a whole row.
type Table struct {
	Name string
	Cols []string
	Data [][]int64

	rows int
}

// NewTable allocates a table of n zero rows, its columns laid end to end
// in one block. Column names must be unique within the table. The
// caller fills the columns through Data.
func NewTable(name string, cols []string, n int) *Table {
	t := &Table{Name: name, Cols: cols, Data: make([][]int64, len(cols)), rows: n}
	block := make([]int64, n*len(cols))
	for i, c := range cols {
		if slices.Contains(cols[:i], c) {
			panic(fmt.Sprintf("engine: duplicate column %q in table %q", c, name))
		}
		t.Data[i] = block[i*n : (i+1)*n : (i+1)*n]
	}
	return t
}

// ColIndex returns the position of col, or -1 if absent. A table has a
// handful of columns, so a scan of their names is the index.
func (t *Table) ColIndex(col string) int { return slices.Index(t.Cols, col) }

// NumRows returns the cardinality |R|.
func (t *Table) NumRows() int { return t.rows }

// Pages returns the number of pages the relation occupies.
func (t *Table) Pages() float64 { return math.Ceil(float64(t.rows) / TuplesPerPage) }

// Filter selects into sel, grown to NumRows when short, the rows that
// satisfy every predicate of preds, and returns them ascending with
// mIndex, how many rows the first predicate lets through (the tuples an
// index scan on it fetches). The first predicate reads its column
// straight through; each later one filters the selection in place; each
// tests a row with one range compare (Predicate.interval). Without
// predicates every row is selected. It allocates only to grow sel; the
// executor's scan and the sampling pass's both run it.
func (t *Table) Filter(preds []Predicate, sel []int32) (_ []int32, mIndex int, err error) {
	sel = grow(sel, t.rows)
	if len(preds) == 0 {
		for i := range sel {
			sel[i] = int32(i)
		}
		return sel, t.rows, nil
	}
	for pi := range preds {
		pred := &preds[pi]
		ci := t.ColIndex(pred.Col)
		if ci < 0 {
			return nil, 0, fmt.Errorf("engine: predicate column %q not in table %q", pred.Col, t.Name)
		}
		col, m := t.Data[ci], 0
		lo, hi, ok := pred.interval()
		ulo, span := uint64(lo), uint64(hi)-uint64(lo)
		switch {
		case !ok:
		case pi == 0:
			for i, v := range col {
				sel[m] = int32(i)
				if uint64(v)-ulo <= span {
					m++
				}
			}
		default:
			for _, i := range sel {
				sel[m] = i
				if uint64(col[i])-ulo <= span {
					m++
				}
			}
		}
		if sel = sel[:m]; pi == 0 {
			mIndex = m
		}
	}
	return sel, mIndex, nil
}

// DB is a named collection of tables.
type DB struct {
	Tables map[string]*Table
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{Tables: make(map[string]*Table)} }

// Add registers a table, replacing any previous table of the same name.
func (db *DB) Add(t *Table) { db.Tables[t.Name] = t }

// Table returns the named table or an error.
func (db *DB) Table(name string) (*Table, error) {
	t, ok := db.Tables[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", name)
	}
	return t, nil
}

// CmpOp enumerates comparison operators for scan predicates.
type CmpOp int

// Comparison operators.
const (
	Lt CmpOp = iota
	Le
	Eq
	Ge
	Gt
	Between // inclusive [Lo, Hi]
)

// String implements fmt.Stringer.
func (op CmpOp) String() string {
	switch op {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Eq:
		return "="
	case Ge:
		return ">="
	case Gt:
		return ">"
	case Between:
		return "between"
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// Predicate is a single-column comparison pushed down into a scan. For
// Between both bounds are used; otherwise Lo is the operand.
type Predicate struct {
	Col string
	Op  CmpOp
	Lo  int64
	Hi  int64
}

// interval writes the predicate as one inclusive interval [lo, hi]; ok is
// false when nothing satisfies it (< MinInt64, > MaxInt64, Between with
// Lo > Hi). v lies in a non-empty [lo, hi] exactly when
// uint64(v)-uint64(lo) <= uint64(hi)-uint64(lo), so a scan takes the
// range once and pays one unsigned compare per tuple. An unknown Op
// panics; the planner's selectivity estimate rejects it first.
func (p *Predicate) interval() (lo, hi int64, ok bool) {
	switch p.Op {
	case Lt:
		return math.MinInt64, p.Lo - 1, p.Lo != math.MinInt64
	case Le:
		return math.MinInt64, p.Lo, true
	case Eq:
		return p.Lo, p.Lo, true
	case Ge:
		return p.Lo, math.MaxInt64, true
	case Gt:
		return p.Lo + 1, math.MaxInt64, p.Lo != math.MaxInt64
	case Between:
		return p.Lo, p.Hi, p.Lo <= p.Hi
	default:
		panic(fmt.Sprintf("engine: unknown CmpOp %d", int(p.Op)))
	}
}

// Matches reports whether value v satisfies the predicate, by the range
// compare the scan loops run.
func (p *Predicate) Matches(v int64) bool {
	lo, hi, ok := p.interval()
	return ok && uint64(v)-uint64(lo) <= uint64(hi)-uint64(lo)
}

// String implements fmt.Stringer.
func (p *Predicate) String() string { return string(p.appendTo(nil)) }

// appendTo appends the predicate's rendering, e.g. "o_totalprice <=
// 25000" or "l_quantity between 1 and 10", to b.
func (p *Predicate) appendTo(b []byte) []byte {
	b = append(b, p.Col...)
	if p.Op == Between {
		b = strconv.AppendInt(append(b, " between "...), p.Lo, 10)
		return strconv.AppendInt(append(b, " and "...), p.Hi, 10)
	}
	b = append(append(append(b, ' '), p.Op.String()...), ' ')
	return strconv.AppendInt(b, p.Lo, 10)
}
