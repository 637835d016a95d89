// Package engine is the in-memory relational execution substrate. It
// provides integer-encoded tables, predicates, binary query-plan trees
// (Section 2 of the paper), and an executor that computes every
// operator's true cardinalities, selectivity and PostgreSQL cost-model
// resource counts n = (ns, nr, nt, ni, no) of Equation (1).
//
// The executor never builds a joined tuple: an intermediate relation is
// provenance — row indices into its leaf tables — and the plan's root
// relation is only counted. Joins are always evaluated hash-based for
// speed, in the open-addressed table the sampling pass shares
// (hash.go); the reported counts follow each operator's nominal
// algorithm (a nested-loop join reports Nl*Nr tuple comparisons even
// though the engine does not perform quadratic work), so simulated cost
// is faithful without quadratic wall-clock time.
package engine

import (
	"fmt"
	"math"
	"strconv"
)

// TuplesPerPage is the fixed page fan-out used to convert row counts to
// page counts for the I/O cost units.
const TuplesPerPage = 100

// Table is an in-memory relation with int64-encoded attributes.
type Table struct {
	Name string
	Cols []string
	Rows [][]int64

	colIdx map[string]int
}

// NewTable constructs a table and indexes its column names. Column names
// must be unique within the table.
func NewTable(name string, cols []string, rows [][]int64) *Table {
	t := &Table{Name: name, Cols: cols, Rows: rows, colIdx: make(map[string]int, len(cols))}
	for i, c := range cols {
		if _, dup := t.colIdx[c]; dup {
			panic(fmt.Sprintf("engine: duplicate column %q in table %q", c, name))
		}
		t.colIdx[c] = i
	}
	return t
}

// ColIndex returns the position of col, or -1 if absent.
func (t *Table) ColIndex(col string) int {
	if i, ok := t.colIdx[col]; ok {
		return i
	}
	return -1
}

// NumRows returns the cardinality |R|.
func (t *Table) NumRows() int { return len(t.Rows) }

// Pages returns the number of pages the relation occupies.
func (t *Table) Pages() float64 {
	return math.Ceil(float64(len(t.Rows)) / TuplesPerPage)
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

// Range writes the predicate as one inclusive interval [lo, hi]; ok is
// false when nothing satisfies it (< MinInt64, > MaxInt64, Between with
// Lo > Hi). v lies in a non-empty [lo, hi] exactly when
// uint64(v)-uint64(lo) <= uint64(hi)-uint64(lo), so a scan takes the
// range once and pays one unsigned compare per tuple. An unknown Op
// panics; the planner's selectivity estimate rejects it first.
func (p *Predicate) Range() (lo, hi int64, ok bool) {
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
	lo, hi, ok := p.Range()
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
