package engine

import (
	"math"
	"testing"
)

// oracleMatches is the six-way switch Predicate.Matches ran before each
// Op became one range: the definition the range compare is held to.
func oracleMatches(p Predicate, v int64) bool {
	switch p.Op {
	case Lt:
		return v < p.Lo
	case Le:
		return v <= p.Lo
	case Eq:
		return v == p.Lo
	case Ge:
		return v >= p.Lo
	case Gt:
		return v > p.Lo
	default: // Between
		return v >= p.Lo && v <= p.Hi
	}
}

// probes are the values a predicate is checked at: both ends of int64
// and each side of its operands and of its range, wrapping as int64
// arithmetic does.
func probes(p Predicate) []int64 {
	vs := []int64{math.MinInt64, math.MaxInt64}
	ends := []int64{p.Lo, p.Hi}
	if lo, hi, ok := p.Range(); ok {
		ends = append(ends, lo, hi)
	}
	for _, e := range ends {
		vs = append(vs, e-1, e, e+1)
	}
	return vs
}

// TestPredicateRange holds Range and the one unsigned compare the scans
// run against the old switch, for every Op at the edges of int64, and
// Between empty, a single value and the full range. A plan scanning a
// table of edge values must count what the switch counts.
func TestPredicateRange(t *testing.T) {
	operands := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	var preds []Predicate
	for _, op := range []CmpOp{Lt, Le, Eq, Ge, Gt} {
		for _, lo := range operands {
			preds = append(preds, Predicate{Col: "x", Op: op, Lo: lo})
		}
	}
	for _, lo := range operands {
		for _, hi := range operands {
			preds = append(preds, Predicate{Col: "x", Op: Between, Lo: lo, Hi: hi})
		}
	}
	db := NewDB()
	rows := make([][]int64, len(operands))
	for i, v := range operands {
		rows[i] = []int64{v}
	}
	db.Add(NewTable("t", []string{"x"}, rows))

	for _, p := range preds {
		lo, hi, ok := p.Range()
		if ok && lo > hi {
			t.Errorf("%v: range [%d, %d] is empty but ok", p.String(), lo, hi)
		}
		for _, v := range probes(p) {
			if got, want := p.Matches(v), oracleMatches(p, v); got != want {
				t.Errorf("%v at %d: range compare %v, switch %v", p.String(), v, got, want)
			}
			if !ok && oracleMatches(p, v) {
				t.Errorf("%v: Range says empty, the switch matches %d", p.String(), v)
			}
		}
		want := 0
		for _, v := range operands {
			if oracleMatches(p, v) {
				want++
			}
		}
		root := &Node{Kind: SeqScan, Table: "t", Preds: []Predicate{p}}
		root.Finalize()
		res, err := Run(db, root)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.M; got != float64(want) {
			t.Errorf("%v: scan keeps %g of the edge values, the switch %d", p.String(), got, want)
		}
	}
}

// FuzzPredicateRange holds the range compare to the old switch on
// arbitrary (op, lo, hi, v); op is taken modulo the six Ops.
func FuzzPredicateRange(f *testing.F) {
	f.Add(uint8(Lt), int64(math.MinInt64), int64(0), int64(math.MaxInt64))
	f.Add(uint8(Gt), int64(math.MaxInt64), int64(0), int64(math.MinInt64))
	f.Add(uint8(Between), int64(5), int64(4), int64(5))
	f.Add(uint8(Between), int64(math.MinInt64), int64(math.MaxInt64), int64(-1))
	f.Fuzz(func(t *testing.T, op uint8, lo, hi, v int64) {
		p := Predicate{Col: "x", Op: CmpOp(op % 6), Lo: lo, Hi: hi}
		if got, want := p.Matches(v), oracleMatches(p, v); got != want {
			t.Errorf("%v at %d: range compare %v, switch %v", p.String(), v, got, want)
		}
	})
}
