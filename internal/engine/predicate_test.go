package engine

import (
	"math"
	"slices"
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
	if lo, hi, ok := p.interval(); ok {
		ends = append(ends, lo, hi)
	}
	for _, e := range ends {
		vs = append(vs, e-1, e, e+1)
	}
	return vs
}

// TestPredicateRange holds interval and the one unsigned compare the scans
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
	tab := NewTable("t", []string{"x"}, len(operands))
	copy(tab.Data[0], operands)
	db.Add(tab)

	for _, p := range preds {
		lo, hi, ok := p.interval()
		if ok && lo > hi {
			t.Errorf("%v: range [%d, %d] is empty but ok", p.String(), lo, hi)
		}
		for _, v := range probes(p) {
			if got, want := p.Matches(v), oracleMatches(p, v); got != want {
				t.Errorf("%v at %d: range compare %v, switch %v", p.String(), v, got, want)
			}
			if !ok && oracleMatches(p, v) {
				t.Errorf("%v: interval says empty, the switch matches %d", p.String(), v)
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

// FuzzFilter holds the scan kernel to a per-row Matches loop: a column
// x drawn from the input (a byte below 16 names an edge — MinInt64,
// MaxInt64, a predicate operand or its neighbour — any other is a small
// signed value), y the same values reversed, and the first npred%4 of
// three predicates, each on x or y by the top bit of its op. The
// selection must be the ascending rows every predicate matches and
// mIndex the count the first one matches, whatever the buffer held.
func FuzzFilter(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 200, 7}, uint8(2), uint8(Lt), uint8(Ge|0x80), uint8(Between), int64(0), int64(0), int64(-5), int64(5), int64(1), int64(-1))
	f.Add([]byte{0, 3, 0, 3}, uint8(1), uint8(Gt), uint8(Lt), uint8(Eq), int64(math.MaxInt64), int64(0), int64(math.MinInt64), int64(0), int64(0), int64(0))
	f.Add([]byte{4, 5, 6, 7, 8, 9}, uint8(3), uint8(Between), uint8(Between|0x80), uint8(Le), int64(math.MinInt64), int64(math.MaxInt64), int64(3), int64(2), int64(-1), int64(0))
	f.Add([]byte{}, uint8(1), uint8(Eq), uint8(0), uint8(0), int64(0), int64(0), int64(0), int64(0), int64(0), int64(0))
	f.Add([]byte{1, 2, 255}, uint8(0), uint8(0), uint8(0), uint8(0), int64(0), int64(0), int64(0), int64(0), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, data []byte, npred, op0, op1, op2 uint8, lo0, hi0, lo1, hi1, lo2, hi2 int64) {
		ops, los, his := []uint8{op0, op1, op2}, []int64{lo0, lo1, lo2}, []int64{hi0, hi1, hi2}
		preds := make([]Predicate, npred%4)
		for i := range preds {
			col := "x"
			if ops[i]&0x80 != 0 {
				col = "y"
			}
			preds[i] = Predicate{Col: col, Op: CmpOp(ops[i]&0x7f) % 6, Lo: los[i], Hi: his[i]}
		}
		edges := []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64, lo0, hi0, lo1, hi1, lo2, hi2,
			lo0 - 1, lo0 + 1, hi0 + 1, lo1 - 1, lo1 + 1, hi1 + 1}
		tab := NewTable("t", []string{"x", "y"}, len(data))
		for i, b := range data {
			v := int64(int8(b))
			if b < 16 {
				v = edges[b]
			}
			tab.Data[0][i], tab.Data[1][len(data)-1-i] = v, v
		}
		var want []int32
		wantIndex := len(data)
		if len(preds) > 0 {
			wantIndex = 0
		}
		for i := range len(data) {
			ok := true
			for pi := range preds {
				v := tab.Data[tab.ColIndex(preds[pi].Col)][i]
				if !preds[pi].Matches(v) {
					ok = false
					break
				}
				if pi == 0 {
					wantIndex++
				}
			}
			if ok {
				want = append(want, int32(i))
			}
		}
		buf := make([]int32, int(npred)%7)
		for i := range buf {
			buf[i] = -7
		}
		sel, mIndex, err := tab.Filter(preds, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sel, want) || mIndex != wantIndex {
			t.Errorf("%v over %v: selection %v mIndex %d, the per-row loop %v and %d", preds, tab.Data[0], sel, mIndex, want, wantIndex)
		}
	})
}
