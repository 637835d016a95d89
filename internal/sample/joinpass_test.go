package sample

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
)

// joinSide is one child of a join under test: its leaves (relation
// names, left to right), its provenance rows (one sample-tuple index per
// leaf) and the column it joins on. Every relation has the columns "id"
// and "k"+name.
type joinSide struct {
	leaves []string
	rows   [][]int32
	col    string
}

// scanSide is the side of one relation whose provenance is rows, one
// sample-tuple index each.
func scanSide(name string, rows ...int32) joinSide {
	s := joinSide{leaves: []string{name}, col: "k" + name}
	for _, i := range rows {
		s.rows = append(s.rows, []int32{i})
	}
	return s
}

// upTo returns 0..n-1.
func upTo(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// nestedLoopJoin is the reference join: every (left row, right row) pair
// compared, and the estimate computed from the result the plain way —
// every sample tuple's term divided out, no shortcut — in the order the
// sampling pass promises: leaves left to right, sample tuples by index.
func nestedLoopJoin(n *engine.Node, left, right *Pass, cat *catalog.Catalog) ([]int32, OpEstimate, error) {
	lcol, lord := left.column(n.LeftCol)
	rcol, rord := right.column(n.RightCol)
	nl, k := left.numLeaves, left.numLeaves+right.numLeaves
	var out []int32
	for i := 0; i < left.rows(); i++ {
		lp := left.prov[i*nl : (i+1)*nl]
		for j := 0; j < right.rows(); j++ {
			rp := right.prov[j*(k-nl) : (j+1)*(k-nl)]
			if lcol[lp[lord]] == rcol[rp[rord]] {
				out = append(append(out, lp...), rp...)
			}
		}
	}
	nOut := len(out) / k
	leaves := slices.Concat(left.leaves, right.leaves)
	leafN, leafComp := make([]int, k), make([]float64, k)
	prodN := 1.0
	for o, t := range leaves {
		leafN[o] = t.N()
		prodN *= float64(t.N())
	}
	rho := float64(nOut) / prodN
	var totalVar float64
	for o, t := range leaves {
		q := make([]int, t.N())
		for i := o; i < len(out); i += k {
			q[out[i]]++
		}
		nk := float64(t.N())
		var ss float64
		for _, c := range q {
			d := float64(c)/(prodN/nk) - rho
			ss += d * d
		}
		vk := 0.0
		if nk > 1 {
			vk = ss / (nk - 1)
		}
		leafComp[o] = vk / nk
		totalVar += vk / nk
	}
	if nOut == 0 {
		rho = 0.5 / prodN
		totalVar = rho * rho
		for o := range leafComp {
			leafComp[o] = totalVar / float64(k)
		}
	}
	full, err := cat.FullSize(n)
	return out, OpEstimate{
		Rho: rho, Var: totalVar, LeafComp: leafComp, LeafN: leafN, EstCard: rho * full,
		SampleCounts: engine.JoinCounts(n.Kind, float64(left.rows()), float64(right.rows()), float64(nOut)),
	}, err
}

// sortedRows splits a provenance block of stride k into rows, sorted.
func sortedRows(prov []int32, k int) [][]int32 {
	var rows [][]int32
	for i := 0; i < len(prov); i += k {
		rows = append(rows, prov[i:i+k])
	}
	slices.SortFunc(rows, slices.Compare)
	return rows
}

// estimateBits renders every number of an estimate exactly.
func estimateBits(e OpEstimate) string {
	return fmt.Sprintf("rho=%x var=%x card=%x comp=%x n=%v counts=%x off=%d opt=%v",
		e.Rho, e.Var, e.EstCard, e.LeafComp, e.LeafN, e.SampleCounts, e.LeafOff, e.FromOptimizer)
}

// checkJoin joins l and r over relations whose key columns are keys —
// each relation's sample is the whole relation — with joinPass and with
// the nested-loop reference, and requires the same provenance multiset
// and the same estimate bit for bit.
func checkJoin(t *testing.T, tag string, keys map[string][]int64, l, r joinSide) {
	t.Helper()
	db := engine.NewDB()
	tables := make(map[string]*Table, len(keys))
	for name, ks := range keys {
		rows := make([][]int64, len(ks))
		ids := make([]int64, len(ks))
		for i, k := range ks {
			rows[i], ids[i] = []int64{int64(i), k}, int64(i)
		}
		cols := []string{"id", "k" + name}
		db.Add(engine.NewTable(name, cols, rows))
		tables[name] = &Table{Base: name, cols: cols, data: [][]int64{ids, ks}, all: upTo(len(ks))}
	}
	cat := catalog.Build(db)
	side := func(s joinSide) (*Pass, *engine.Node) {
		p := &Pass{numLeaves: len(s.leaves), prov: []int32{}}
		var n *engine.Node
		for _, name := range s.leaves {
			p.leaves = append(p.leaves, tables[name])
			scan := &engine.Node{Kind: engine.SeqScan, Table: name}
			if n == nil {
				n = scan
			} else {
				n = &engine.Node{Kind: engine.HashJoin, LeftCol: "id", RightCol: "id", Left: n, Right: scan}
			}
		}
		for _, row := range s.rows {
			p.prov = append(p.prov, row...)
		}
		return p, n
	}
	lp, ln := side(l)
	rp, rn := side(r)
	n := &engine.Node{Kind: engine.HashJoin, LeftCol: l.col, RightCol: r.col, Left: ln, Right: rn}
	n.Finalize()
	got, err := joinPass(n, lp, rp, cat)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	prov, want, err := nestedLoopJoin(n, lp, rp, cat)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if g, w := sortedRows(got.prov, got.numLeaves), sortedRows(prov, got.numLeaves); !slices.EqualFunc(g, w, slices.Equal) {
		t.Errorf("%s: %d rows, nested loop %d (or the multisets differ)", tag, len(g), len(w))
	}
	if g, w := estimateBits(got.est), estimateBits(want); g != w {
		t.Errorf("%s:\n got %s\nwant %s", tag, g, w)
	}
}

// filterSiblings returns n distinct keys whose Fibonacci hashes share
// their top 20 bits — one home slot and one probe-filter bit in any
// table and filter of up to 2^20 entries, so all but one of them sit in
// a slot that is not their home. Each is its hash times the inverse of
// the (odd) Fibonacci multiplier mod 2^64, found by Newton's iteration.
func filterSiblings(n int) []int64 {
	const m = 0x9E3779B97F4A7C15
	inv := uint64(m)
	for i := 0; i < 5; i++ {
		inv *= 2 - m*inv
	}
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64((0xABCDE<<44 | uint64(i+1)*0x1234567) * inv)
	}
	return keys
}

// TestJoinPassMatchesNestedLoop holds the sampling-pass join — filtered
// probe, match-list fill and zero-term tally — against a nested loop on
// inputs chosen to break each: negative keys and keys at and beyond
// 2^32, one heavily duplicated key, an empty build side, a probe side
// that never hits, keys sharing a filter bit and home slot (in the table
// and missing from it), a two-leaf child, and random joins. Every case
// runs in both orientations, so each side is the build side once.
func TestJoinPassMatchesNestedLoop(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	draw := func(n int, pool ...int64) []int64 {
		ks := make([]int64, n)
		for i := range ks {
			ks[i] = pool[r.Intn(len(pool))]
		}
		return ks
	}
	wide := []int64{math.MinInt64, -1 << 40, -5, -1, 0, 5, 1 << 32, 1<<32 + 1, 1 << 33, math.MaxInt64}
	evens, odds := make([]int64, 40), make([]int64, 120)
	for i := range evens {
		evens[i] = int64(2 * i)
	}
	for i := range odds {
		odds[i] = int64(2*i + 1)
	}
	sib := filterSiblings(3)
	for _, k := range sib {
		if fib(k)>>44 != 0xABCDE {
			t.Fatalf("key %d hashes to %x", k, fib(k))
		}
	}
	var pairs [][]int32
	for i := 0; i < 50; i++ {
		pairs = append(pairs, []int32{int32(r.Intn(30)), int32(r.Intn(40))})
	}
	type joinCase struct {
		name string
		keys map[string][]int64
		l, r joinSide
	}
	cases := []joinCase{
		{"negative and wide keys", map[string][]int64{"a": draw(40, wide...), "b": draw(90, append(wide, 7, 1<<35)...)},
			scanSide("a", upTo(40)...), scanSide("b", upTo(90)...)},
		{"one heavy key", map[string][]int64{"a": draw(60, 7, 7, 7, 7, 7, 7, 7, 7, 7, 3), "b": draw(150, 7, 1, 2)},
			scanSide("a", upTo(60)...), scanSide("b", upTo(150)...)},
		{"empty build side", map[string][]int64{"a": draw(30, 1, 2, 3), "b": draw(50, 1, 2, 3)},
			scanSide("a"), scanSide("b", upTo(50)...)},
		{"all-miss probe", map[string][]int64{"a": evens, "b": odds},
			scanSide("a", upTo(40)...), scanSide("b", upTo(120)...)},
		{"filter-bit siblings", map[string][]int64{"a": {sib[0], sib[1], sib[0], 99}, "b": {sib[2], sib[1], sib[0], sib[2], 100, sib[1]}},
			scanSide("a", 0, 1, 2, 3), scanSide("b", 0, 1, 2, 3, 4, 5)},
		{"two-leaf child", map[string][]int64{"c": draw(30, 1, 2), "d": draw(40, -3, 4, 1<<33, 9), "e": draw(70, -3, 4, 1<<33, 8)},
			joinSide{leaves: []string{"c", "d"}, rows: pairs, col: "kd"}, scanSide("e", upTo(70)...)},
	}
	for i := 0; i < 20; i++ {
		na, nb, dom := 1+r.Intn(200), 1+r.Intn(400), int64(1+r.Intn(300))
		keys := map[string][]int64{"a": make([]int64, na), "b": make([]int64, nb)}
		for _, ks := range keys {
			for j := range ks {
				ks[j] = r.Int63n(dom) - dom/2
			}
		}
		// Random subsets in random order, repeats allowed.
		subset := func(n int) []int32 {
			rows := make([]int32, r.Intn(n+1))
			for j := range rows {
				rows[j] = int32(r.Intn(n))
			}
			return rows
		}
		cases = append(cases, joinCase{fmt.Sprintf("random %d", i), keys,
			scanSide("a", subset(na)...), scanSide("b", subset(nb)...)})
	}
	for _, c := range cases {
		checkJoin(t, c.name, c.keys, c.l, c.r)
		checkJoin(t, c.name+" (swapped)", c.keys, c.r, c.l)
	}
}
