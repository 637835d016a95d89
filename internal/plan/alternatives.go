package plan

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/engine"
)

// BuildOrdered builds a left-deep plan joining the tables in exactly the
// given order (order[0] is the leftmost relation). Every consecutive
// prefix must be connected by some join condition of the query. It is
// the mechanism behind least-expected-cost plan selection (Section
// 6.5.1 / Chu et al. [15]): callers enumerate orders, predict each
// plan's running-time distribution, and pick by expected cost or by a
// risk quantile.
func BuildOrdered(q *Query, cat *catalog.Catalog, order []string) (*engine.Node, error) {
	if len(order) != len(q.Tables) {
		return nil, fmt.Errorf("plan: order has %d tables, query has %d", len(order), len(q.Tables))
	}
	want := make(map[string]bool, len(q.Tables))
	for _, t := range q.Tables {
		want[t] = true
	}
	for _, t := range order {
		if !want[t] {
			return nil, fmt.Errorf("plan: order table %q not in query", t)
		}
		delete(want, t)
	}

	predsByTable := make(map[string][]engine.Predicate)
	for _, p := range q.Preds {
		tab, _, err := cat.FindColumn(p.Col)
		if err != nil {
			return nil, err
		}
		predsByTable[tab] = append(predsByTable[tab], p)
	}

	scan := func(tname string) (*engine.Node, float64, error) {
		ts, err := cat.Table(tname)
		if err != nil {
			return nil, 0, err
		}
		node := &engine.Node{Kind: engine.SeqScan, Table: tname}
		card := float64(ts.Rows)
		if ps := predsByTable[tname]; len(ps) > 0 {
			sels := make([]float64, len(ps))
			for i := range ps {
				sel, err := cat.PredicateSelectivity(tname, &ps[i])
				if err != nil {
					return nil, 0, err
				}
				sels[i] = sel
			}
			sortPredsBySel(ps, sels)
			node.Preds = append([]engine.Predicate{}, ps...)
			for _, s := range sels {
				card *= s
			}
			if sels[0] < IndexScanThreshold {
				node.Kind = engine.IndexScan
			}
		}
		return node, card, nil
	}

	cur, card, err := scan(order[0])
	if err != nil {
		return nil, err
	}
	inTree := map[string]bool{order[0]: true}
	used := make([]bool, len(q.Joins))
	for _, next := range order[1:] {
		// Find an unused join condition connecting the tree to next.
		found := -1
		var cond JoinCond
		for ji, jc := range q.Joins {
			if used[ji] {
				continue
			}
			switch {
			case inTree[jc.LeftTable] && jc.RightTable == next:
				found, cond = ji, jc
			case inTree[jc.RightTable] && jc.LeftTable == next:
				found = ji
				cond = JoinCond{
					LeftTable: jc.RightTable, LeftCol: jc.RightCol,
					RightTable: jc.LeftTable, RightCol: jc.LeftCol,
				}
			}
			if found >= 0 {
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("plan: order %v disconnects at %q", order, next)
		}
		used[found] = true
		inner, innerCard, err := scan(next)
		if err != nil {
			return nil, err
		}
		f, err := cat.JoinSelectivityFactor(cond.LeftTable, cond.LeftCol, cond.RightTable, cond.RightCol)
		if err != nil {
			return nil, err
		}
		kind := engine.HashJoin
		right := inner
		if innerCard < NestLoopThreshold {
			kind = engine.NestLoopJoin
			right = &engine.Node{Kind: engine.Materialize, Left: inner}
		}
		cur = &engine.Node{
			Kind: kind, LeftCol: cond.LeftCol, RightCol: cond.RightCol,
			Left: cur, Right: right,
		}
		card *= innerCard * f
		inTree[next] = true
	}
	_ = card

	root := cur
	if q.Agg != nil {
		if q.Agg.SortInput {
			root = &engine.Node{Kind: engine.Sort, Left: root}
		}
		root = &engine.Node{Kind: engine.Aggregate, GroupCol: q.Agg.GroupCol, Left: root}
	}
	root.Finalize()
	if err := root.Validate(); err != nil {
		return nil, err
	}
	return root, nil
}

// sortPredsBySel sorts preds (and sels, kept aligned) ascending by
// estimated selectivity.
func sortPredsBySel(preds []engine.Predicate, sels []float64) {
	for i := 1; i < len(preds); i++ {
		for j := i; j > 0 && sels[j] < sels[j-1]; j-- {
			preds[j], preds[j-1] = preds[j-1], preds[j]
			sels[j], sels[j-1] = sels[j-1], sels[j]
		}
	}
}

// Alternatives enumerates distinct left-deep join orders for the query:
// every valid rotation starting from each table, joined greedily by
// connectivity. At most maxAlts plans are returned, the default greedy
// plan first. Single-table queries return just the default plan.
func Alternatives(q *Query, cat *catalog.Catalog, maxAlts int) ([]*engine.Node, error) {
	def, err := Build(q, cat)
	if err != nil {
		return nil, err
	}
	plans := []*engine.Node{def}
	if len(q.Tables) < 2 || maxAlts <= 1 {
		return plans, nil
	}
	seen := map[string]bool{def.Sig: true}
	for _, start := range q.Tables {
		order, ok := connectedOrder(q, start)
		if !ok {
			continue
		}
		p, err := BuildOrdered(q, cat, order)
		if err != nil {
			continue
		}
		if !seen[p.Sig] {
			seen[p.Sig] = true
			plans = append(plans, p)
			if len(plans) >= maxAlts {
				break
			}
		}
	}
	return plans, nil
}

// connectedOrder produces a join order starting at start by repeatedly
// appending any table connected to the current prefix.
func connectedOrder(q *Query, start string) ([]string, bool) {
	order := []string{start}
	in := map[string]bool{start: true}
	for len(order) < len(q.Tables) {
		added := false
		for _, jc := range q.Joins {
			var next string
			switch {
			case in[jc.LeftTable] && !in[jc.RightTable]:
				next = jc.RightTable
			case in[jc.RightTable] && !in[jc.LeftTable]:
				next = jc.LeftTable
			default:
				continue
			}
			order = append(order, next)
			in[next] = true
			added = true
			break
		}
		if !added {
			return nil, false
		}
	}
	return order, true
}
