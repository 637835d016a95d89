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
	o, err := prepare(q, cat)
	if err != nil {
		return nil, err
	}
	return o.ordered(order)
}

// ordered builds the plan of a valid order: each table joins on the
// first condition that connects it to the tree.
func (o *optimizer) ordered(order []string) (*engine.Node, error) {
	step := 0
	return o.leftDeep(order[0], func(in map[string]bool) (int, error) {
		step++
		for ji, jc := range o.q.Joins {
			if _, next, ok := orient(jc, in); ok && next == order[step] {
				return ji, nil
			}
		}
		return -1, fmt.Errorf("plan: order %v disconnects at %q", order, order[step])
	})
}

// Alternatives enumerates distinct left-deep join orders for the query:
// from each table, the order that joins at every step the first
// condition adding a table. At most maxAlts plans are returned, the
// default greedy plan first. Single-table queries return just the
// default plan. The access paths are chosen once and shared by every
// order.
func Alternatives(q *Query, cat *catalog.Catalog, maxAlts int) ([]*engine.Node, error) {
	o, err := prepare(q, cat)
	if err != nil {
		return nil, err
	}
	def, err := o.greedy()
	if err != nil {
		return nil, err
	}
	plans := []*engine.Node{def}
	if len(q.Tables) < 2 || maxAlts <= 1 {
		return plans, nil
	}
	// The default plan applied every condition, so the join graph is a
	// tree over the query's tables and every start yields a plan.
	seen := map[string]bool{def.Sig: true}
	for _, start := range q.Tables {
		p, err := o.leftDeep(start, o.firstConnected)
		if err != nil {
			return nil, err
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

// firstConnected picks the first condition that adds a table to the
// tree.
func (o *optimizer) firstConnected(in map[string]bool) (int, error) {
	for ji, jc := range o.q.Joins {
		if _, _, ok := orient(jc, in); ok {
			return ji, nil
		}
	}
	return -1, fmt.Errorf("plan: query %q join graph is disconnected", o.q.Name)
}
