package plan

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/engine"
)

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
