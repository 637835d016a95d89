// Package plan turns declarative selection–join(+aggregate) query
// specifications into executable engine plans. The builder mimics a
// System-R style optimizer: predicates are pushed into scans (choosing
// index scans for selective predicates), joins are ordered left-deep by
// estimated output cardinality, and small inner inputs may use a
// nested-loop join behind a materialize.
//
// The paper takes the plan as a given input from the DBMS optimizer, so
// any deterministic plan source suffices for the reproduction; this one
// produces the operator variety (all six cost-function types C1–C6) the
// predictor must handle.
package plan

import (
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/engine"
)

// JoinCond is an equijoin condition between two columns of two tables.
type JoinCond struct {
	LeftTable, LeftCol   string
	RightTable, RightCol string
}

// AggSpec requests an aggregate on top of the join tree. An empty
// GroupCol means a scalar aggregate.
type AggSpec struct {
	GroupCol string
	// SortInput inserts a Sort below the aggregate (a sorted
	// group-aggregate), exercising the C4' quadratic cost path.
	SortInput bool
}

// Query is a declarative selection–join query over named tables.
type Query struct {
	Name   string
	Tables []string
	Preds  []engine.Predicate // each references a column of one table
	Joins  []JoinCond
	Agg    *AggSpec
}

// IndexScanThreshold is the estimated selectivity below which the builder
// prefers an index scan over a sequential scan.
const IndexScanThreshold = 0.08

// NestLoopThreshold is the estimated inner cardinality below which the
// builder may choose a nested-loop join.
const NestLoopThreshold = 200.0

// Build produces a finalized engine plan for q using catalog estimates.
func Build(q *Query, cat *catalog.Catalog) (*engine.Node, error) {
	if len(q.Tables) == 0 {
		return nil, fmt.Errorf("plan: query %q has no tables", q.Name)
	}
	predsByTable := make(map[string][]engine.Predicate)
	for _, p := range q.Preds {
		tab, _, err := cat.FindColumn(p.Col)
		if err != nil {
			return nil, fmt.Errorf("plan: query %q: %w", q.Name, err)
		}
		predsByTable[tab] = append(predsByTable[tab], p)
	}

	// Build a scan per table with its estimated output cardinality.
	type rel struct {
		node *engine.Node
		card float64
		tabs map[string]bool
	}
	rels := make([]*rel, 0, len(q.Tables))
	for _, tname := range q.Tables {
		ts, err := cat.Table(tname)
		if err != nil {
			return nil, err
		}
		node := &engine.Node{Kind: engine.SeqScan, Table: tname}
		card := float64(ts.Rows)
		if ps := predsByTable[tname]; len(ps) > 0 {
			// Push the whole conjunction, ordered most-selective first so
			// the leading predicate can serve as the index condition.
			sels := make([]float64, len(ps))
			for i := range ps {
				sel, err := cat.PredicateSelectivity(tname, &ps[i])
				if err != nil {
					return nil, err
				}
				sels[i] = sel
			}
			sort.Sort(&predsBySel{preds: ps, sels: sels})
			node.Preds = append([]engine.Predicate{}, ps...)
			for _, sel := range sels {
				card *= sel
			}
			if sels[0] < IndexScanThreshold {
				node.Kind = engine.IndexScan
			}
		}
		rels = append(rels, &rel{node: node, card: card, tabs: map[string]bool{tname: true}})
	}

	// Greedy left-deep join ordering: start from the smallest relation,
	// repeatedly join with the connected relation minimizing the
	// estimated result size.
	if len(rels) > 1 {
		if len(q.Joins) < len(q.Tables)-1 {
			return nil, fmt.Errorf("plan: query %q is not fully connected (%d joins for %d tables)",
				q.Name, len(q.Joins), len(q.Tables))
		}
		sort.Slice(rels, func(i, j int) bool { return rels[i].card < rels[j].card })
		cur := rels[0]
		remaining := rels[1:]
		used := make([]bool, len(q.Joins))
		for len(remaining) > 0 {
			bestIdx, bestJoin := -1, -1
			bestCard := 0.0
			var bestCond JoinCond
			for ji, jc := range q.Joins {
				if used[ji] {
					continue
				}
				var other string
				var cond JoinCond
				switch {
				case cur.tabs[jc.LeftTable] && !cur.tabs[jc.RightTable]:
					other, cond = jc.RightTable, jc
				case cur.tabs[jc.RightTable] && !cur.tabs[jc.LeftTable]:
					// Flip so the already-built side is on the left.
					other = jc.LeftTable
					cond = JoinCond{
						LeftTable: jc.RightTable, LeftCol: jc.RightCol,
						RightTable: jc.LeftTable, RightCol: jc.LeftCol,
					}
				default:
					continue
				}
				for ri, r := range remaining {
					if !r.tabs[other] {
						continue
					}
					f, err := cat.JoinSelectivityFactor(
						cond.LeftTable, cond.LeftCol, cond.RightTable, cond.RightCol)
					if err != nil {
						return nil, err
					}
					card := cur.card * r.card * f
					if bestIdx < 0 || card < bestCard {
						bestIdx, bestJoin, bestCard, bestCond = ri, ji, card, cond
					}
				}
			}
			if bestIdx < 0 {
				return nil, fmt.Errorf("plan: query %q join graph is disconnected", q.Name)
			}
			inner := remaining[bestIdx]
			kind := engine.HashJoin
			right := inner.node
			if inner.card < NestLoopThreshold {
				kind = engine.NestLoopJoin
				right = &engine.Node{Kind: engine.Materialize, Left: inner.node}
			}
			cur = &rel{
				node: &engine.Node{
					Kind:     kind,
					LeftCol:  bestCond.LeftCol,
					RightCol: bestCond.RightCol,
					Left:     cur.node,
					Right:    right,
				},
				card: bestCard,
				tabs: cur.tabs,
			}
			for t := range inner.tabs {
				cur.tabs[t] = true
			}
			used[bestJoin] = true
			remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		}
		rels = []*rel{cur}
	}

	root := rels[0].node
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

// predsBySel sorts a predicate slice by estimated selectivity
// (ascending) keeping the two slices aligned.
type predsBySel struct {
	preds []engine.Predicate
	sels  []float64
}

func (p *predsBySel) Len() int           { return len(p.preds) }
func (p *predsBySel) Less(i, j int) bool { return p.sels[i] < p.sels[j] }
func (p *predsBySel) Swap(i, j int) {
	p.preds[i], p.preds[j] = p.preds[j], p.preds[i]
	p.sels[i], p.sels[j] = p.sels[j], p.sels[i]
}
