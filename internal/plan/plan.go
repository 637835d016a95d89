// Package plan turns declarative selection–join(+aggregate) query
// specifications into executable engine plans. The builder mimics a
// System-R style optimizer: predicates are pushed into scans (choosing
// index scans for selective predicates), joins are ordered left-deep by
// estimated output cardinality, and small inner inputs may use a
// nested-loop join behind a materialize. Every plan of a query — the
// greedy default and each alternative — is made by the
// same three steps: the access paths, chosen once per query; the
// left-deep join loop, with its one hash-or-nested-loop rule; and the
// finish, which adds the aggregate.
//
// The paper takes the plan as a given input from the DBMS optimizer, so
// any deterministic plan source suffices for the reproduction; this one
// produces the operator variety (all six cost-function types C1–C6) the
// predictor must handle.
package plan

import (
	"fmt"
	"slices"
	"strings"

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

// indexScanThreshold is the estimated selectivity below which the builder
// prefers an index scan over a sequential scan.
const indexScanThreshold = 0.08

// nestLoopThreshold is the estimated inner cardinality below which the
// builder may choose a nested-loop join.
const nestLoopThreshold = 200.0

// String renders the condition as "lt.lc = rt.rc".
func (jc JoinCond) String() string {
	return jc.LeftTable + "." + jc.LeftCol + " = " + jc.RightTable + "." + jc.RightCol
}

// Build produces a finalized engine plan for q using catalog estimates:
// the greedy left-deep order, which starts from the smallest relation and
// repeatedly joins the connected relation minimizing the estimated
// result size.
func Build(q *Query, cat *catalog.Catalog) (*engine.Node, error) {
	o, err := prepare(q, cat)
	if err != nil {
		return nil, err
	}
	return o.greedy()
}

// access is one table's access path: its scan, copied into every plan
// that reads the table, and the scan's estimated output cardinality.
type access struct {
	scan engine.Node
	card float64
}

// node returns a fresh copy of the scan; plans share only its predicates.
func (a access) node() *engine.Node {
	n := a.scan
	return &n
}

// optimizer holds what is decided once per query, whatever the join
// order: every table's access path and every join condition's
// selectivity factor (symmetric, so either orientation reads it).
type optimizer struct {
	q       *Query
	paths   map[string]access
	factors []float64
}

// prepare chooses every table's access path. A table's predicates are
// pushed as one conjunction, ordered most selective first by a stable
// insertion sort, so the leading one can serve as the index condition;
// the scan is an index scan when that one's estimated selectivity is
// below indexScanThreshold. A predicate or group column on an unlisted
// table is an error, as is a join condition over unknown columns.
func prepare(q *Query, cat *catalog.Catalog) (*optimizer, error) {
	if len(q.Tables) == 0 {
		return nil, fmt.Errorf("plan: query %q has no tables", q.Name)
	}
	byTable := make(map[string][]engine.Predicate)
	for _, p := range q.Preds {
		tab, err := listedTable(q, cat, "predicate", p.Col)
		if err != nil {
			return nil, err
		}
		byTable[tab] = append(byTable[tab], p)
	}
	if q.Agg != nil && q.Agg.GroupCol != "" {
		if _, err := listedTable(q, cat, "group", q.Agg.GroupCol); err != nil {
			return nil, err
		}
	}
	o := &optimizer{q: q, paths: make(map[string]access, len(q.Tables)), factors: make([]float64, len(q.Joins))}
	for _, t := range q.Tables {
		ts, err := cat.Table(t)
		if err != nil {
			return nil, err
		}
		ps := slices.Clip(byTable[t])
		sels := make([]float64, len(ps))
		for i := range ps {
			if sels[i], err = cat.PredicateSelectivity(t, &ps[i]); err != nil {
				return nil, err
			}
		}
		for i := 1; i < len(ps); i++ {
			for j := i; j > 0 && sels[j] < sels[j-1]; j-- {
				ps[j], ps[j-1] = ps[j-1], ps[j]
				sels[j], sels[j-1] = sels[j-1], sels[j]
			}
		}
		a := access{scan: engine.Node{Kind: engine.SeqScan, Table: t}, card: float64(ts.Rows)}
		if len(ps) > 0 {
			a.scan.Preds = ps
			if sels[0] < indexScanThreshold {
				a.scan.Kind = engine.IndexScan
			}
		}
		for _, sel := range sels {
			a.card *= sel
		}
		o.paths[t] = a
	}
	for ji, jc := range q.Joins {
		f, err := cat.JoinSelectivityFactor(jc.LeftTable, jc.LeftCol, jc.RightTable, jc.RightCol)
		if err != nil {
			return nil, err
		}
		o.factors[ji] = f
	}
	return o, nil
}

// listedTable returns the table owning col, or an error naming the
// column's role (what) when the query does not list that table.
func listedTable(q *Query, cat *catalog.Catalog, what, col string) (string, error) {
	tab, _, err := cat.FindColumn(col)
	if err != nil {
		return "", fmt.Errorf("plan: query %q: %w", q.Name, err)
	}
	if !slices.Contains(q.Tables, tab) {
		return "", fmt.Errorf("plan: query %q: %s column %q belongs to table %q, which the query does not list",
			q.Name, what, col, tab)
	}
	return tab, nil
}

// orient returns jc with the tree's side on the left and the table it
// adds, or ok false unless jc joins a table in the tree to one outside.
func orient(jc JoinCond, in map[string]bool) (cond JoinCond, next string, ok bool) {
	switch {
	case in[jc.LeftTable] && !in[jc.RightTable]:
		return jc, jc.RightTable, true
	case in[jc.RightTable] && !in[jc.LeftTable]:
		return JoinCond{LeftTable: jc.RightTable, LeftCol: jc.RightCol, RightTable: jc.LeftTable, RightCol: jc.LeftCol},
			jc.LeftTable, true
	}
	return JoinCond{}, "", false
}

// greedy builds the default plan: it starts from the table of smallest
// estimated cardinality (the first such) and at each step takes, among
// the conditions that add a table of the query, the one of smallest
// estimated result.
func (o *optimizer) greedy() (*engine.Node, error) {
	first := o.q.Tables[0]
	for _, t := range o.q.Tables[1:] {
		if o.paths[t].card < o.paths[first].card {
			first = t
		}
	}
	card := o.paths[first].card
	return o.leftDeep(first, func(in map[string]bool) (int, error) {
		best, bestCard := -1, 0.0
		for ji, jc := range o.q.Joins {
			_, next, ok := orient(jc, in)
			a, listed := o.paths[next]
			if !ok || !listed {
				continue
			}
			if c := card * a.card * o.factors[ji]; best < 0 || c < bestCard {
				best, bestCard = ji, c
			}
		}
		if best < 0 {
			return -1, fmt.Errorf("plan: query %q join graph is disconnected", o.q.Name)
		}
		card = bestCard
		return best, nil
	})
}

// leftDeep joins the query's tables left-deep from first: pick returns
// the condition that adds the next table, given the tables in the tree
// (an applied condition has both its tables there, so orient skips it).
// Each join is a hash join, or a nested-loop join over a
// Materialize when the added table's estimated cardinality is below
// nestLoopThreshold. A condition the plan cannot apply — one closing a
// cycle, or naming a table the query does not list — is an error.
func (o *optimizer) leftDeep(first string, pick func(in map[string]bool) (int, error)) (*engine.Node, error) {
	root := o.paths[first].node()
	in := map[string]bool{first: true}
	used := make([]bool, len(o.q.Joins))
	for range len(o.q.Tables) - 1 {
		ji, err := pick(in)
		if err != nil {
			return nil, err
		}
		cond, next, _ := orient(o.q.Joins[ji], in)
		a := o.paths[next]
		root = &engine.Node{Kind: engine.HashJoin, LeftCol: cond.LeftCol, RightCol: cond.RightCol, Left: root, Right: a.node()}
		if a.card < nestLoopThreshold {
			root.Kind = engine.NestLoopJoin
			root.Right = &engine.Node{Kind: engine.Materialize, Left: root.Right}
		}
		in[next] = true
		used[ji] = true
	}
	var unused []string
	for ji, jc := range o.q.Joins {
		if !used[ji] {
			unused = append(unused, jc.String())
		}
	}
	if len(unused) > 0 {
		return nil, fmt.Errorf("plan: query %q: a left-deep plan cannot apply join condition %s",
			o.q.Name, strings.Join(unused, ", "))
	}
	return o.finish(root)
}

// finish adds the aggregate the query asks for — over a Sort when it
// asks for sorted input — then finalizes and validates the plan.
func (o *optimizer) finish(root *engine.Node) (*engine.Node, error) {
	if agg := o.q.Agg; agg != nil {
		if agg.SortInput {
			root = &engine.Node{Kind: engine.Sort, Left: root}
		}
		root = &engine.Node{Kind: engine.Aggregate, GroupCol: agg.GroupCol, Left: root}
	}
	root.Finalize()
	if err := root.Validate(); err != nil {
		return nil, err
	}
	return root, nil
}
