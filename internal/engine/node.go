package engine

import "fmt"

// NodeKind enumerates the physical operators.
type NodeKind int

// Physical operator kinds.
const (
	SeqScan NodeKind = iota
	IndexScan
	Sort
	Materialize
	HashJoin
	MergeJoin
	NestLoopJoin
	Aggregate
)

// String implements fmt.Stringer.
func (k NodeKind) String() string {
	switch k {
	case SeqScan:
		return "SeqScan"
	case IndexScan:
		return "IndexScan"
	case Sort:
		return "Sort"
	case Materialize:
		return "Materialize"
	case HashJoin:
		return "HashJoin"
	case MergeJoin:
		return "MergeJoin"
	case NestLoopJoin:
		return "NestLoopJoin"
	case Aggregate:
		return "Aggregate"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// IsScan reports whether the kind is a leaf table access.
func (k NodeKind) IsScan() bool { return k == SeqScan || k == IndexScan }

// IsJoin reports whether the kind is a binary join.
func (k NodeKind) IsJoin() bool {
	return k == HashJoin || k == MergeJoin || k == NestLoopJoin
}

// Node is an operator in a rooted binary query-plan tree (Section 2).
// Scans are leaves; Sort/Materialize/Aggregate are unary; joins are
// binary with an equality condition LeftCol = RightCol resolved against
// the child outputs.
type Node struct {
	Kind NodeKind

	// Scans. Preds is a conjunction of pushed-down selections; for index
	// scans the first predicate is the index condition and the rest are
	// residual filters applied to fetched tuples.
	Table string
	Preds []Predicate

	// Joins.
	LeftCol, RightCol string

	// Aggregate. An empty GroupCol is a scalar aggregate (one output row).
	GroupCol string

	Left, Right *Node

	// Finalize assigns the fields below.
	ID         int      // preorder position, unique within the plan
	End        int      // one past the subtree's last preorder position: the subtree is IDs [ID, End)
	LeafTables []string // R: table names under this subtree, left-to-right
	Sig        string   // the subtree's String() at Finalize: the signature cache keys read
}

// Finalize assigns IDs in preorder, computes End and LeafTables
// bottom-up and renders each node's Sig once. A node d lies strictly
// inside the subtree of a (d ∈ Desc(a) in the paper's notation) exactly
// when a.ID < d.ID < a.End. Finalize must be called on the root before
// execution or prediction, and again after any node of the tree is
// changed; it returns the nodes in preorder.
func (n *Node) Finalize() []*Node {
	var order []*Node
	var buf []byte
	var walk func(x *Node)
	walk = func(x *Node) {
		x.ID = len(order)
		order = append(order, x)
		if x.Left != nil {
			walk(x.Left)
		}
		if x.Right != nil {
			walk(x.Right)
		}
		x.End = len(order)
		switch {
		case x.Kind.IsScan():
			x.LeafTables = []string{x.Table}
		case x.Right != nil:
			x.LeafTables = append(append([]string{}, x.Left.LeafTables...), x.Right.LeafTables...)
		default:
			x.LeafTables = append([]string{}, x.Left.LeafTables...)
		}
		buf = x.appendTree(buf[:0], 0)
		x.Sig = string(buf)
	}
	walk(n)
	return order
}

// Nodes returns the plan's operators in preorder. The plan must be
// finalized.
func (n *Node) Nodes() []*Node { return n.AppendNodes(nil) }

// AppendNodes appends the plan's operators in preorder to dst and returns
// the extended slice.
func (n *Node) AppendNodes(dst []*Node) []*Node {
	dst = append(dst, n)
	if n.Left != nil {
		dst = n.Left.AppendNodes(dst)
	}
	if n.Right != nil {
		dst = n.Right.AppendNodes(dst)
	}
	return dst
}

// String renders the plan as an indented tree, one operator a line, e.g.
// for debugging and the CLI's explain output. It renders afresh on every
// call; Sig holds the rendering of the last Finalize, so a node changed
// after Finalize must be re-finalized before its signature keys anything.
func (n *Node) String() string { return string(n.appendTree(nil, 0)) }

// appendTree appends the rendering of the subtree at n, n's own line
// indented depth levels, to b.
func (n *Node) appendTree(b []byte, depth int) []byte {
	for i := 0; i < depth; i++ {
		b = append(b, "  "...)
	}
	b = append(b, n.Kind.String()...)
	switch {
	case n.Kind.IsScan():
		b = append(append(b, '('), n.Table...)
		for pi := range n.Preds {
			if pi == 0 {
				b = append(b, " | "...)
			} else {
				b = append(b, " and "...)
			}
			b = n.Preds[pi].appendTo(b)
		}
		b = append(b, ')')
	case n.Kind.IsJoin():
		b = append(append(append(append(append(b, '('), n.LeftCol...), " = "...), n.RightCol...), ')')
	case n.Kind == Aggregate && n.GroupCol != "":
		b = append(append(append(b, "(group by "...), n.GroupCol...), ')')
	case n.Kind == Aggregate:
		b = append(b, "()"...)
	}
	b = append(b, '\n')
	if n.Left != nil {
		b = n.Left.appendTree(b, depth+1)
	}
	if n.Right != nil {
		b = n.Right.appendTree(b, depth+1)
	}
	return b
}

// Validate checks structural invariants: scans are leaves, unary nodes
// have exactly a left child, joins have both children and join columns.
func (n *Node) Validate() error {
	for _, x := range n.Nodes() {
		switch {
		case x.Kind.IsScan():
			if x.Left != nil || x.Right != nil {
				return fmt.Errorf("engine: scan node %q has children", x.Table)
			}
			if x.Table == "" {
				return fmt.Errorf("engine: scan node without table")
			}
			if x.Kind == IndexScan && len(x.Preds) == 0 {
				return fmt.Errorf("engine: index scan on %q without an index predicate", x.Table)
			}
		case x.Kind.IsJoin():
			if x.Left == nil || x.Right == nil {
				return fmt.Errorf("engine: join node missing a child")
			}
			if x.LeftCol == "" || x.RightCol == "" {
				return fmt.Errorf("engine: join node missing join columns")
			}
		default:
			if x.Left == nil || x.Right != nil {
				return fmt.Errorf("engine: unary node %s must have exactly a left child", x.Kind)
			}
		}
	}
	return nil
}
