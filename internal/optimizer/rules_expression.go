package optimizer

import (
	"hyrise/internal/expression"
	"hyrise/internal/lqp"
	"hyrise/internal/types"
)

// ExpressionReductionRule folds constant sub-expressions and simplifies
// boolean structure (the paper's example of a single-pass rule: "the
// substitution of constant expressions").
type ExpressionReductionRule struct{}

// Iterative implements Rule.
func (r *ExpressionReductionRule) Iterative() bool { return false }

// Apply implements Rule.
func (r *ExpressionReductionRule) Apply(root lqp.Node, est *Estimator) (lqp.Node, bool, error) {
	changed := false
	lqp.VisitPlan(root, func(n lqp.Node) {
		switch node := n.(type) {
		case *lqp.PredicateNode:
			reduced := ReduceExpression(node.Predicate)
			if reduced != node.Predicate {
				node.Predicate = reduced
				changed = true
			}
		case *lqp.ProjectionNode:
			for i, e := range node.Exprs {
				reduced := ReduceExpression(e)
				if reduced != e {
					node.Exprs[i] = reduced
					changed = true
				}
			}
		case *lqp.JoinNode:
			for i, e := range node.Predicates {
				reduced := ReduceExpression(e)
				if reduced != e {
					node.Predicates[i] = reduced
					changed = true
				}
			}
		}
	})
	return root, changed, nil
}

// ReduceExpression rewrites an expression tree bottom-up:
//   - constant arithmetic, negation and comparisons fold to literals
//   - NOT pushes into comparisons, BETWEEN, and double negation
//   - x AND TRUE -> x, x OR FALSE -> x, and the dominating cases
func ReduceExpression(e expression.Expression) expression.Expression {
	return expression.Transform(e, func(x expression.Expression) expression.Expression {
		switch n := x.(type) {
		case *expression.Arithmetic, *expression.Negation, *expression.Comparison:
			return foldConstant(n)
		case *expression.Not:
			switch c := n.Child.(type) {
			case *expression.Not:
				return c.Child
			case *expression.Comparison:
				return &expression.Comparison{Op: c.Op.Negate(), Left: c.Left, Right: c.Right}
			case *expression.Exists:
				return &expression.Exists{Subquery: c.Subquery, Negate: !c.Negate}
			case *expression.In:
				return &expression.In{Child: c.Child, List: c.List, Subquery: c.Subquery, Negate: !c.Negate}
			case *expression.IsNull:
				return &expression.IsNull{Child: c.Child, Negate: !c.Negate}
			case *expression.Literal:
				if c.Value.Type == types.TypeBool {
					return expression.NewLiteral(types.Bool(!c.Value.AsBool()))
				}
			}
		case *expression.Logical:
			lv, lok := boolLiteral(n.Left)
			rv, rok := boolLiteral(n.Right)
			if n.Op == expression.And {
				switch {
				case lok && !lv, rok && !rv:
					return expression.NewLiteral(types.Bool(false))
				case lok && lv:
					return n.Right
				case rok && rv:
					return n.Left
				}
			} else {
				switch {
				case lok && lv, rok && rv:
					return expression.NewLiteral(types.Bool(true))
				case lok && !lv:
					return n.Right
				case rok && !rv:
					return n.Left
				}
				if factored := factorDisjunction(n); factored != nil {
					return factored
				}
			}
		}
		return nil
	})
}

// factorDisjunction extracts conjuncts common to both sides of an OR:
// (A AND x) OR (A AND y)  ->  A AND (x OR y). This is what lets TPC-H Q19's
// three-armed OR expose its `p_partkey = l_partkey` join predicate to the
// pushdown rule.
func factorDisjunction(or *expression.Logical) expression.Expression {
	left := expression.SplitConjunction(or.Left)
	right := expression.SplitConjunction(or.Right)
	rightByKey := make(map[string]int, len(right))
	for i, r := range right {
		rightByKey[r.String()] = i
	}
	var common []expression.Expression
	usedRight := make([]bool, len(right))
	var restLeft []expression.Expression
	for _, l := range left {
		if ri, ok := rightByKey[l.String()]; ok && !usedRight[ri] {
			common = append(common, l)
			usedRight[ri] = true
			continue
		}
		restLeft = append(restLeft, l)
	}
	if len(common) == 0 {
		return nil
	}
	var restRight []expression.Expression
	for i, r := range right {
		if !usedRight[i] {
			restRight = append(restRight, r)
		}
	}
	// An empty rest means that side is implied by the common part alone:
	// (A) OR (A AND y) == A.
	if len(restLeft) == 0 || len(restRight) == 0 {
		return expression.JoinConjunction(common)
	}
	rest := &expression.Logical{
		Op:    expression.Or,
		Left:  expression.JoinConjunction(restLeft),
		Right: expression.JoinConjunction(restRight),
	}
	return expression.JoinConjunction(append(common, rest))
}

// foldConstant folds an operator whose operands are all literals into the
// literal the evaluator computes for it over one row, so a folded constant
// compares and divides exactly as the unfolded expression would. A NULL
// result or an evaluation error leaves the node alone (nil).
func foldConstant(e expression.Expression) expression.Expression {
	for _, c := range e.Children() {
		if _, ok := c.(*expression.Literal); !ok {
			return nil
		}
	}
	v, err := expression.Evaluate(e, &expression.Context{N: 1})
	if err != nil || v.ValueAt(0).IsNull() {
		return nil
	}
	return expression.NewLiteral(v.ValueAt(0))
}

func boolLiteral(e expression.Expression) (bool, bool) {
	if l, ok := e.(*expression.Literal); ok && l.Value.Type == types.TypeBool {
		return l.Value.AsBool(), true
	}
	return false, false
}

// PredicateSplitUpRule splits conjunctive PredicateNodes into chains of
// single-predicate nodes so pushdown and reordering can treat each
// conjunct independently.
type PredicateSplitUpRule struct{}

// Iterative implements Rule.
func (r *PredicateSplitUpRule) Iterative() bool { return true }

// Apply implements Rule.
func (r *PredicateSplitUpRule) Apply(root lqp.Node, est *Estimator) (lqp.Node, bool, error) {
	changed := false
	var rewrite func(n lqp.Node) lqp.Node
	rewrite = func(n lqp.Node) lqp.Node {
		for i, in := range n.Inputs() {
			newIn := rewrite(in)
			if newIn != in {
				n.SetInput(i, newIn)
			}
		}
		pred, ok := n.(*lqp.PredicateNode)
		if !ok {
			return n
		}
		parts := expression.SplitConjunction(pred.Predicate)
		if len(parts) <= 1 {
			return n
		}
		changed = true
		node := pred.Inputs()[0]
		// Keep original order: first conjunct ends up at the bottom.
		for _, p := range parts {
			node = lqp.NewPredicateNode(node, p)
		}
		return node
	}
	return rewrite(root), changed, nil
}

// BetweenCompositionRule merges adjacent `col >= lo` and `col <= hi`
// predicates into a single BETWEEN, which scans evaluate in one pass
// (one of Hyrise's small structural rules).
type BetweenCompositionRule struct{}

// Iterative implements Rule.
func (r *BetweenCompositionRule) Iterative() bool { return false }

// Apply implements Rule.
func (r *BetweenCompositionRule) Apply(root lqp.Node, est *Estimator) (lqp.Node, bool, error) {
	changed := false
	var rewrite func(n lqp.Node) lqp.Node
	rewrite = func(n lqp.Node) lqp.Node {
		for i, in := range n.Inputs() {
			newIn := rewrite(in)
			if newIn != in {
				n.SetInput(i, newIn)
			}
		}
		pred, ok := n.(*lqp.PredicateNode)
		if !ok {
			return n
		}
		child, ok := pred.Inputs()[0].(*lqp.PredicateNode)
		if !ok {
			return n
		}
		if between, ok := composeBetween(pred.Predicate, child.Predicate); ok {
			changed = true
			return lqp.NewPredicateNode(child.Inputs()[0], between)
		}
		return n
	}
	return rewrite(root), changed, nil
}

// composeBetween matches {col >= lo, col <= hi} pairs in either order.
func composeBetween(a, b expression.Expression) (expression.Expression, bool) {
	ca, va, opA, okA := comparisonColumnLiteral(a)
	cb, vb, opB, okB := comparisonColumnLiteral(b)
	if !okA || !okB || ca.Index != cb.Index {
		return nil, false
	}
	lower := func(op expression.ComparisonOp) bool { return op == expression.Ge }
	upper := func(op expression.ComparisonOp) bool { return op == expression.Le }
	switch {
	case lower(opA) && upper(opB):
		return &expression.Between{Child: ca, Lo: expression.NewLiteral(va), Hi: expression.NewLiteral(vb)}, true
	case upper(opA) && lower(opB):
		return &expression.Between{Child: ca, Lo: expression.NewLiteral(vb), Hi: expression.NewLiteral(va)}, true
	}
	return nil, false
}

func comparisonColumnLiteral(e expression.Expression) (*expression.BoundColumn, types.Value, expression.ComparisonOp, bool) {
	cmp, ok := e.(*expression.Comparison)
	if !ok {
		return nil, types.NullValue, 0, false
	}
	return columnLiteral(cmp)
}
