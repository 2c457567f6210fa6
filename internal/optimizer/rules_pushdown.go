package optimizer

import (
	"hyrise/internal/expression"
	"hyrise/internal/lqp"
)

// PredicatePushdownRule moves filtering predicates as close to the data as
// possible (paper: "for every LQP, it makes sense to execute cheap
// filtering predicates as early as possible"). Predicates referencing both
// sides of a cross join become join predicates, turning the cross product
// into an inner join — the paper's "joins are only identified if
// JOIN ... ON is used" behaviour is thereby restored by the optimizer for
// comma-style queries.
type PredicatePushdownRule struct{}

// Iterative implements Rule.
func (r *PredicatePushdownRule) Iterative() bool { return true }

// Apply implements Rule.
func (r *PredicatePushdownRule) Apply(root lqp.Node, est *Estimator) (lqp.Node, bool, error) {
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
		below, placed := pushInto(pred.Inputs()[0], pred.Predicate)
		if !placed {
			return n
		}
		changed = true
		return below
	}
	newRoot := rewrite(root)
	return newRoot, changed, nil
}

// referencedColumns collects the BoundColumn indices of an expression
// (including correlated outer references of subqueries, which live in the
// same index space).
func referencedColumns(e expression.Expression) []int {
	var out []int
	expression.VisitAll(e, func(x expression.Expression) {
		if bc, ok := x.(*expression.BoundColumn); ok {
			out = append(out, bc.Index)
		}
	})
	return out
}

func allBelow(cols []int, n int) bool {
	for _, c := range cols {
		if c >= n {
			return false
		}
	}
	return true
}

func allAtLeast(cols []int, n int) bool {
	for _, c := range cols {
		if c < n {
			return false
		}
	}
	return true
}

// pushInto tries to place pred somewhere strictly below node. placed is
// false when the predicate must stay above node (the caller keeps it).
func pushInto(node lqp.Node, pred expression.Expression) (lqp.Node, bool) {
	switch n := node.(type) {
	case *lqp.PredicateNode, *lqp.AliasNode:
		// Same-schema unary nodes: sink through them when the predicate can
		// move further down; otherwise leave it above (no benefit, avoids
		// rule ping-pong).
		below, placed := pushInto(n.Inputs()[0], pred)
		if !placed {
			return node, false
		}
		node.SetInput(0, below)
		return node, true

	case *lqp.ValidateNode:
		// The ValidateNode and the predicates around it become one scan that
		// checks visibility last (operators.TableScan), whichever side of it
		// a predicate sits on; predicates over MVCC tables are
		// visibility-independent. Sinking them below it keeps the chain's
		// predicates adjacent for PredicateReorderingRule. One that holds a
		// subquery stays above: SubqueryToJoinRule may still turn it into a
		// join, and visibility is read off the stored table's MVCC columns,
		// not through a join's reference table.
		if containsSubquery(pred) {
			return node, false
		}
		below, placed := pushInto(n.Inputs()[0], pred)
		if !placed {
			below = lqp.NewPredicateNode(n.Inputs()[0], pred)
		}
		n.SetInput(0, below)
		return node, true

	case *lqp.SortNode:
		// Filtering before sorting always helps; place directly below when
		// it cannot sink further.
		below, placed := pushInto(n.Inputs()[0], pred)
		if !placed {
			below = lqp.NewPredicateNode(n.Inputs()[0], pred)
		}
		n.SetInput(0, below)
		return node, true

	case *lqp.ProjectionNode:
		// Rewrite the predicate in terms of the projection input when every
		// referenced output column is a plain column reference.
		rewritten, ok := rewriteThroughProjection(pred, n)
		if !ok {
			return node, false
		}
		below, placed := pushInto(n.Inputs()[0], rewritten)
		if !placed {
			below = lqp.NewPredicateNode(n.Inputs()[0], rewritten)
		}
		n.SetInput(0, below)
		return node, true

	case *lqp.JoinNode:
		return pushIntoJoin(n, pred)

	default:
		return node, false
	}
}

func rewriteThroughProjection(pred expression.Expression, proj *lqp.ProjectionNode) (expression.Expression, bool) {
	ok := true
	out := expression.Transform(pred, func(x expression.Expression) expression.Expression {
		bc, isCol := x.(*expression.BoundColumn)
		if !isCol {
			return nil
		}
		if bc.Index >= len(proj.Exprs) {
			ok = false
			return nil
		}
		inner, isInnerCol := proj.Exprs[bc.Index].(*expression.BoundColumn)
		if !isInnerCol {
			ok = false
			return nil
		}
		return inner
	})
	if !ok {
		return nil, false
	}
	return out, true
}

func pushIntoJoin(join *lqp.JoinNode, pred expression.Expression) (lqp.Node, bool) {
	nLeft := len(join.Inputs()[0].Schema())
	cols := referencedColumns(pred)

	sideOnly := func(input int) (lqp.Node, bool) {
		target := join.Inputs()[input]
		p := pred
		if input == 1 {
			p = shiftColumns(pred, -nLeft)
		}
		below, placed := pushInto(target, p)
		if !placed {
			below = lqp.NewPredicateNode(target, p)
		}
		join.SetInput(input, below)
		return join, true
	}

	switch join.Kind {
	case lqp.JoinSemi, lqp.JoinAnti:
		// Schema is the left side only.
		return sideOnly(0)
	case lqp.JoinLeft:
		if allBelow(cols, nLeft) {
			return sideOnly(0)
		}
		// Right-side or mixed predicates above a left join would change
		// NULL-extension semantics: keep them above.
		return join, false
	case lqp.JoinRight:
		if len(cols) > 0 && allAtLeast(cols, nLeft) {
			return sideOnly(1)
		}
		// Left-side or mixed predicates above a right join would change
		// NULL-extension semantics: keep them above.
		return join, false
	case lqp.JoinInner, lqp.JoinCross:
		if len(cols) > 0 && allBelow(cols, nLeft) {
			return sideOnly(0)
		}
		if len(cols) > 0 && allAtLeast(cols, nLeft) {
			return sideOnly(1)
		}
		// Mixed: the predicate becomes a join predicate. A cross product
		// gains its first predicate and turns into an inner join.
		join.Predicates = append(join.Predicates, pred)
		if join.Kind == lqp.JoinCross {
			rebuildAsInner(join)
		}
		return join, true
	default:
		return join, false
	}
}

// rebuildAsInner flips a cross join to inner in place.
func rebuildAsInner(join *lqp.JoinNode) {
	// JoinNode recomputes its schema on SetInput; Kind has no schema impact
	// between Cross and Inner, so a direct field update suffices.
	join.Kind = lqp.JoinInner
}

// shiftColumns rebinds BoundColumn indices by delta.
func shiftColumns(e expression.Expression, delta int) expression.Expression {
	return expression.Transform(e, func(x expression.Expression) expression.Expression {
		if bc, ok := x.(*expression.BoundColumn); ok {
			return &expression.BoundColumn{Index: bc.Index + delta, Name: bc.Name, DT: bc.DT}
		}
		return nil
	})
}
