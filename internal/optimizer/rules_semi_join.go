package optimizer

import (
	"hyrise/internal/expression"
	"hyrise/internal/lqp"
)

// SemiJoinPlacementRule moves a semi- or anti-join (SubqueryToJoinRule's
// IN, NOT IN and EXISTS) down through the inner and cross joins below it
// onto the smallest subtree that holds every left column its predicates
// read. SubqueryToJoinRule puts the join on top of the whole FROM clause,
// so without this rule TPC-H Q18 joins customer, orders and lineitem into
// 120 000 pairs before its IN keeps a handful of them.
//
// Semi(A ⋈ B, S) equals Semi(A, S) ⋈ B when the predicates read only A's
// columns, and likewise for anti-joins, because an inner or cross join
// neither NULL-extends nor drops A's rows by anything S decides. The join
// moves only when the estimator puts the new input at or below the rows it
// filters today; its output is a subset of that input, so no intermediate
// grows and no new selectivity estimate is needed. The rule runs once,
// after join ordering, so the plan it sees is the one that executes.
type SemiJoinPlacementRule struct{}

// Iterative implements Rule.
func (r *SemiJoinPlacementRule) Iterative() bool { return false }

// Apply implements Rule.
func (r *SemiJoinPlacementRule) Apply(root lqp.Node, est *Estimator) (lqp.Node, bool, error) {
	changed := false
	var rewrite func(n lqp.Node) lqp.Node
	rewrite = func(n lqp.Node) lqp.Node {
		for i, in := range n.Inputs() {
			if newIn := rewrite(in); newIn != in {
				n.SetInput(i, newIn)
			}
		}
		if join, ok := n.(*lqp.JoinNode); ok && (join.Kind == lqp.JoinSemi || join.Kind == lqp.JoinAnti) {
			if input := placeSemiJoin(join, est); input != nil {
				changed = true
				return input
			}
		}
		return n
	}
	return rewrite(root), changed, nil
}

// placeSemiJoin moves join onto the best subtree of its left input and
// returns that input, which now holds the join; nil leaves the join where it
// is.
func placeSemiJoin(join *lqp.JoinNode, est *Estimator) lqp.Node {
	input, sub := join.Inputs()[0], join.Inputs()[1]
	nLeft := len(input.Schema())
	var cols []int // the left columns the predicates read
	for _, p := range join.Predicates {
		for _, c := range referencedColumns(p) {
			if c < nLeft {
				cols = append(cols, c)
			}
		}
	}
	if len(cols) == 0 {
		return nil
	}
	// Walk down while one input holds every column. cols stay relative to
	// the current node; nodeOffset is where its columns start in input's
	// schema.
	var parent *lqp.JoinNode
	slot, offset, rows := 0, 0, est.Cardinality(input)
	node, nodeOffset := input, 0
	for {
		j, ok := node.(*lqp.JoinNode)
		if !ok || !isReorderableJoin(j) {
			break
		}
		nL := len(j.Inputs()[0].Schema())
		next := 0 // the input that holds every column
		if !allBelow(cols, nL) {
			if !allAtLeast(cols, nL) {
				break
			}
			next = 1
			for i := range cols {
				cols[i] -= nL
			}
			nodeOffset += nL
		}
		child := j.Inputs()[next]
		if r := est.Cardinality(child); r <= rows {
			parent, slot, offset, rows = j, next, nodeOffset, r
		}
		node = child
	}
	if parent == nil {
		return nil
	}
	target := parent.Inputs()[slot]
	nTarget := len(target.Schema())
	preds := make([]expression.Expression, len(join.Predicates))
	for i, p := range join.Predicates {
		preds[i] = expression.Transform(p, func(x expression.Expression) expression.Expression {
			bc, ok := x.(*expression.BoundColumn)
			if !ok {
				return nil
			}
			idx := bc.Index - offset
			if bc.Index >= nLeft {
				idx = bc.Index - nLeft + nTarget
			}
			return &expression.BoundColumn{Index: idx, Name: bc.Name, DT: bc.DT}
		})
	}
	parent.SetInput(slot, lqp.NewJoinNode(join.Kind, target, sub, preds))
	return input
}
