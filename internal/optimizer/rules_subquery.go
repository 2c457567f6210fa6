package optimizer

import (
	"fmt"

	"hyrise/internal/expression"
	"hyrise/internal/lqp"
)

// SubqueryToJoinRule rewrites subqueries into joins (paper §2.6: subselects
// initially execute per row, "which is why the optimizer later rewrites the
// LQP into a more efficient, join-based version"). Patterns handled:
//
//   - expr IN (subquery)                        -> semi join
//   - expr NOT IN (uncorrelated, non-nullable)  -> anti join
//   - [NOT] EXISTS (correlated subquery)        -> semi/anti join
//   - expr OP (correlated scalar aggregate)     -> join against the
//     aggregate grouped by its correlation keys
//
// Correlated columns (OuterRefs) become join predicates: equalities turn
// into equi-join keys; other comparisons become residual join predicates.
// Statement placeholders move into the join like literals.
// Whatever does not match keeps the per-row execution fallback, which is
// always correct.
type SubqueryToJoinRule struct{}

// Iterative implements Rule.
func (r *SubqueryToJoinRule) Iterative() bool { return true }

// Apply implements Rule.
func (r *SubqueryToJoinRule) Apply(root lqp.Node, est *Estimator) (lqp.Node, bool, error) {
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
		conjuncts := expression.SplitConjunction(pred.Predicate)
		input := pred.Inputs()[0]
		var remaining []expression.Expression
		rewritten := false
		for _, c := range conjuncts {
			if join := r.tryRewrite(c, input); join != nil {
				input = join
				rewritten = true
				continue
			}
			remaining = append(remaining, c)
		}
		if !rewritten {
			return n
		}
		changed = true
		if len(remaining) == 0 {
			return input
		}
		return lqp.NewPredicateNode(input, expression.JoinConjunction(remaining))
	}
	return rewrite(root), changed, nil
}

// tryRewrite converts one conjunct into a join over input, or returns nil.
// The returned node always has exactly input's schema.
func (r *SubqueryToJoinRule) tryRewrite(conjunct expression.Expression, input lqp.Node) lqp.Node {
	nLeft := len(input.Schema())
	switch e := conjunct.(type) {
	case *expression.In:
		if e.Subquery == nil {
			return nil
		}
		subPlan, ok := e.Subquery.Plan.(lqp.Node)
		if !ok || len(subPlan.Schema()) < 1 {
			return nil
		}
		// NOT IN is only null-safe when neither side can be NULL.
		if e.Negate {
			if subPlan.Schema()[0].Nullable || exprNullable(e.Child, input) || len(e.Subquery.Correlated) > 0 {
				return nil
			}
		}
		right, extraKeys, residuals, ok := decorrelate(subPlan, e.Subquery.Correlated, true)
		if !ok {
			return nil
		}
		preds := []expression.Expression{
			&expression.Comparison{Op: expression.Eq, Left: e.Child, Right: shiftColumns(&expression.BoundColumn{Index: 0, DT: right.Schema()[0].DT}, nLeft)},
		}
		preds = append(preds, joinPredsFor(e.Subquery.Correlated, extraKeys, residuals, nLeft)...)
		kind := lqp.JoinSemi
		if e.Negate {
			kind = lqp.JoinAnti
		}
		return lqp.NewJoinNode(kind, input, right, preds)

	case *expression.Exists:
		subPlan, ok := e.Subquery.Plan.(lqp.Node)
		if !ok {
			return nil
		}
		if len(e.Subquery.Correlated) == 0 {
			return nil // uncorrelated EXISTS executes once anyway
		}
		right, keys, residuals, ok := decorrelate(subPlan, e.Subquery.Correlated, false)
		if !ok {
			return nil
		}
		preds := joinPredsFor(e.Subquery.Correlated, keys, residuals, nLeft)
		if len(preds) == 0 {
			return nil
		}
		kind := lqp.JoinSemi
		if e.Negate {
			kind = lqp.JoinAnti
		}
		return lqp.NewJoinNode(kind, input, right, preds)

	case *expression.Comparison:
		return rewriteScalarAggregate(e, input, nLeft)
	}
	return nil
}

// joinPredsFor builds the join predicate list from per-OuterRef equi keys
// (bound to the right schema) and residuals (OuterRef id -> comparison with
// the right-side expression already bound to the right schema).
func joinPredsFor(correlated []expression.Expression, keys []expression.Expression, residuals []residualPred, nLeft int) []expression.Expression {
	var preds []expression.Expression
	for i, outer := range correlated {
		if keys[i] == nil {
			continue
		}
		preds = append(preds, &expression.Comparison{
			Op:    expression.Eq,
			Left:  outer,
			Right: shiftColumns(keys[i], nLeft),
		})
	}
	for _, res := range residuals {
		outer := correlated[res.outerID]
		preds = append(preds, &expression.Comparison{
			Op:    res.op,
			Left:  outer,
			Right: shiftColumns(res.rightExpr, nLeft),
		})
	}
	return preds
}

func exprNullable(e expression.Expression, input lqp.Node) bool {
	bc, ok := e.(*expression.BoundColumn)
	if !ok {
		return true // conservative
	}
	schema := input.Schema()
	if bc.Index >= len(schema) {
		return true
	}
	return schema[bc.Index].Nullable
}

// residualPred is a non-equality correlation: `$outer OP rightExpr`.
type residualPred struct {
	outerID   int
	op        expression.ComparisonOp
	rightExpr expression.Expression
}

// decorrelate removes the OuterRef conjuncts from the subquery plan.
// Equalities become join keys (one per OuterRef; nil entries mean "only
// residual uses"); other comparisons become residual join predicates.
// keepProjection controls whether a top projection is preserved (IN needs
// its column 0) or stripped (EXISTS ignores output).
//
// The rewrite only fires when the plan is a chain
// [Projection?] -> PredicateNode* -> rest with no OuterRefs below the
// chain, and at least one OuterRef yields an equi key or residual.
func decorrelate(plan lqp.Node, correlated []expression.Expression, keepProjection bool) (lqp.Node, []expression.Expression, []residualPred, bool) {
	if len(correlated) == 0 {
		return plan, nil, nil, true
	}
	// Unwrap the optional projection.
	var proj *lqp.ProjectionNode
	chainTop := plan
	if p, ok := plan.(*lqp.ProjectionNode); ok {
		proj = p
		chainTop = p.Inputs()[0]
		for _, e := range p.Exprs {
			if containsOuterRef(e) {
				return nil, nil, nil, false
			}
		}
	}

	// Collect the predicate chain.
	var chain []*lqp.PredicateNode
	cur := chainTop
	for {
		p, ok := cur.(*lqp.PredicateNode)
		if !ok {
			break
		}
		chain = append(chain, p)
		cur = p.Inputs()[0]
	}
	base := cur

	// OuterRefs must not occur below the chain.
	below := false
	lqp.VisitExpressions(base, func(e expression.Expression) {
		below = below || containsOuterRef(e)
	})
	if below {
		return nil, nil, nil, false
	}

	// Partition the conjuncts.
	keyOf := make(map[int]expression.Expression)
	var residuals []residualPred
	var keepPreds []expression.Expression
	covered := make(map[int]bool)
	for _, p := range chain {
		for _, c := range expression.SplitConjunction(p.Predicate) {
			if id, colExpr, op, ok := outerComparison(c); ok {
				covered[id] = true
				if op == expression.Eq {
					if _, dup := keyOf[id]; dup {
						// A second equality on the same OuterRef stays as a
						// residual.
						residuals = append(residuals, residualPred{outerID: id, op: op, rightExpr: colExpr})
						continue
					}
					keyOf[id] = colExpr
					continue
				}
				residuals = append(residuals, residualPred{outerID: id, op: op, rightExpr: colExpr})
				continue
			}
			if containsOuterRef(c) {
				return nil, nil, nil, false // OuterRef in an unsupported shape
			}
			keepPreds = append(keepPreds, c)
		}
	}
	if len(covered) != len(correlated) {
		return nil, nil, nil, false
	}

	// Rebuild: base -> remaining predicates -> (projection).
	node := base
	for _, p := range keepPreds {
		node = lqp.NewPredicateNode(node, p)
	}
	keys := make([]expression.Expression, len(correlated))
	if proj != nil && keepProjection {
		// Extend the projection with the key/residual columns so the join
		// can reference them.
		exprs := append([]expression.Expression{}, proj.Exprs...)
		names := append([]string{}, proj.Names...)
		addCol := func(colExpr expression.Expression) *expression.BoundColumn {
			exprs = append(exprs, colExpr)
			names = append(names, fmt.Sprintf("__corr_%d", len(exprs)))
			dt, _ := expression.InferType(colExpr)
			return &expression.BoundColumn{Index: len(exprs) - 1, DT: dt}
		}
		for i := range correlated {
			if colExpr, ok := keyOf[i]; ok {
				keys[i] = addCol(colExpr)
			}
		}
		for ri := range residuals {
			residuals[ri].rightExpr = addCol(residuals[ri].rightExpr)
		}
		return lqp.NewProjectionNode(node, exprs, names), keys, residuals, true
	}
	if keepProjection && proj == nil {
		// A correlated IN needs the projection to address its key column.
		return nil, nil, nil, false
	}
	// No projection kept: keys/residuals are the column expressions
	// themselves, valid against the chain schema (== base schema).
	for i := range correlated {
		if colExpr, ok := keyOf[i]; ok {
			keys[i] = colExpr
		}
	}
	return node, keys, residuals, true
}

// outerComparison matches `$i OP expr` / `expr OP $i` where $i is an
// OuterRef and expr holds none; the returned op is normalized so the
// OuterRef is on the LEFT side.
func outerComparison(e expression.Expression) (int, expression.Expression, expression.ComparisonOp, bool) {
	cmp, ok := e.(*expression.Comparison)
	if !ok || cmp.Op == expression.Like || cmp.Op == expression.NotLike {
		return 0, nil, 0, false
	}
	if p, ok := cmp.Left.(*expression.OuterRef); ok && !containsOuterRef(cmp.Right) {
		return p.ID, cmp.Right, cmp.Op, true
	}
	if p, ok := cmp.Right.(*expression.OuterRef); ok && !containsOuterRef(cmp.Left) {
		return p.ID, cmp.Left, cmp.Op.Flip(), true
	}
	return 0, nil, 0, false
}

// rewriteScalarAggregate handles `expr OP (correlated scalar aggregate)`:
// the classic decorrelation into a join against the aggregate grouped by
// its correlation keys (Q2, Q17, Q20 in TPC-H). COUNT aggregates are
// excluded: they return 0 (not NULL) for empty groups, which a join cannot
// mimic.
func rewriteScalarAggregate(cmp *expression.Comparison, input lqp.Node, nLeft int) lqp.Node {
	var sub *expression.Subquery
	var outerSide expression.Expression
	op := cmp.Op
	if s, ok := cmp.Right.(*expression.Subquery); ok && !containsSubquery(cmp.Left) {
		sub, outerSide = s, cmp.Left
	} else if s, ok := cmp.Left.(*expression.Subquery); ok && !containsSubquery(cmp.Right) {
		sub, outerSide = s, cmp.Right
		op = op.Flip()
	} else {
		return nil
	}
	if len(sub.Correlated) == 0 {
		return nil // uncorrelated scalar executes once; no join needed
	}
	plan, ok := sub.Plan.(lqp.Node)
	if !ok {
		return nil
	}
	// Expect Projection(single expr over agg outputs) -> Aggregate(no
	// group-by) -> predicate chain with the OuterRef equalities.
	proj, ok := plan.(*lqp.ProjectionNode)
	if !ok || len(proj.Exprs) != 1 || containsOuterRef(proj.Exprs[0]) {
		return nil
	}
	agg, ok := proj.Inputs()[0].(*lqp.AggregateNode)
	if !ok || len(agg.GroupBy) != 0 || len(agg.Aggregates) == 0 {
		return nil
	}
	for _, a := range agg.Aggregates {
		switch a.Fn {
		case expression.AggCount, expression.AggCountStar, expression.AggCountDistinct:
			return nil
		}
		if containsOuterRef(a) {
			return nil
		}
	}

	// Decorrelate the aggregate's input chain; only pure equality
	// correlation is sound here (residual comparisons would change the
	// aggregated row set per outer row).
	right, keys, residuals, ok := decorrelate(agg.Inputs()[0], sub.Correlated, false)
	if !ok || len(residuals) > 0 {
		return nil
	}
	for _, k := range keys {
		if k == nil {
			return nil
		}
	}

	// New aggregate: group by the correlation keys, then the aggregates.
	groupNames := make([]string, len(keys))
	for i := range keys {
		groupNames[i] = fmt.Sprintf("__key_%d", i)
	}
	names := append(groupNames, agg.Names[len(agg.GroupBy):]...)
	newAgg := lqp.NewAggregateNode(right, keys, agg.Aggregates, names)

	// New projection: [value, keys...]; the original single expr referenced
	// agg outputs starting at 0, which now sit after len(keys) columns.
	valueExpr := shiftColumns(proj.Exprs[0], len(keys))
	exprs := []expression.Expression{valueExpr}
	projNames := []string{proj.Names[0]}
	for i := range keys {
		exprs = append(exprs, &expression.BoundColumn{Index: i, Name: groupNames[i], DT: newAgg.Schema()[i].DT})
		projNames = append(projNames, groupNames[i])
	}
	newProj := lqp.NewProjectionNode(newAgg, exprs, projNames)

	// Join: keys as equi predicates, the comparison as a residual.
	var preds []expression.Expression
	for i, outer := range sub.Correlated {
		preds = append(preds, &expression.Comparison{
			Op:    expression.Eq,
			Left:  outer,
			Right: &expression.BoundColumn{Index: nLeft + 1 + i, DT: newProj.Schema()[1+i].DT},
		})
	}
	preds = append(preds, &expression.Comparison{
		Op:    op,
		Left:  outerSide,
		Right: &expression.BoundColumn{Index: nLeft + 0, DT: newProj.Schema()[0].DT},
	})
	join := lqp.NewJoinNode(lqp.JoinInner, input, newProj, preds)

	// Restore the outer schema with a projection.
	schema := input.Schema()
	outExprs := make([]expression.Expression, nLeft)
	outNames := make([]string, nLeft)
	for i := 0; i < nLeft; i++ {
		outExprs[i] = &expression.BoundColumn{Index: i, Name: schema[i].Name, DT: schema[i].DT}
		outNames[i] = schema[i].Name
	}
	return lqp.NewProjectionNode(join, outExprs, outNames)
}

var containsSubquery = expression.Contains[*expression.Subquery]

// containsOuterRef reports whether a correlated column occurs; statement
// placeholders are constants of one execution, like literals.
var containsOuterRef = expression.Contains[*expression.OuterRef]
