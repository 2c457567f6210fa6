package operators

import (
	"fmt"
	"slices"

	"hyrise/internal/expression"
	"hyrise/internal/lqp"
	"hyrise/internal/types"
)

// JoinImplementation selects the physical equi-join operator.
type JoinImplementation uint8

// Join implementation choices (paper §2.1: "more than one implementation
// might exist for a logical operator ... sort-merge joins, hash joins, or
// nested-loop joins").
const (
	PreferHashJoin JoinImplementation = iota
	PreferSortMergeJoin
)

// Translator converts an optimized LQP into a physical query plan
// (paper §2.6, "LQP-to-PQP Translation": each node is translated into one
// of the available physical operators; the optimizer has already left its
// hints in the nodes).
type Translator struct {
	// JoinImpl picks the equi-join implementation.
	JoinImpl JoinImplementation

	memo map[lqp.Node]Operator
}

// Translate converts the plan rooted at node.
func (t *Translator) Translate(node lqp.Node) (Operator, error) {
	if t.memo == nil {
		t.memo = make(map[lqp.Node]Operator)
	}
	if op, ok := t.memo[node]; ok {
		return op, nil
	}
	op, err := t.translate(node)
	if err != nil {
		return nil, err
	}
	t.memo[node] = op
	return op, nil
}

func (t *Translator) translate(node lqp.Node) (Operator, error) {
	switch n := node.(type) {
	case *lqp.StoredTableNode:
		return &GetTable{TableName: n.TableName}, nil

	case *lqp.DummyTableNode:
		return &DummyTable{}, nil

	case *lqp.ValidateNode, *lqp.PredicateNode:
		return t.translateChain(node)

	case *lqp.ProjectionNode:
		in, err := t.Translate(n.Inputs()[0])
		if err != nil {
			return nil, err
		}
		exprs := make([]expression.Expression, len(n.Exprs))
		for i, e := range n.Exprs {
			fixed, err := t.fixSubqueries(e)
			if err != nil {
				return nil, err
			}
			exprs[i] = fixed
		}
		schema := n.Schema()
		dts := make([]types.DataType, len(schema))
		for i, c := range schema {
			dts[i] = c.DT
		}
		return NewProjection(in, exprs, n.Names, dts), nil

	case *lqp.AggregateNode:
		in, err := t.Translate(n.Inputs()[0])
		if err != nil {
			return nil, err
		}
		groupBy := make([]expression.Expression, len(n.GroupBy))
		for i, g := range n.GroupBy {
			fixed, err := t.fixSubqueries(g)
			if err != nil {
				return nil, err
			}
			groupBy[i] = fixed
		}
		aggs := make([]*expression.Aggregate, len(n.Aggregates))
		for i, a := range n.Aggregates {
			fixed, err := t.fixSubqueries(a)
			if err != nil {
				return nil, err
			}
			var ok bool
			aggs[i], ok = fixed.(*expression.Aggregate)
			if !ok {
				return nil, fmt.Errorf("operators: aggregate expression degraded to %T", fixed)
			}
		}
		schema := n.Schema()
		dts := make([]types.DataType, len(schema))
		for i, c := range schema {
			dts[i] = c.DT
		}
		return NewAggregate(in, groupBy, aggs, n.Names, dts), nil

	case *lqp.SortNode:
		in, err := t.Translate(n.Inputs()[0])
		if err != nil {
			return nil, err
		}
		keys := make([]SortKey, len(n.Keys))
		for i, k := range n.Keys {
			fixed, err := t.fixSubqueries(k.Expr)
			if err != nil {
				return nil, err
			}
			keys[i] = SortKey{Expr: fixed, Desc: k.Desc}
		}
		return NewSort(in, keys), nil

	case *lqp.LimitNode:
		in, err := t.Translate(n.Inputs()[0])
		if err != nil {
			return nil, err
		}
		return NewLimit(in, n.N), nil

	case *lqp.AliasNode:
		in, err := t.Translate(n.Inputs()[0])
		if err != nil {
			return nil, err
		}
		return NewAlias(in, n.Schema().Names()), nil

	case *lqp.JoinNode:
		return t.translateJoin(n)

	case *lqp.InsertNode:
		return &Insert{TableName: n.Table.Name(), Rows: n.Rows}, nil

	case *lqp.DeleteNode:
		in, err := t.Translate(n.Inputs()[0])
		if err != nil {
			return nil, err
		}
		return NewDelete(n.TableName, in), nil

	case *lqp.UpdateNode:
		in, err := t.Translate(n.Inputs()[0])
		if err != nil {
			return nil, err
		}
		exprs := make([]expression.Expression, len(n.SetExprs))
		for i, e := range n.SetExprs {
			fixed, err := t.fixSubqueries(e)
			if err != nil {
				return nil, err
			}
			exprs[i] = fixed
		}
		return NewUpdate(n.TableName, n.SetColumns, exprs, in), nil

	default:
		return nil, fmt.Errorf("operators: cannot translate LQP node %T", node)
	}
}

// translateChain translates a run of PredicateNodes and ValidateNodes — the
// nodes that pass their input's rows on in place — into one TableScan: the
// predicates become its conjuncts, bottom one first, a ValidateNode its
// visibility check. Over a stored table every conjunct prunes (paper §2.4:
// pruning "can be propagated through conjunctive predicate chains down to the
// plan node that initially represents the input table"). The run is translated
// as a whole, without the memo: a scan that another parent shares must not
// filter by this parent's predicates.
func (t *Translator) translateChain(top lqp.Node) (Operator, error) {
	var preds []expression.Expression
	visible := false
	bottom := top
chain:
	for {
		switch n := bottom.(type) {
		case *lqp.PredicateNode:
			pred, err := t.fixSubqueries(n.Predicate)
			if err != nil {
				return nil, err
			}
			preds = append(preds, pred)
		case *lqp.ValidateNode:
			visible = true
		default:
			break chain
		}
		bottom = bottom.Inputs()[0]
	}
	if _, stored := bottom.(*lqp.StoredTableNode); visible && !stored {
		return nil, fmt.Errorf("operators: ValidateNode in a chain over %T, not over a stored table", bottom)
	}
	in, err := t.Translate(bottom)
	if err != nil {
		return nil, err
	}
	slices.Reverse(preds)
	scan := NewTableScan(in, preds...)
	scan.visible = visible
	return scan, nil
}

func (t *Translator) translateJoin(n *lqp.JoinNode) (Operator, error) {
	left, err := t.Translate(n.Inputs()[0])
	if err != nil {
		return nil, err
	}
	right, err := t.Translate(n.Inputs()[1])
	if err != nil {
		return nil, err
	}
	preds := make([]expression.Expression, len(n.Predicates))
	for i, p := range n.Predicates {
		fixed, err := t.fixSubqueries(p)
		if err != nil {
			return nil, err
		}
		preds[i] = fixed
	}
	var mode JoinMode
	switch n.Kind {
	case lqp.JoinInner:
		mode = JoinModeInner
	case lqp.JoinLeft:
		mode = JoinModeLeft
	case lqp.JoinSemi:
		mode = JoinModeSemi
	case lqp.JoinAnti:
		mode = JoinModeAnti
	case lqp.JoinRight:
		mode = JoinModeRight
	case lqp.JoinFull:
		mode = JoinModeFull
	default:
		mode = JoinModeCross
	}

	nLeft := len(n.Inputs()[0].Schema())
	leftKeys, rightKeys, residuals, ok := SplitEquiPredicates(preds, nLeft)
	if !ok {
		return NewNestedLoopJoin(mode, left, right, preds), nil
	}
	if t.JoinImpl == PreferSortMergeJoin {
		// The sort-merge implementation merges on one key; extra equi
		// predicates join the residual set (evaluated per candidate pair).
		extra := residuals
		for i := 1; i < len(leftKeys); i++ {
			extra = append(extra, &expression.Comparison{
				Op:    expression.Eq,
				Left:  leftKeys[i],
				Right: ShiftColumns(rightKeys[i], nLeft),
			})
		}
		return NewSortMergeJoin(mode, left, right, leftKeys[0], rightKeys[0], extra), nil
	}
	return NewMultiKeyHashJoin(mode, left, right, leftKeys, rightKeys, residuals), nil
}

// SplitEquiPredicates collects every equality predicate whose operands each
// touch only one side of the join as a composite key pair (right keys
// remapped into the right schema); everything else stays residual. ok is
// false when no equi predicate exists at all.
func SplitEquiPredicates(preds []expression.Expression, nLeft int) (leftKeys, rightKeys []expression.Expression, residuals []expression.Expression, ok bool) {
	for _, p := range preds {
		cmp, isCmp := p.(*expression.Comparison)
		if isCmp && cmp.Op == expression.Eq {
			lSide, lok := exprSide(cmp.Left, nLeft)
			rSide, rok := exprSide(cmp.Right, nLeft)
			if lok && rok {
				switch {
				case lSide == 0 && rSide == 1:
					leftKeys = append(leftKeys, cmp.Left)
					rightKeys = append(rightKeys, ShiftColumns(cmp.Right, -nLeft))
					continue
				case lSide == 1 && rSide == 0:
					leftKeys = append(leftKeys, cmp.Right)
					rightKeys = append(rightKeys, ShiftColumns(cmp.Left, -nLeft))
					continue
				}
			}
		}
		residuals = append(residuals, p)
	}
	return leftKeys, rightKeys, residuals, len(leftKeys) > 0
}

// exprSide reports which join side an expression touches: 0 = left only,
// 1 = right only. ok is false for mixed or column-free expressions.
func exprSide(e expression.Expression, nLeft int) (int, bool) {
	side := -1
	valid := true
	expression.VisitAll(e, func(x expression.Expression) {
		if bc, ok := x.(*expression.BoundColumn); ok {
			s := 0
			if bc.Index >= nLeft {
				s = 1
			}
			if side == -1 {
				side = s
			} else if side != s {
				valid = false
			}
		}
	})
	if side == -1 || !valid {
		return 0, false
	}
	return side, true
}

// ShiftColumns rebinds every BoundColumn index by delta (used to remap
// combined-schema expressions into one side's schema).
func ShiftColumns(e expression.Expression, delta int) expression.Expression {
	return expression.Transform(e, func(x expression.Expression) expression.Expression {
		if bc, ok := x.(*expression.BoundColumn); ok {
			return &expression.BoundColumn{Index: bc.Index + delta, Name: bc.Name, DT: bc.DT}
		}
		return nil
	})
}

// fixSubqueries swaps logical sub-plans inside Subquery expressions for
// physical ones.
func (t *Translator) fixSubqueries(e expression.Expression) (expression.Expression, error) {
	return expression.TransformErr(e, func(x expression.Expression) (expression.Expression, error) {
		sub, ok := x.(*expression.Subquery)
		if !ok {
			return nil, nil
		}
		logical, ok := sub.Plan.(lqp.Node)
		if !ok {
			return nil, nil // already physical (shared subquery)
		}
		op, err := t.Translate(logical)
		if err != nil {
			return nil, err
		}
		return &expression.Subquery{Plan: op, Correlated: sub.Correlated, ID: sub.ID, DT: sub.DT}, nil
	})
}
