package operators

import (
	"fmt"

	"hyrise/internal/encoding"
	"hyrise/internal/expression"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Subquery execution (paper §2.6): subselects run as if they were
// stand-alone queries. Non-correlated subqueries execute once; correlated
// ones execute per distinct tuple of correlated values, memoized per
// statement execution — the memoization is what keeps the paper's
// "placeholders are replaced with the correlated attributes during the
// execution" strategy tractable. A result is keyed by the subquery's
// physical plan, not its parser-assigned ID, which restarts in every parse
// (a view's subqueries are parsed again at translation).

type subqueryResult struct {
	scalar types.Value
	set    *expression.ValueSet
	exists bool
	err    error
}

type subqueryKey struct {
	plan  Operator
	kind  byte // 's'calar, 'i'n, 'e'xists
	outer string
}

// memoSubquery returns the memoized result of one subquery invocation,
// running the plan and deriving the result with fill on a miss.
func (ctx *ExecContext) memoSubquery(kind byte, sub *expression.Subquery, outer []types.Value, fill func(*storage.Table, *subqueryResult)) *subqueryResult {
	plan, ok := sub.Plan.(Operator)
	if !ok {
		return &subqueryResult{err: fmt.Errorf("operators: subquery %d holds %T, not a physical plan", sub.ID, sub.Plan)}
	}
	memo := &ctx.memoRoot().subqueries
	key := subqueryKey{plan: plan, kind: kind, outer: expression.OuterKey(outer)}
	if cached, ok := memo.Load(key); ok {
		return cached.(*subqueryResult)
	}
	r := &subqueryResult{}
	out, err := Execute(plan, ctx.child(outer))
	if r.err = err; err == nil {
		fill(out, r)
	}
	memo.Store(key, r)
	return r
}

// installSubqueryExecutors wires the evaluator callbacks to physical plan
// execution with memoization.
func (ctx *ExecContext) installSubqueryExecutors(ec *expression.Context) {
	ec.ExecScalarSubquery = func(sub *expression.Subquery, outer []types.Value) (types.Value, error) {
		r := ctx.memoSubquery('s', sub, outer, func(t *storage.Table, r *subqueryResult) {
			r.scalar, r.err = scalarFromTable(t)
		})
		return r.scalar, r.err
	}
	ec.ExecInSubquery = func(sub *expression.Subquery, outer []types.Value) (*expression.ValueSet, error) {
		r := ctx.memoSubquery('i', sub, outer, func(t *storage.Table, r *subqueryResult) {
			r.set, r.err = valueSetFromTable(t)
		})
		return r.set, r.err
	}
	ec.ExecExistsSubquery = func(sub *expression.Subquery, outer []types.Value) (bool, error) {
		r := ctx.memoSubquery('e', sub, outer, func(t *storage.Table, r *subqueryResult) {
			r.exists = t.RowCount() > 0
		})
		return r.exists, r.err
	}
}

// scalarFromTable extracts the single value a scalar subquery must produce.
// Zero rows yield NULL (SQL semantics); more than one row is an error.
func scalarFromTable(t *storage.Table) (types.Value, error) {
	switch {
	case t.ColumnCount() < 1:
		return types.NullValue, fmt.Errorf("operators: scalar subquery with no columns")
	case t.RowCount() == 0:
		return types.NullValue, nil
	case t.RowCount() > 1:
		return types.NullValue, fmt.Errorf("operators: scalar subquery returned %d rows", t.RowCount())
	}
	for ci := 0; ci < t.ChunkCount(); ci++ {
		c := t.GetChunk(types.ChunkID(ci))
		if c.Size() > 0 {
			return c.GetSegment(0).ValueAt(0), nil
		}
	}
	return types.NullValue, nil
}

// valueSetFromTable collects the first column into a membership set.
func valueSetFromTable(t *storage.Table) (*expression.ValueSet, error) {
	if t.ColumnCount() < 1 {
		return nil, fmt.Errorf("operators: IN subquery with no columns")
	}
	set := expression.NewValueSet()
	for ci := 0; ci < t.ChunkCount(); ci++ {
		c := t.GetChunk(types.ChunkID(ci))
		if c.Size() == 0 {
			continue
		}
		seg := c.GetSegment(0)
		switch seg.DataType() {
		case types.TypeInt64:
			vals, nulls := encoding.Materialize[int64](seg)
			for i, v := range vals {
				if nulls != nil && nulls[i] {
					set.HasNull = true
					continue
				}
				set.Ints[v] = struct{}{}
			}
		case types.TypeFloat64:
			vals, nulls := encoding.Materialize[float64](seg)
			for i, v := range vals {
				if nulls != nil && nulls[i] {
					set.HasNull = true
					continue
				}
				set.Floats[v] = struct{}{}
			}
		case types.TypeString:
			vals, nulls := encoding.Materialize[string](seg)
			for i, v := range vals {
				if nulls != nil && nulls[i] {
					set.HasNull = true
					continue
				}
				set.Strs[v] = struct{}{}
			}
		}
	}
	return set, nil
}
