package operators

import (
	"fmt"

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
	in     *inSet
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
	ec.ExecInSubquery = func(x *expression.In, outer []types.Value, probe *expression.Vector) (*expression.Vector, error) {
		r := ctx.memoSubquery('i', x.Subquery, outer, func(t *storage.Table, r *subqueryResult) {
			r.in, r.err = inSetFromTable(ctx, x, t)
		})
		if r.err != nil {
			return nil, r.err
		}
		return r.in.probe(probe)
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

// inSet is the result of an IN subquery: its first column in the type the
// IN compares in, the common type of the IN's child and the subquery, with
// the rows that can equal a probe in a key table.
type inSet struct {
	dt      types.DataType
	table   *keyTable // the rows that are neither NULL nor NaN
	empty   bool
	hasNull bool
}

// inSetFromTable reads the first column of t, the result of x's subquery, as
// the plan types it (a BOOL stored as 0/1 reads as BOOL) and files its rows.
func inSetFromTable(ctx *ExecContext, x *expression.In, t *storage.Table) (*inSet, error) {
	if t.ColumnCount() < 1 {
		return nil, fmt.Errorf("operators: IN subquery with no columns")
	}
	dt, _ := types.CommonType(exprType(x.Child), x.Subquery.DT)
	vecs, err := evalKeys(ctx, t, []expression.Expression{&expression.BoundColumn{Index: 0, DT: x.Subquery.DT}})
	if err != nil {
		return nil, err
	}
	col, err := concatKeys(vecs[0], dt, t.RowCount())
	if err != nil {
		return nil, err
	}
	keys := []*expression.Vector{col}
	s := &inSet{dt: dt, table: newKeyTable(keys, col.N), empty: col.N == 0}
	for r, h := range hashRows(keys, 0, col.N) {
		if keyNeverJoins(keys, r) {
			s.hasNull = s.hasNull || col.IsNullAt(r)
		} else {
			s.table.findOrAdd(h, r)
		}
	}
	return s, nil
}

// probe answers `v IN (the set)` row by row, as ExecInSubquery specifies.
func (s *inSet) probe(v *expression.Vector) (*expression.Vector, error) {
	out := expression.NewBoolVector(make([]bool, v.N), make([]bool, v.N))
	if s.empty {
		return out, nil
	}
	key, err := concatKeys([]*expression.Vector{v}, s.dt, v.N)
	if err != nil {
		return nil, err
	}
	keys := []*expression.Vector{key}
	for r, h := range hashRows(keys, 0, v.N) {
		if !keyNeverJoins(keys, r) {
			if e, _ := s.table.lookup(h, keys, r); e >= 0 {
				out.B[r] = true
				continue
			}
		}
		out.Nulls[r] = s.hasNull || key.IsNullAt(r)
	}
	return out, nil
}
