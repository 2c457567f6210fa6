// Package rowengine is the row-oriented baseline engine of the Figure 6
// comparison (DESIGN.md substitution S4). It shares Hyrise's SQL frontend
// (parser, translator, optimizer) but executes plans over row-major table
// copies with tuple-at-a-time expression evaluation — the classic
// row-store architecture: no chunking, no compression, no pruning, no
// vectorization, dynamic Value boxing per cell.
package rowengine

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"hyrise/internal/expression"
	"hyrise/internal/lqp"
	"hyrise/internal/optimizer"
	"hyrise/internal/sqlparser"
	"hyrise/internal/statistics"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// RowTable is a row-major relation.
type RowTable struct {
	Defs []storage.ColumnDefinition
	Rows [][]types.Value
}

// Engine executes SQL over row-major tables.
type Engine struct {
	tables map[string]*RowTable
	// columnar mirrors the row tables so the shared translator/optimizer can
	// resolve schemas and statistics.
	columnar *storage.StorageManager
	opt      *optimizer.Optimizer
	subCache map[string][][]types.Value
}

// NewFromStorage copies every table of a columnar catalog into row-major
// form.
func NewFromStorage(sm *storage.StorageManager) *Engine {
	e := &Engine{
		tables:   make(map[string]*RowTable),
		columnar: sm,
		opt:      optimizer.NewDefault(statistics.NewCache(statistics.EqualHeight)),
	}
	for _, name := range sm.TableNames() {
		t, err := sm.GetTable(name)
		if err != nil {
			continue
		}
		rt := &RowTable{Defs: t.ColumnDefinitions()}
		for ci := 0; ci < t.ChunkCount(); ci++ {
			c := t.GetChunk(types.ChunkID(ci))
			for o := 0; o < c.Size(); o++ {
				row := make([]types.Value, t.ColumnCount())
				for col := 0; col < t.ColumnCount(); col++ {
					row[col] = c.GetSegment(types.ColumnID(col)).ValueAt(types.ChunkOffset(o))
				}
				rt.Rows = append(rt.Rows, row)
			}
		}
		e.tables[strings.ToLower(name)] = rt
	}
	return e
}

// Query parses, plans (with the shared optimizer), and executes SQL,
// returning rows and column names.
func (e *Engine) Query(sql string) ([][]types.Value, []string, error) {
	stmt, err := sqlparser.ParseOne(sql)
	if err != nil {
		return nil, nil, err
	}
	tr := &lqp.Translator{SM: e.columnar}
	plan, err := tr.Translate(stmt)
	if err != nil {
		return nil, nil, err
	}
	plan, err = e.opt.Optimize(plan)
	if err != nil {
		return nil, nil, err
	}
	// The subquery memo keys by node address: valid for one plan only.
	e.subCache = make(map[string][][]types.Value)
	rows, err := e.exec(plan, nil)
	if err != nil {
		return nil, nil, err
	}
	return rows, plan.Schema().Names(), nil
}

// exec interprets the LQP tuple-at-a-time.
func (e *Engine) exec(node lqp.Node, outer []types.Value) ([][]types.Value, error) {
	switch n := node.(type) {
	case *lqp.StoredTableNode:
		rt, ok := e.tables[strings.ToLower(n.TableName)]
		if !ok {
			return nil, fmt.Errorf("rowengine: no table %q", n.TableName)
		}
		return rt.Rows, nil

	case *lqp.DummyTableNode:
		return [][]types.Value{{}}, nil

	case *lqp.ValidateNode, *lqp.AliasNode:
		return e.exec(n.Inputs()[0], outer)

	case *lqp.PredicateNode:
		in, err := e.exec(n.Inputs()[0], outer)
		if err != nil {
			return nil, err
		}
		var out [][]types.Value
		for _, row := range in {
			keep, err := e.evalBool(n.Predicate, row, outer)
			if err != nil {
				return nil, err
			}
			if keep {
				out = append(out, row)
			}
		}
		return out, nil

	case *lqp.ProjectionNode:
		in, err := e.exec(n.Inputs()[0], outer)
		if err != nil {
			return nil, err
		}
		out := make([][]types.Value, len(in))
		for i, row := range in {
			proj := make([]types.Value, len(n.Exprs))
			for j, expr := range n.Exprs {
				v, err := e.evalRow(expr, row, outer)
				if err != nil {
					return nil, err
				}
				proj[j] = v
			}
			out[i] = proj
		}
		return out, nil

	case *lqp.JoinNode:
		return e.execJoin(n, outer)

	case *lqp.AggregateNode:
		return e.execAggregate(n, outer)

	case *lqp.SortNode:
		in, err := e.exec(n.Inputs()[0], outer)
		if err != nil {
			return nil, err
		}
		keys := make([][]types.Value, len(in))
		for i, row := range in {
			keys[i] = make([]types.Value, len(n.Keys))
			for k, key := range n.Keys {
				v, err := e.evalRow(key.Expr, row, outer)
				if err != nil {
					return nil, err
				}
				keys[i][k] = v
			}
		}
		perm := make([]int, len(in))
		for i := range perm {
			perm[i] = i
		}
		sort.SliceStable(perm, func(a, b int) bool {
			for k, key := range n.Keys {
				c := types.Order(keys[perm[a]][k], keys[perm[b]][k])
				if c != 0 {
					if key.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
		out := make([][]types.Value, len(in))
		for i, p := range perm {
			out[i] = in[p]
		}
		return out, nil

	case *lqp.LimitNode:
		in, err := e.exec(n.Inputs()[0], outer)
		if err != nil {
			return nil, err
		}
		if int64(len(in)) > n.N {
			in = in[:n.N]
		}
		return in, nil

	default:
		return nil, fmt.Errorf("rowengine: unsupported node %T", node)
	}
}

func (e *Engine) execJoin(n *lqp.JoinNode, outer []types.Value) ([][]types.Value, error) {
	left, err := e.exec(n.Inputs()[0], outer)
	if err != nil {
		return nil, err
	}
	right, err := e.exec(n.Inputs()[1], outer)
	if err != nil {
		return nil, err
	}
	nLeft := len(n.Inputs()[0].Schema())

	// Collect equi predicates as a composite hash key; the rest evaluate
	// per pair.
	leftKeys, rightKeys, residuals, hasEqui := operatorsSplit(n.Predicates, nLeft)

	combined := func(l, r []types.Value) []types.Value {
		row := make([]types.Value, 0, len(l)+len(r))
		row = append(row, l...)
		row = append(row, r...)
		return row
	}
	nullRight := make([]types.Value, len(n.Inputs()[1].Schema()))
	for i := range nullRight {
		nullRight[i] = types.NullValue
	}
	nullLeft := make([]types.Value, nLeft)
	for i := range nullLeft {
		nullLeft[i] = types.NullValue
	}

	residualOK := func(l, r []types.Value) (bool, error) {
		if len(residuals) == 0 {
			return true, nil
		}
		row := combined(l, r)
		for _, res := range residuals {
			ok, err := e.evalBool(res, row, outer)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	}

	// candidates yields indices into right so outer modes can track which
	// right rows matched.
	var candidates func(l []types.Value) ([]int, error)
	if hasEqui {
		// An int key that meets a float key is a float, as in `=`.
		floatKey := make([]bool, len(leftKeys))
		for k := range floatKey {
			l, _ := expression.InferType(leftKeys[k])
			r, _ := expression.InferType(rightKeys[k])
			floatKey[k] = l == types.TypeFloat64 || r == types.TypeFloat64
		}
		// A NULL or NaN key equals nothing (the predicate rule): no match.
		keyOf := func(row []types.Value, keys []expression.Expression) (string, bool, error) {
			var sb strings.Builder
			for k, key := range keys {
				kv, err := e.evalRow(key, row, outer)
				if err != nil || kv.IsNull() || (kv.Type == types.TypeFloat64 && math.IsNaN(kv.F)) {
					return "", false, err
				}
				if floatKey[k] && kv.Type == types.TypeInt64 {
					kv = types.Float(float64(kv.I))
				}
				writeKey(&sb, kv)
			}
			return sb.String(), true, nil
		}
		ht := make(map[string][]int, len(right))
		for ri, r := range right {
			k, ok, err := keyOf(r, rightKeys)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			ht[k] = append(ht[k], ri)
		}
		candidates = func(l []types.Value) ([]int, error) {
			k, ok, err := keyOf(l, leftKeys)
			if err != nil || !ok {
				return nil, err
			}
			return ht[k], nil
		}
	} else {
		all := make([]int, len(right))
		for i := range all {
			all[i] = i
		}
		candidates = func([]types.Value) ([]int, error) { return all, nil }
	}

	matchedRight := make([]bool, len(right))
	var out [][]types.Value
	for _, l := range left {
		cands, err := candidates(l)
		if err != nil {
			return nil, err
		}
		matched := false
		for _, ri := range cands {
			r := right[ri]
			ok, err := residualOK(l, r)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			matched = true
			matchedRight[ri] = true
			switch n.Kind {
			case lqp.JoinSemi, lqp.JoinAnti:
			default:
				out = append(out, combined(l, r))
			}
			if n.Kind == lqp.JoinSemi || n.Kind == lqp.JoinAnti {
				break
			}
		}
		switch n.Kind {
		case lqp.JoinSemi:
			if matched {
				out = append(out, l)
			}
		case lqp.JoinAnti:
			if !matched {
				out = append(out, l)
			}
		case lqp.JoinLeft, lqp.JoinFull:
			if !matched {
				out = append(out, combined(l, nullRight))
			}
		}
	}
	if n.Kind == lqp.JoinRight || n.Kind == lqp.JoinFull {
		for ri, m := range matchedRight {
			if !m {
				out = append(out, combined(nullLeft, right[ri]))
			}
		}
	}
	return out, nil
}

// writeKey appends v to a composite hash key under the grouping rule: an
// integral float is the int of its value (so 1.0 joins 1 and -0 is 0), and
// every NaN renders alike.
func writeKey(sb *strings.Builder, v types.Value) {
	if v.Type == types.TypeFloat64 && v.F == float64(int64(v.F)) {
		v = types.Int(int64(v.F))
	}
	sb.WriteByte(byte('0' + v.Type))
	sb.WriteString(v.String())
	sb.WriteByte(0)
}

// operatorsSplit mirrors the PQP translator's equi-predicate split without
// importing the operators package (no dependency between the engines).
func operatorsSplit(preds []expression.Expression, nLeft int) (leftKeys, rightKeys, residuals []expression.Expression, ok bool) {
	for _, p := range preds {
		cmp, isCmp := p.(*expression.Comparison)
		if isCmp && cmp.Op == expression.Eq {
			lSide, lok := side(cmp.Left, nLeft)
			rSide, rok := side(cmp.Right, nLeft)
			if lok && rok {
				switch {
				case lSide == 0 && rSide == 1:
					leftKeys = append(leftKeys, cmp.Left)
					rightKeys = append(rightKeys, shift(cmp.Right, -nLeft))
					continue
				case lSide == 1 && rSide == 0:
					leftKeys = append(leftKeys, cmp.Right)
					rightKeys = append(rightKeys, shift(cmp.Left, -nLeft))
					continue
				}
			}
		}
		residuals = append(residuals, p)
	}
	return leftKeys, rightKeys, residuals, len(leftKeys) > 0
}

func side(e expression.Expression, nLeft int) (int, bool) {
	s := -1
	ok := true
	expression.VisitAll(e, func(x expression.Expression) {
		if bc, isCol := x.(*expression.BoundColumn); isCol {
			v := 0
			if bc.Index >= nLeft {
				v = 1
			}
			if s == -1 {
				s = v
			} else if s != v {
				ok = false
			}
		}
	})
	if s == -1 {
		return 0, false
	}
	return s, ok
}

func shift(e expression.Expression, delta int) expression.Expression {
	return expression.Transform(e, func(x expression.Expression) expression.Expression {
		if bc, ok := x.(*expression.BoundColumn); ok {
			return &expression.BoundColumn{Index: bc.Index + delta, Name: bc.Name, DT: bc.DT}
		}
		return nil
	})
}

func (e *Engine) execAggregate(n *lqp.AggregateNode, outer []types.Value) ([][]types.Value, error) {
	in, err := e.exec(n.Inputs()[0], outer)
	if err != nil {
		return nil, err
	}
	type state struct {
		keys     []types.Value
		sums     []float64 // SUM and AVG over FLOAT
		intSums  []int64   // SUM and AVG over INT, exact: wraps·2^64 + intSums
		wraps    []int32
		counts   []int64               // non-NULL values seen; all rows for COUNT(*)
		extremes []types.Value         // the MIN or MAX so far
		distinct []map[string]struct{} // by writeKey: all NaNs and both zeros count once
	}
	newState := func(keys []types.Value) *state {
		k := len(n.Aggregates)
		return &state{keys: keys, sums: make([]float64, k), intSums: make([]int64, k), wraps: make([]int32, k),
			counts: make([]int64, k), extremes: make([]types.Value, k), distinct: make([]map[string]struct{}, k)}
	}
	groups := make(map[string]*state)
	var order []string

	var keyBuf strings.Builder
	for _, row := range in {
		keyBuf.Reset()
		keys := make([]types.Value, len(n.GroupBy))
		for i, g := range n.GroupBy {
			v, err := e.evalRow(g, row, outer)
			if err != nil {
				return nil, err
			}
			keys[i] = v
			writeKey(&keyBuf, v)
		}
		k := keyBuf.String()
		st, ok := groups[k]
		if !ok {
			st = newState(keys)
			groups[k] = st
			order = append(order, k)
		}
		for i, agg := range n.Aggregates {
			if agg.Fn == expression.AggCountStar {
				st.counts[i]++
				continue
			}
			v, err := e.evalRow(agg.Arg, row, outer)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				continue
			}
			st.counts[i]++
			switch agg.Fn {
			case expression.AggCountDistinct:
				if st.distinct[i] == nil {
					st.distinct[i] = make(map[string]struct{})
				}
				var dk strings.Builder
				writeKey(&dk, v)
				st.distinct[i][dk.String()] = struct{}{}
			case expression.AggSum, expression.AggAvg:
				if v.Type == types.TypeInt64 {
					st.intSums[i], st.wraps[i] = expression.AddInt(st.intSums[i], st.wraps[i], v.I)
				} else {
					st.sums[i] += v.AsFloat()
				}
			case expression.AggMin, expression.AggMax:
				if c := types.Order(v, st.extremes[i]); st.counts[i] == 1 || c < 0 && agg.Fn == expression.AggMin || c > 0 && agg.Fn == expression.AggMax {
					st.extremes[i] = v
				}
			}
		}
	}
	if len(n.GroupBy) == 0 && len(groups) == 0 {
		groups[""] = newState(nil)
		order = append(order, "")
	}

	schema := n.Schema()
	var out [][]types.Value
	for _, k := range order {
		st := groups[k]
		row := make([]types.Value, 0, len(schema))
		row = append(row, st.keys...)
		for i, agg := range n.Aggregates {
			switch {
			case agg.Fn == expression.AggCountStar || agg.Fn == expression.AggCount:
				row = append(row, types.Int(st.counts[i]))
			case agg.Fn == expression.AggCountDistinct:
				row = append(row, types.Int(int64(len(st.distinct[i]))))
			case st.counts[i] == 0:
				row = append(row, types.NullValue)
			case agg.Fn == expression.AggAvg:
				row = append(row, types.Float((st.sums[i]+expression.IntSum(st.intSums[i], st.wraps[i]))/float64(st.counts[i])))
			case agg.Fn != expression.AggSum:
				row = append(row, st.extremes[i])
			case schema[len(st.keys)+i].DT != types.TypeInt64:
				row = append(row, types.Float(st.sums[i]))
			case st.wraps[i] != 0:
				return nil, expression.ErrOutOfRange
			default:
				row = append(row, types.Int(st.intSums[i]))
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// evalRow evaluates an expression against one row (tuple-at-a-time, N=1
// evaluation contexts — deliberately the slow dynamic path).
func (e *Engine) evalRow(expr expression.Expression, row []types.Value, outer []types.Value) (types.Value, error) {
	ec := e.rowContext(row, outer)
	v, err := expression.Evaluate(expr, ec)
	if err != nil {
		return types.NullValue, err
	}
	return v.ValueAt(0), nil
}

func (e *Engine) evalBool(expr expression.Expression, row []types.Value, outer []types.Value) (bool, error) {
	ec := e.rowContext(row, outer)
	keep, err := expression.EvaluateBool(expr, ec)
	if err != nil {
		return false, err
	}
	return keep[0], nil
}

func (e *Engine) rowContext(row []types.Value, outer []types.Value) *expression.Context {
	ec := &expression.Context{
		N:     1,
		Outer: outer,
		Column: func(i int) (*expression.Vector, error) {
			if i >= len(row) {
				return nil, fmt.Errorf("rowengine: column %d out of range", i)
			}
			return expression.ConstVector(row[i], 1), nil
		},
	}
	ec.ExecScalarSubquery = func(sub *expression.Subquery, ps []types.Value) (types.Value, error) {
		rows, err := e.subRows(sub, ps)
		switch {
		case err != nil:
			return types.NullValue, err
		case len(rows) > 1:
			return types.NullValue, fmt.Errorf("rowengine: scalar subquery returned %d rows", len(rows))
		case len(rows) == 1:
			return rows[0][0], nil
		}
		return types.NullValue, nil
	}
	// x IN (subquery) is x = s1 OR x = s2 OR … over the subquery's rows:
	// one `=` per row, no set, and FALSE over no rows.
	ec.ExecInSubquery = func(x *expression.In, ps []types.Value, probe *expression.Vector) (*expression.Vector, error) {
		rows, err := e.subRows(x.Subquery, ps)
		if err != nil {
			return nil, err
		}
		eq := &expression.Comparison{
			Op:    expression.Eq,
			Left:  &expression.BoundColumn{Index: 0, DT: probe.DT},
			Right: &expression.BoundColumn{Index: 1, DT: x.Subquery.DT},
		}
		out := expression.NewBoolVector(make([]bool, probe.N), make([]bool, probe.N))
		for i := range out.B {
			for _, r := range rows {
				v, err := e.evalRow(eq, []types.Value{probe.ValueAt(i), r[0]}, nil)
				if err != nil {
					return nil, err
				}
				if v.IsNull() {
					out.Nulls[i] = true
				} else if v.AsBool() {
					out.B[i], out.Nulls[i] = true, false
					break
				}
			}
		}
		return out, nil
	}
	ec.ExecExistsSubquery = func(sub *expression.Subquery, ps []types.Value) (bool, error) {
		rows, err := e.subRows(sub, ps)
		return len(rows) > 0, err
	}
	return ec
}

// subRows runs a subquery's plan for one tuple of correlated values, once per
// statement.
func (e *Engine) subRows(sub *expression.Subquery, ps []types.Value) ([][]types.Value, error) {
	key := fmt.Sprintf("%p:%s", sub, expression.OuterKey(ps))
	if rows, ok := e.subCache[key]; ok {
		return rows, nil
	}
	plan, ok := sub.Plan.(lqp.Node)
	if !ok {
		return nil, fmt.Errorf("rowengine: subquery plan is %T", sub.Plan)
	}
	rows, err := e.exec(plan, ps)
	if err == nil {
		e.subCache[key] = rows
	}
	return rows, err
}
