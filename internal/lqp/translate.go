package lqp

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"hyrise/internal/expression"
	"hyrise/internal/sqlparser"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Translator turns parsed SQL statements into logical query plans
// (paper §2.6, "SQL-to-LQP Translation"). Subselects are translated into
// sub-LQPs attached to the expression that uses them; correlated columns
// become OuterRefs bound per outer row, exactly as the paper describes
// ("for correlated subselects, the query plan contains placeholders that
// are replaced with the correlated attributes during the execution").
// Statement placeholders stay Parameters; ParamTypes types them from the
// plan.
type Translator struct {
	SM *storage.StorageManager
	// UseMvcc inserts Validate nodes above stored tables; when false (MVCC
	// disabled), plans read tables raw (paper §2: "validation operators are
	// not inserted into the query plan").
	UseMvcc bool
}

// The errors of the assignment rule (expression.Assignable) and the column
// lists it pairs values with, by SQLSTATE; the texts are PostgreSQL's.
var (
	ErrAssignmentMismatch  = errors.New("but expression is of type")           // 42804
	ErrDuplicateColumn     = errors.New("specified more than once")            // 42701
	ErrInsertArity         = errors.New("INSERT has more")                     // 42601
	ErrMultipleAssignments = errors.New("multiple assignments to same column") // 42601
)

// Translate converts one statement into an LQP whose expressions, subquery
// plans included, keep the type rule. DDL statements (CREATE/DROP) are
// handled directly by the SQL pipeline, not here.
func (t *Translator) Translate(stmt sqlparser.Statement) (Node, error) {
	switch s := stmt.(type) {
	case *sqlparser.SelectStatement:
		sc := &scope{tr: t}
		return t.translateSelect(s, sc)
	case *sqlparser.InsertStatement:
		// The column list is resolved once and each value checked against its
		// column; the rows come out in table order, nil where no value is given.
		tab, err := t.SM.GetTable(s.Table)
		if err != nil {
			return nil, err
		}
		schema := NewStoredTableNode(tab, "").Schema()
		names := s.Columns
		if len(names) == 0 {
			names = schema.Names()
		}
		targets := make([]int, len(names)) // statement position -> column
		for i, name := range names {
			id, err := schema.Resolve("", name)
			if err != nil {
				return nil, err
			}
			if slices.Contains(targets[:i], id) {
				return nil, fmt.Errorf("lqp: column %q %w", schema[id].Name, ErrDuplicateColumn)
			}
			targets[i] = id
		}
		rows := make([][]expression.Expression, len(s.Rows))
		for r, values := range s.Rows {
			if len(values) != len(targets) {
				more := map[bool]string{true: "expressions than target columns", false: "target columns than expressions"}
				return nil, fmt.Errorf("lqp: %w %s", ErrInsertArity, more[len(values) > len(targets)])
			}
			rows[r] = make([]expression.Expression, len(schema))
			for i, e := range values {
				if err := checkType(e, &schema[targets[i]]); err != nil {
					return nil, err
				}
				rows[r][targets[i]] = e
			}
		}
		return &InsertNode{Rows: rows, Table: tab}, nil
	case *sqlparser.DeleteStatement:
		child, _, err := t.dmlSourcePlan(s.Table, s.Where)
		if err != nil {
			return nil, err
		}
		return NewDeleteNode(s.Table, child), nil
	case *sqlparser.UpdateStatement:
		child, sc, err := t.dmlSourcePlan(s.Table, s.Where)
		if err != nil {
			return nil, err
		}
		schema := child.Schema()
		cols := make([]int, len(s.Set))
		exprs := make([]expression.Expression, len(s.Set))
		for i, c := range s.Set {
			id, err := schema.Resolve("", c.Column)
			if err != nil {
				return nil, err
			}
			if slices.Contains(cols[:i], id) {
				return nil, fmt.Errorf("lqp: %w %q", ErrMultipleAssignments, schema[id].Name)
			}
			bound, err := sc.bind(c.Expr)
			if err == nil {
				err = checkType(bound, &schema[id])
			}
			if err != nil {
				return nil, err
			}
			cols[i], exprs[i] = id, bound
		}
		return NewUpdateNode(s.Table, cols, exprs, child), nil
	default:
		return nil, fmt.Errorf("lqp: cannot translate %T", stmt)
	}
}

// dmlSourcePlan builds the row-source plan for UPDATE/DELETE: the target
// table, validated, filtered by WHERE.
func (t *Translator) dmlSourcePlan(table string, where expression.Expression) (Node, *scope, error) {
	tab, err := t.SM.GetTable(table)
	if err != nil {
		return nil, nil, err
	}
	if !tab.UsesMvcc() || !t.UseMvcc {
		return nil, nil, fmt.Errorf("lqp: table %q is read-only (MVCC disabled)", table)
	}
	var node Node = NewStoredTableNode(tab, "")
	node = NewValidateNode(node)
	sc := &scope{tr: t, node: node}
	if where != nil {
		bound, err := sc.bind(where)
		if err != nil {
			return nil, nil, err
		}
		node = NewPredicateNode(node, bound)
		sc.node = node
	}
	return node, sc, nil
}

// scope tracks the current plan node whose schema resolves column names,
// plus the chain of outer scopes for correlated subqueries.
type scope struct {
	tr    *Translator
	node  Node
	outer *scope
	// sub is the subquery expression being translated in this scope; outer
	// resolutions register correlated columns on it.
	sub *expression.Subquery
	// corrByKey dedupes correlated columns by outer expression identity.
	corrByKey map[string]int
}

// resolve maps a column name to an expression valid in this scope. Names
// not found locally are resolved in outer scopes and become OuterRefs of
// the subquery.
func (s *scope) resolve(qualifier, name string) (expression.Expression, error) {
	if s.node != nil {
		schema := s.node.Schema()
		idx, err := schema.Resolve(qualifier, name)
		if err == nil {
			c := schema[idx]
			return &expression.BoundColumn{Index: idx, Name: displayName(c.Qualifier, c.Name), DT: c.DT}, nil
		}
		if errors.Is(err, ErrColumnAmbiguous) {
			return nil, err
		}
	}
	if s.outer != nil && s.sub != nil {
		outerExpr, err := s.outer.resolve(qualifier, name)
		if err != nil {
			return nil, err
		}
		key := outerExpr.String()
		if s.corrByKey == nil {
			s.corrByKey = make(map[string]int)
		}
		dt, _ := expression.InferType(outerExpr, nil)
		if id, ok := s.corrByKey[key]; ok {
			return &expression.OuterRef{ID: id, DT: dt}, nil
		}
		id := len(s.sub.Correlated)
		s.sub.Correlated = append(s.sub.Correlated, outerExpr)
		s.corrByKey[key] = id
		return &expression.OuterRef{ID: id, DT: dt}, nil
	}
	return nil, fmt.Errorf("lqp: column %q: %w", displayName(qualifier, name), ErrColumnNotFound)
}

// bind resolves every ColumnRef in the expression against the scope,
// translates nested subquery ASTs into sub-LQPs and applies the type rule to
// the result: every expression of a plan is bound here.
func (s *scope) bind(e expression.Expression) (expression.Expression, error) {
	bound, err := expression.TransformErr(e, func(x expression.Expression) (expression.Expression, error) {
		switch n := x.(type) {
		case *expression.ColumnRef:
			return s.resolve(n.Qualifier, n.Name)
		case *expression.Subquery:
			if _, done := n.Plan.(Node); done {
				return nil, nil // already translated
			}
			ast, ok := n.Plan.(*sqlparser.SelectStatement)
			if !ok {
				return nil, fmt.Errorf("lqp: subquery %d holds %T", n.ID, n.Plan)
			}
			// A fresh node carries the plan and collects the correlated
			// expressions: the AST — a cached statement's, say — stays as
			// parsed and can be translated again.
			sub := &expression.Subquery{ID: n.ID}
			subScope := &scope{tr: s.tr, outer: s, sub: sub}
			plan, err := s.tr.translateSelect(ast, subScope)
			if err != nil {
				return nil, err
			}
			sub.Plan, sub.DT = plan, plan.Schema().columnType(0)
			return sub, nil
		default:
			return nil, nil
		}
	})
	if err == nil {
		err = checkType(bound, nil)
	}
	return bound, err
}

// checkType applies the type rule (expression.InferType) to e and, to a
// value written to column to, the assignment rule (expression.Assignable).
func checkType(e expression.Expression, to *Column) error {
	switch dt, err := expression.InferType(e, nil); {
	case err != nil:
		return fmt.Errorf("lqp: %w", err)
	case to != nil && !expression.Assignable(dt, to.DT):
		return fmt.Errorf("lqp: column %q is of type %s %w %s", to.Name, to.DT, ErrAssignmentMismatch, dt)
	}
	return nil
}

// translateSelect builds the plan for a SELECT. sc must be a fresh scope
// whose node is nil (its outer chain provides correlation).
func (t *Translator) translateSelect(stmt *sqlparser.SelectStatement, sc *scope) (Node, error) {
	// FROM.
	var node Node
	if len(stmt.From) == 0 {
		node = &DummyTableNode{}
	} else {
		for _, ref := range stmt.From {
			n, err := t.translateTableRef(ref, sc)
			if err != nil {
				return nil, err
			}
			if node == nil {
				node = n
			} else {
				node = NewJoinNode(JoinCross, node, n, nil)
			}
		}
	}
	sc.node = node

	// WHERE.
	if stmt.Where != nil {
		pred, err := sc.bind(stmt.Where)
		if err != nil {
			return nil, err
		}
		node = NewPredicateNode(node, pred)
		sc.node = node
	}

	// Select items: expand stars, bind expressions against the FROM/WHERE
	// schema (aggregate arguments bind here too).
	type item struct {
		expr expression.Expression
		name string
	}
	var items []item
	inSchema := node.Schema()
	for _, it := range stmt.Items {
		if it.Star {
			for i, c := range inSchema {
				if it.Qualifier != "" && !strings.EqualFold(c.Qualifier, it.Qualifier) {
					continue
				}
				items = append(items, item{
					expr: &expression.BoundColumn{Index: i, Name: displayName(c.Qualifier, c.Name), DT: c.DT},
					name: c.Name,
				})
			}
			continue
		}
		bound, err := sc.bind(it.Expr)
		if err != nil {
			return nil, err
		}
		name := it.Alias
		if name == "" {
			if ref, ok := it.Expr.(*expression.ColumnRef); ok {
				name = ref.Name
			} else {
				name = bound.String()
			}
		}
		items = append(items, item{expr: bound, name: strings.ToLower(name)})
	}

	// HAVING binds against the same schema (its aggregates join the
	// aggregation node).
	var having expression.Expression
	if stmt.Having != nil {
		bound, err := sc.bind(stmt.Having)
		if err != nil {
			return nil, err
		}
		having = bound
	}

	// GROUP BY / aggregation.
	hasAggs := having != nil && expression.Contains[*expression.Aggregate](having)
	for _, it := range items {
		if expression.Contains[*expression.Aggregate](it.expr) {
			hasAggs = true
		}
	}
	if len(stmt.GroupBy) > 0 || hasAggs {
		var groupBy []expression.Expression
		var groupNames []string
		for _, g := range stmt.GroupBy {
			bound, err := sc.bind(g)
			if err != nil {
				return nil, err
			}
			groupBy = append(groupBy, bound)
			name := bound.String()
			if bc, ok := bound.(*expression.BoundColumn); ok && bc.Index < len(inSchema) {
				name = inSchema[bc.Index].Name
			}
			groupNames = append(groupNames, name)
		}

		// Collect distinct aggregates from items and HAVING.
		var aggs []*expression.Aggregate
		aggIndex := map[string]int{}
		collect := func(e expression.Expression) {
			expression.VisitAll(e, func(x expression.Expression) {
				if a, ok := x.(*expression.Aggregate); ok {
					if _, seen := aggIndex[a.String()]; !seen {
						aggIndex[a.String()] = len(aggs)
						aggs = append(aggs, a)
					}
				}
			})
		}
		for _, it := range items {
			collect(it.expr)
		}
		if having != nil {
			collect(having)
		}
		names := append([]string{}, groupNames...)
		for _, a := range aggs {
			names = append(names, a.String())
		}
		aggNode := NewAggregateNode(node, groupBy, aggs, names)

		// Rewrite items and HAVING over the aggregate's output schema.
		// Pre-order so whole aggregates and whole group-by expressions are
		// replaced before their arguments would be touched; the `produced`
		// set then distinguishes legal rewritten columns from references to
		// non-grouped input columns.
		rewrite := func(e expression.Expression) (expression.Expression, error) {
			produced := map[*expression.BoundColumn]bool{}
			mk := func(idx int) *expression.BoundColumn {
				bc := &expression.BoundColumn{Index: idx, Name: names[idx], DT: aggNode.Schema()[idx].DT}
				produced[bc] = true
				return bc
			}
			out := expression.TransformTopDown(e, func(x expression.Expression) expression.Expression {
				if a, ok := x.(*expression.Aggregate); ok {
					return mk(aggIndex[a.String()] + len(groupBy))
				}
				key := x.String()
				for i, g := range groupBy {
					if g.String() == key {
						return mk(i)
					}
				}
				return nil
			})
			var bad error
			expression.VisitAll(out, func(x expression.Expression) {
				if bad != nil {
					return
				}
				if bc, ok := x.(*expression.BoundColumn); ok && !produced[bc] {
					bad = fmt.Errorf("lqp: column %s must appear in GROUP BY or an aggregate", bc)
				}
			})
			if bad != nil {
				return nil, bad
			}
			return out, nil
		}
		for i := range items {
			rewritten, err := rewrite(items[i].expr)
			if err != nil {
				return nil, err
			}
			items[i].expr = rewritten
		}
		node = aggNode
		sc.node = node
		if having != nil {
			rewritten, err := rewrite(having)
			if err != nil {
				return nil, err
			}
			node = NewPredicateNode(node, rewritten)
			sc.node = node
		}
	}

	// Projection.
	exprs := make([]expression.Expression, len(items))
	projNames := make([]string, len(items))
	for i, it := range items {
		exprs[i] = it.expr
		projNames[i] = it.name
	}
	proj := NewProjectionNode(node, exprs, projNames)
	node = proj
	sc.node = node

	// DISTINCT: group by all output columns.
	if stmt.Distinct {
		groupBy := make([]expression.Expression, len(proj.Schema()))
		names := make([]string, len(proj.Schema()))
		for i, c := range proj.Schema() {
			groupBy[i] = &expression.BoundColumn{Index: i, Name: c.Name, DT: c.DT}
			names[i] = c.Name
		}
		node = NewAggregateNode(node, groupBy, nil, names)
		sc.node = node
	}

	// ORDER BY: resolve against the projection output (aliases first); keys
	// not expressible there become hidden projection columns.
	if len(stmt.OrderBy) > 0 {
		keys, hidden, err := t.bindOrderKeys(stmt, proj, sc)
		if err != nil {
			return nil, err
		}
		if hidden != nil && stmt.Distinct {
			// The hidden column would change the distinct groups.
			return nil, fmt.Errorf("lqp: for SELECT DISTINCT, ORDER BY expressions must appear in the select list")
		}
		if hidden != nil {
			node = hidden
			sc.node = node
		}
		node = NewSortNode(node, keys)
		sc.node = node
		if hidden != nil {
			// Drop the hidden sort columns again.
			visible := len(proj.Exprs)
			exprs := make([]expression.Expression, visible)
			names := make([]string, visible)
			for i := 0; i < visible; i++ {
				c := hidden.Schema()[i]
				exprs[i] = &expression.BoundColumn{Index: i, Name: c.Name, DT: c.DT}
				names[i] = c.Name
			}
			node = NewProjectionNode(node, exprs, names)
			sc.node = node
		}
	}

	if stmt.Limit >= 0 {
		node = NewLimitNode(node, stmt.Limit)
		sc.node = node
	}
	return node, nil
}

// bindOrderKeys resolves ORDER BY expressions. Returns the sort keys (bound
// against the sort input) and, if extra columns were needed, a replacement
// projection carrying them.
func (t *Translator) bindOrderKeys(stmt *sqlparser.SelectStatement, proj *ProjectionNode, sc *scope) ([]SortKey, *ProjectionNode, error) {
	schema := proj.Schema()
	var keys []SortKey
	var extraExprs []expression.Expression
	var extraNames []string

	inputScope := &scope{tr: t, node: proj.Inputs()[0], outer: sc.outer, sub: sc.sub, corrByKey: sc.corrByKey}

	for _, ob := range stmt.OrderBy {
		// Aliases and output columns first.
		if ref, ok := ob.Expr.(*expression.ColumnRef); ok {
			if idx, err := schema.Resolve(ref.Qualifier, ref.Name); err == nil {
				keys = append(keys, SortKey{Expr: &expression.BoundColumn{Index: idx, Name: schema[idx].Name, DT: schema[idx].DT}, Desc: ob.Desc})
				continue
			}
		}
		// General expression: bind against the projection input and match it
		// to an existing output expression.
		bound, err := inputScope.bind(ob.Expr)
		if err != nil {
			return nil, nil, err
		}
		matched := false
		for i, e := range proj.Exprs {
			if e.String() == bound.String() {
				keys = append(keys, SortKey{Expr: &expression.BoundColumn{Index: i, Name: schema[i].Name, DT: schema[i].DT}, Desc: ob.Desc})
				matched = true
				break
			}
		}
		if matched {
			continue
		}
		// Hidden sort column.
		idx := len(proj.Exprs) + len(extraExprs)
		extraExprs = append(extraExprs, bound)
		extraNames = append(extraNames, fmt.Sprintf("__sort_%d", len(extraExprs)))
		dt, _ := expression.InferType(bound, nil)
		keys = append(keys, SortKey{Expr: &expression.BoundColumn{Index: idx, Name: extraNames[len(extraNames)-1], DT: dt}, Desc: ob.Desc})
	}

	if len(extraExprs) == 0 {
		return keys, nil, nil
	}
	allExprs := append(append([]expression.Expression{}, proj.Exprs...), extraExprs...)
	allNames := append(append([]string{}, proj.Names...), extraNames...)
	hidden := NewProjectionNode(proj.Inputs()[0], allExprs, allNames)
	return keys, hidden, nil
}

// translateTableRef builds the plan for one FROM entry.
func (t *Translator) translateTableRef(ref sqlparser.TableRef, sc *scope) (Node, error) {
	switch {
	case ref.Join != nil:
		left, err := t.translateTableRef(ref.Join.Left, sc)
		if err != nil {
			return nil, err
		}
		right, err := t.translateTableRef(ref.Join.Right, sc)
		if err != nil {
			return nil, err
		}
		var kind JoinKind
		switch ref.Join.Kind {
		case sqlparser.JoinInner:
			kind = JoinInner
		case sqlparser.JoinLeft:
			kind = JoinLeft
		case sqlparser.JoinRight:
			kind = JoinRight
		case sqlparser.JoinFull:
			kind = JoinFull
		default:
			kind = JoinCross
		}
		var preds []expression.Expression
		if ref.Join.On != nil {
			// The ON clause binds against the concatenated schema.
			joinScope := &scope{tr: t, node: NewJoinNode(JoinCross, left, right, nil), outer: sc.outer, sub: sc.sub, corrByKey: sc.corrByKey}
			bound, err := joinScope.bind(ref.Join.On)
			if err != nil {
				return nil, err
			}
			preds = expression.SplitConjunction(bound)
		}
		return NewJoinNode(kind, left, right, preds), nil

	case ref.Subquery != nil:
		subScope := &scope{tr: t, outer: sc.outer, sub: sc.sub, corrByKey: sc.corrByKey}
		plan, err := t.translateSelect(ref.Subquery, subScope)
		if err != nil {
			return nil, err
		}
		return NewAliasNode(plan, ref.Alias), nil

	default:
		// View?
		if sql, ok := t.SM.GetView(ref.Name); ok {
			stmt, err := sqlparser.ParseOne(sql)
			if err != nil {
				return nil, fmt.Errorf("lqp: view %q: %w", ref.Name, err)
			}
			sel, ok := stmt.(*sqlparser.SelectStatement)
			if !ok {
				return nil, fmt.Errorf("lqp: view %q is not a SELECT", ref.Name)
			}
			viewScope := &scope{tr: t}
			plan, err := t.translateSelect(sel, viewScope)
			if err != nil {
				return nil, err
			}
			alias := ref.Alias
			if alias == "" {
				alias = ref.Name
			}
			return NewAliasNode(plan, alias), nil
		}
		tab, err := t.SM.GetTable(ref.Name)
		if err != nil {
			return nil, err
		}
		var node Node = NewStoredTableNode(tab, ref.Alias)
		if t.UseMvcc && tab.UsesMvcc() {
			node = NewValidateNode(node)
		}
		return node, nil
	}
}

// ParamTypes types the n placeholder slots of a translated statement from
// its plan, subquery plans included: an INSERT value or UPDATE SET slot takes
// its target column's type, a slot compared with, tested against (BETWEEN,
// IN, LIKE) or computed with an operand takes that operand's type, and a
// CASE branch the type of the other branches. The first typed use wins; a
// slot nothing types stays TypeNull.
func ParamTypes(root Node, n int) []types.DataType {
	out := make([]types.DataType, n)
	assign := func(e expression.Expression, dt types.DataType) {
		if p, ok := e.(*expression.Parameter); ok && p.ID < n && out[p.ID] == types.TypeNull {
			out[p.ID] = dt
		}
	}
	pair := func(a, b expression.Expression) {
		adt, _ := expression.InferType(a, nil)
		bdt, _ := expression.InferType(b, nil)
		assign(a, bdt)
		assign(b, adt)
	}
	switch node := root.(type) {
	case *InsertNode:
		defs := node.Table.ColumnDefinitions()
		for _, row := range node.Rows {
			for i, e := range row {
				assign(e, defs[i].Type)
			}
		}
	case *UpdateNode:
		schema := node.Inputs()[0].Schema()
		for i, e := range node.SetExprs {
			assign(e, schema[node.SetColumns[i]].DT)
		}
	}
	var walk func(Node)
	walk = func(plan Node) {
		VisitExpressions(plan, func(e expression.Expression) {
			expression.VisitAll(e, func(x expression.Expression) {
				switch x := x.(type) {
				case *expression.Arithmetic:
					pair(x.Left, x.Right)
				case *expression.Case:
					dt, _ := expression.InferType(x, nil)
					for _, w := range x.Whens {
						assign(w.Then, dt)
					}
					assign(x.Else, dt)
				case *expression.Subquery:
					if plan, ok := x.Plan.(Node); ok {
						walk(plan)
					}
				}
				_ = expression.ComparedOperands(x, func(_ expression.ComparisonOp, a, b expression.Expression) error {
					pair(a, b)
					return nil
				})
			})
		})
	}
	walk(root)
	return out
}
