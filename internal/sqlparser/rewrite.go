package sqlparser

import (
	"slices"

	"hyrise/internal/expression"
)

// Rewrite is the one traversal of a statement AST. It returns a copy of stmt
// in which every expression node — of select items, FROM (join conditions,
// derived tables), WHERE, GROUP BY, HAVING, ORDER BY, INSERT rows and UPDATE
// SET clauses, and of the not yet translated SELECT inside every subquery
// expression — is replaced by expr(node) where that is non-nil; children are
// rewritten before their parent. table sees every named table reference, the
// target of a DML statement included, FROM before the clauses that refer to
// it. Either callback may be nil.
//
// stmt itself is never modified and shares no subquery node with the result,
// so a cached AST can be rewritten, or merely inspected with callbacks that
// replace nothing, any number of times. Statements without expressions (DDL,
// transaction control) are returned as they are.
func Rewrite(stmt Statement, table func(name, alias string), expr func(expression.Expression) expression.Expression) Statement {
	r := rewriter{table: table, expr: expr}
	switch s := stmt.(type) {
	case *SelectStatement:
		return r.selectStmt(s)
	case *InsertStatement:
		r.tableName(s.Table, "")
		c := *s
		c.Rows = slices.Clone(s.Rows)
		for i := range c.Rows {
			c.Rows[i] = r.expressions(c.Rows[i])
		}
		return &c
	case *UpdateStatement:
		r.tableName(s.Table, "")
		c := *s
		c.Set = slices.Clone(s.Set)
		for i := range c.Set {
			c.Set[i].Expr = r.expression(c.Set[i].Expr)
		}
		c.Where = r.expression(s.Where)
		return &c
	case *DeleteStatement:
		r.tableName(s.Table, "")
		c := *s
		c.Where = r.expression(s.Where)
		return &c
	}
	return stmt
}

type rewriter struct {
	table func(name, alias string)
	expr  func(expression.Expression) expression.Expression
}

func (r *rewriter) tableName(name, alias string) {
	if r.table != nil {
		r.table(name, alias)
	}
}

func (r *rewriter) selectStmt(s *SelectStatement) *SelectStatement {
	c := *s
	c.From = slices.Clone(s.From)
	for i := range c.From {
		c.From[i] = r.tableRef(c.From[i])
	}
	c.Items = slices.Clone(s.Items)
	for i := range c.Items {
		c.Items[i].Expr = r.expression(c.Items[i].Expr)
	}
	c.Where = r.expression(s.Where)
	c.GroupBy = r.expressions(s.GroupBy)
	c.Having = r.expression(s.Having)
	c.OrderBy = slices.Clone(s.OrderBy)
	for i := range c.OrderBy {
		c.OrderBy[i].Expr = r.expression(c.OrderBy[i].Expr)
	}
	return &c
}

func (r *rewriter) tableRef(ref TableRef) TableRef {
	switch {
	case ref.Join != nil:
		j := *ref.Join
		j.Left, j.Right, j.On = r.tableRef(j.Left), r.tableRef(j.Right), r.expression(j.On)
		ref.Join = &j
	case ref.Subquery != nil:
		ref.Subquery = r.selectStmt(ref.Subquery)
	case ref.Name != "":
		r.tableName(ref.Name, ref.Alias)
	}
	return ref
}

func (r *rewriter) expressions(list []expression.Expression) []expression.Expression {
	out := slices.Clone(list)
	for i := range out {
		out[i] = r.expression(out[i])
	}
	return out
}

func (r *rewriter) expression(e expression.Expression) expression.Expression {
	return expression.Transform(e, func(x expression.Expression) expression.Expression {
		var replaced expression.Expression
		if sq, ok := x.(*expression.Subquery); ok {
			if ast, ok := sq.Plan.(*SelectStatement); ok {
				// A fresh node around the rewritten SELECT: translation stores
				// its plan into Subquery nodes, so the copy must not share them.
				x = &expression.Subquery{Plan: r.selectStmt(ast), Correlated: sq.Correlated, ID: sq.ID}
				replaced = x
			}
		}
		if r.expr != nil {
			if out := r.expr(x); out != nil {
				return out
			}
		}
		return replaced
	})
}
