package lqp

import (
	"fmt"
	"strings"

	"hyrise/internal/expression"
	"hyrise/internal/storage"
)

// Node is one vertex of the logical query plan DAG.
type Node interface {
	// Inputs returns the child nodes (0, 1, or 2).
	Inputs() []Node
	// SetInput replaces child i (used by optimizer rewrites).
	SetInput(i int, n Node)
	// Schema returns the node's output columns.
	Schema() Schema
	// String renders the node for plan visualization.
	String() string
}

// JoinKind enumerates logical join types.
type JoinKind uint8

// Join kinds. Semi and Anti joins are produced by the subquery-to-join
// rewrite rule; their output schema is the left input only.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinCross
	JoinSemi
	JoinAnti
	JoinRight
	JoinFull
)

// String names the join kind.
func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "Inner"
	case JoinLeft:
		return "Left"
	case JoinCross:
		return "Cross"
	case JoinSemi:
		return "Semi"
	case JoinAnti:
		return "Anti"
	case JoinRight:
		return "Right"
	case JoinFull:
		return "Full"
	default:
		return "?"
	}
}

// --- leaf nodes ------------------------------------------------------------

// StoredTableNode reads a stored table.
type StoredTableNode struct {
	TableName string
	Alias     string
	Table     *storage.Table
	schema    Schema
}

// NewStoredTableNode builds the leaf for a stored table.
func NewStoredTableNode(t *storage.Table, alias string) *StoredTableNode {
	qualifier := alias
	if qualifier == "" {
		qualifier = t.Name()
	}
	defs := t.ColumnDefinitions()
	schema := make(Schema, len(defs))
	for i, d := range defs {
		schema[i] = Column{Qualifier: strings.ToLower(qualifier), Name: strings.ToLower(d.Name), DT: d.Type, Nullable: d.Nullable}
	}
	return &StoredTableNode{TableName: t.Name(), Alias: alias, Table: t, schema: schema}
}

// Inputs implements Node.
func (n *StoredTableNode) Inputs() []Node { return nil }

// SetInput implements Node.
func (n *StoredTableNode) SetInput(int, Node) { panic("lqp: stored table has no inputs") }

// Schema implements Node.
func (n *StoredTableNode) Schema() Schema { return n.schema }

// String implements Node.
func (n *StoredTableNode) String() string {
	s := "StoredTable(" + n.TableName
	if n.Alias != "" && !strings.EqualFold(n.Alias, n.TableName) {
		s += " AS " + n.Alias
	}
	return s + ")"
}

// DummyTableNode produces a single row with no columns (SELECT without
// FROM).
type DummyTableNode struct{}

// Inputs implements Node.
func (n *DummyTableNode) Inputs() []Node { return nil }

// SetInput implements Node.
func (n *DummyTableNode) SetInput(int, Node) { panic("lqp: dummy table has no inputs") }

// Schema implements Node.
func (n *DummyTableNode) Schema() Schema { return nil }

// String implements Node.
func (n *DummyTableNode) String() string { return "DummyTable" }

// --- unary nodes --------------------------------------------------------------

// ValidateNode filters rows by MVCC visibility (paper §2.8). Inserted into
// every plan over MVCC tables unless concurrency control is disabled.
type ValidateNode struct {
	input Node
}

// NewValidateNode wraps a child with MVCC validation.
func NewValidateNode(in Node) *ValidateNode { return &ValidateNode{input: in} }

// Inputs implements Node.
func (n *ValidateNode) Inputs() []Node { return []Node{n.input} }

// SetInput implements Node.
func (n *ValidateNode) SetInput(i int, in Node) { n.input = in }

// Schema implements Node.
func (n *ValidateNode) Schema() Schema { return n.input.Schema() }

// String implements Node.
func (n *ValidateNode) String() string { return "Validate" }

// PredicateNode filters rows by a boolean expression whose BoundColumns
// index the input schema.
type PredicateNode struct {
	Predicate expression.Expression
	input     Node
}

// NewPredicateNode builds a filter.
func NewPredicateNode(in Node, pred expression.Expression) *PredicateNode {
	return &PredicateNode{Predicate: pred, input: in}
}

// Inputs implements Node.
func (n *PredicateNode) Inputs() []Node { return []Node{n.input} }

// SetInput implements Node.
func (n *PredicateNode) SetInput(i int, in Node) { n.input = in }

// Schema implements Node.
func (n *PredicateNode) Schema() Schema { return n.input.Schema() }

// String implements Node.
func (n *PredicateNode) String() string { return "Predicate(" + n.Predicate.String() + ")" }

// ProjectionNode computes expressions over its input. Names are the output
// column names (aliases or canonical renderings).
type ProjectionNode struct {
	Exprs  []expression.Expression
	Names  []string
	input  Node
	schema Schema
}

// NewProjectionNode builds a projection; output types are inferred from the
// input schema.
func NewProjectionNode(in Node, exprs []expression.Expression, names []string) *ProjectionNode {
	n := &ProjectionNode{Exprs: exprs, Names: names, input: in}
	n.recomputeSchema()
	return n
}

func (n *ProjectionNode) recomputeSchema() {
	inSchema := n.input.Schema()
	schema := make(Schema, len(n.Exprs))
	for i, e := range n.Exprs {
		name := n.Names[i]
		dt, _ := expression.InferType(e, inSchema.columnType) // Translate reports the error
		schema[i] = Column{Name: strings.ToLower(name), DT: dt, Nullable: true}
		// Plain column references keep their qualifier so later predicates
		// can still use qualified names.
		if bc, ok := e.(*expression.BoundColumn); ok && bc.Index < len(inSchema) {
			if strings.EqualFold(name, inSchema[bc.Index].Name) {
				schema[i].Qualifier = inSchema[bc.Index].Qualifier
			}
			schema[i].Nullable = inSchema[bc.Index].Nullable
		}
	}
	n.schema = schema
}

// Inputs implements Node.
func (n *ProjectionNode) Inputs() []Node { return []Node{n.input} }

// SetInput implements Node.
func (n *ProjectionNode) SetInput(i int, in Node) {
	n.input = in
	n.recomputeSchema()
}

// Schema implements Node.
func (n *ProjectionNode) Schema() Schema { return n.schema }

// String implements Node.
func (n *ProjectionNode) String() string {
	parts := make([]string, len(n.Exprs))
	for i, e := range n.Exprs {
		parts[i] = e.String()
	}
	return "Projection(" + strings.Join(parts, ", ") + ")"
}

// AggregateNode groups by expressions and computes aggregates. The output
// schema is the group-by columns followed by the aggregate results.
type AggregateNode struct {
	GroupBy    []expression.Expression
	Aggregates []*expression.Aggregate
	// Names holds output names: len(GroupBy)+len(Aggregates) entries.
	Names  []string
	input  Node
	schema Schema
}

// NewAggregateNode builds an aggregation.
func NewAggregateNode(in Node, groupBy []expression.Expression, aggs []*expression.Aggregate, names []string) *AggregateNode {
	n := &AggregateNode{GroupBy: groupBy, Aggregates: aggs, Names: names, input: in}
	n.recomputeSchema()
	return n
}

func (n *AggregateNode) recomputeSchema() {
	inSchema := n.input.Schema()
	schema := make(Schema, 0, len(n.GroupBy)+len(n.Aggregates))
	for i, g := range n.GroupBy {
		dt, _ := expression.InferType(g, inSchema.columnType) // Translate reports the error
		col := Column{Name: strings.ToLower(n.Names[i]), DT: dt}
		if bc, ok := g.(*expression.BoundColumn); ok && bc.Index < len(inSchema) {
			col.Qualifier = inSchema[bc.Index].Qualifier
			col.Nullable = inSchema[bc.Index].Nullable
		}
		schema = append(schema, col)
	}
	for i, a := range n.Aggregates {
		dt, _ := expression.InferType(a, inSchema.columnType)
		schema = append(schema, Column{Name: strings.ToLower(n.Names[len(n.GroupBy)+i]), DT: dt, Nullable: true})
	}
	n.schema = schema
}

// Inputs implements Node.
func (n *AggregateNode) Inputs() []Node { return []Node{n.input} }

// SetInput implements Node.
func (n *AggregateNode) SetInput(i int, in Node) {
	n.input = in
	n.recomputeSchema()
}

// Schema implements Node.
func (n *AggregateNode) Schema() Schema { return n.schema }

// String implements Node.
func (n *AggregateNode) String() string {
	var parts []string
	for _, g := range n.GroupBy {
		parts = append(parts, g.String())
	}
	for _, a := range n.Aggregates {
		parts = append(parts, a.String())
	}
	return "Aggregate(" + strings.Join(parts, ", ") + ")"
}

// SortKey is one ORDER BY key (an expression over the input schema).
type SortKey struct {
	Expr expression.Expression
	Desc bool
}

// SortNode orders its input.
type SortNode struct {
	Keys  []SortKey
	input Node
}

// NewSortNode builds a sort.
func NewSortNode(in Node, keys []SortKey) *SortNode { return &SortNode{Keys: keys, input: in} }

// Inputs implements Node.
func (n *SortNode) Inputs() []Node { return []Node{n.input} }

// SetInput implements Node.
func (n *SortNode) SetInput(i int, in Node) { n.input = in }

// Schema implements Node.
func (n *SortNode) Schema() Schema { return n.input.Schema() }

// String implements Node.
func (n *SortNode) String() string {
	parts := make([]string, len(n.Keys))
	for i, k := range n.Keys {
		parts[i] = k.Expr.String()
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return "Sort(" + strings.Join(parts, ", ") + ")"
}

// LimitNode caps the row count.
type LimitNode struct {
	N     int64
	input Node
}

// NewLimitNode builds a limit.
func NewLimitNode(in Node, n int64) *LimitNode { return &LimitNode{N: n, input: in} }

// Inputs implements Node.
func (n *LimitNode) Inputs() []Node { return []Node{n.input} }

// SetInput implements Node.
func (n *LimitNode) SetInput(i int, in Node) { n.input = in }

// Schema implements Node.
func (n *LimitNode) Schema() Schema { return n.input.Schema() }

// String implements Node.
func (n *LimitNode) String() string { return fmt.Sprintf("Limit(%d)", n.N) }

// AliasNode renames the qualifier of its input's columns (derived tables)
// and optionally the column names.
type AliasNode struct {
	Qualifier string
	input     Node
	schema    Schema
}

// NewAliasNode wraps a derived table under its alias.
func NewAliasNode(in Node, qualifier string) *AliasNode {
	return &AliasNode{Qualifier: strings.ToLower(qualifier), input: in, schema: in.Schema().WithQualifier(strings.ToLower(qualifier))}
}

// Inputs implements Node.
func (n *AliasNode) Inputs() []Node { return []Node{n.input} }

// SetInput implements Node.
func (n *AliasNode) SetInput(i int, in Node) {
	n.input = in
	n.schema = in.Schema().WithQualifier(n.Qualifier)
}

// Schema implements Node.
func (n *AliasNode) Schema() Schema { return n.schema }

// String implements Node.
func (n *AliasNode) String() string { return "Alias(" + n.Qualifier + ")" }

// --- binary nodes ----------------------------------------------------------------

// JoinNode joins two inputs. Predicates are boolean expressions whose
// BoundColumns index the concatenated (left ++ right) schema; the physical
// join picks an equi-predicate as its hash key and evaluates the rest as
// secondary predicates.
type JoinNode struct {
	Kind       JoinKind
	Predicates []expression.Expression
	left       Node
	right      Node
	schema     Schema
}

// NewJoinNode builds a join.
func NewJoinNode(kind JoinKind, left, right Node, preds []expression.Expression) *JoinNode {
	n := &JoinNode{Kind: kind, Predicates: preds, left: left, right: right}
	n.recomputeSchema()
	return n
}

func (n *JoinNode) recomputeSchema() {
	ls := n.left.Schema()
	switch n.Kind {
	case JoinSemi, JoinAnti:
		n.schema = ls
	case JoinLeft, JoinRight, JoinFull:
		rs := n.right.Schema()
		schema := make(Schema, 0, len(ls)+len(rs))
		leftNullable := n.Kind == JoinRight || n.Kind == JoinFull
		rightNullable := n.Kind == JoinLeft || n.Kind == JoinFull
		for _, c := range ls {
			c.Nullable = c.Nullable || leftNullable // outer side may be NULL-extended
			schema = append(schema, c)
		}
		for _, c := range rs {
			c.Nullable = c.Nullable || rightNullable
			schema = append(schema, c)
		}
		n.schema = schema
	default:
		rs := n.right.Schema()
		schema := make(Schema, 0, len(ls)+len(rs))
		schema = append(schema, ls...)
		schema = append(schema, rs...)
		n.schema = schema
	}
}

// Inputs implements Node.
func (n *JoinNode) Inputs() []Node { return []Node{n.left, n.right} }

// SetInput implements Node.
func (n *JoinNode) SetInput(i int, in Node) {
	if i == 0 {
		n.left = in
	} else {
		n.right = in
	}
	n.recomputeSchema()
}

// Schema implements Node.
func (n *JoinNode) Schema() Schema { return n.schema }

// String implements Node.
func (n *JoinNode) String() string {
	var parts []string
	for _, p := range n.Predicates {
		parts = append(parts, p.String())
	}
	return fmt.Sprintf("Join(%s%s%s)", n.Kind, map[bool]string{true: ", ", false: ""}[len(parts) > 0], strings.Join(parts, " AND "))
}

// --- DML nodes --------------------------------------------------------------------

// InsertNode inserts literal rows into a table.
type InsertNode struct {
	TableName string
	Columns   []string // empty = declaration order
	Rows      [][]expression.Expression
	Table     *storage.Table // the target, resolved at translation
}

// Inputs implements Node.
func (n *InsertNode) Inputs() []Node { return nil }

// SetInput implements Node.
func (n *InsertNode) SetInput(int, Node) { panic("lqp: insert has no inputs") }

// Schema implements Node.
func (n *InsertNode) Schema() Schema { return nil }

// String implements Node.
func (n *InsertNode) String() string {
	return fmt.Sprintf("Insert(%s, %d rows)", n.TableName, len(n.Rows))
}

// DeleteNode deletes the rows its child produces. The child must be a plan
// over exactly the target table (reference output).
type DeleteNode struct {
	TableName string
	input     Node
}

// NewDeleteNode builds a delete.
func NewDeleteNode(table string, in Node) *DeleteNode {
	return &DeleteNode{TableName: table, input: in}
}

// Inputs implements Node.
func (n *DeleteNode) Inputs() []Node { return []Node{n.input} }

// SetInput implements Node.
func (n *DeleteNode) SetInput(i int, in Node) { n.input = in }

// Schema implements Node.
func (n *DeleteNode) Schema() Schema { return nil }

// String implements Node.
func (n *DeleteNode) String() string { return "Delete(" + n.TableName + ")" }

// UpdateNode updates the rows its child produces (implemented as
// invalidate + reinsert, paper §2.8).
type UpdateNode struct {
	TableName string
	// SetColumns[i] receives SetExprs[i], evaluated over the child's rows.
	SetColumns []string
	SetExprs   []expression.Expression
	input      Node
}

// NewUpdateNode builds an update.
func NewUpdateNode(table string, cols []string, exprs []expression.Expression, in Node) *UpdateNode {
	return &UpdateNode{TableName: table, SetColumns: cols, SetExprs: exprs, input: in}
}

// Inputs implements Node.
func (n *UpdateNode) Inputs() []Node { return []Node{n.input} }

// SetInput implements Node.
func (n *UpdateNode) SetInput(i int, in Node) { n.input = in }

// Schema implements Node.
func (n *UpdateNode) Schema() Schema { return nil }

// String implements Node.
func (n *UpdateNode) String() string { return "Update(" + n.TableName + ")" }

// --- plan utilities -----------------------------------------------------------------

// VisitPlan walks the plan depth-first (inputs before node).
func VisitPlan(root Node, f func(Node)) {
	if root == nil {
		return
	}
	for _, in := range root.Inputs() {
		VisitPlan(in, f)
	}
	f(root)
}

// VisitExpressions calls f with every expression a node of the plan holds
// (each tree's root; the plans of subqueries inside are not entered).
func VisitExpressions(root Node, f func(expression.Expression)) {
	VisitPlan(root, func(n Node) {
		switch node := n.(type) {
		case *PredicateNode:
			f(node.Predicate)
		case *ProjectionNode:
			for _, e := range node.Exprs {
				f(e)
			}
		case *JoinNode:
			for _, e := range node.Predicates {
				f(e)
			}
		case *AggregateNode:
			for _, e := range node.GroupBy {
				f(e)
			}
			for _, a := range node.Aggregates {
				f(a)
			}
		case *SortNode:
			for _, k := range node.Keys {
				f(k.Expr)
			}
		case *UpdateNode:
			for _, e := range node.SetExprs {
				f(e)
			}
		case *InsertNode:
			for _, row := range node.Rows {
				for _, e := range row {
					f(e)
				}
			}
		}
	})
}

// PlanString renders a plan tree indented, roots first, for the console's
// visualize command (paper §2.6: "all intermediary artifacts can be
// inspected ... in their text or graph forms").
func PlanString(root Node) string {
	var sb strings.Builder
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.String())
		sb.WriteByte('\n')
		for _, in := range n.Inputs() {
			walk(in, depth+1)
		}
	}
	walk(root, 0)
	return sb.String()
}
