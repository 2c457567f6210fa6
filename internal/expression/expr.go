// Package expression implements Hyrise's expression system: the typed
// expression trees that predicates, projections, aggregates, and join
// conditions are made of, plus a vectorized evaluator that processes one
// chunk at a time (paper §2.6 — the Projection node "is our workhorse for
// most non-trivial column operations", including subselect execution).
package expression

import (
	"fmt"
	"strings"

	"hyrise/internal/types"
)

// Expression is a node of an expression tree. Implementations are
// immutable after construction except for binding/resolution fields set
// during translation.
type Expression interface {
	// String returns the canonical SQL-ish rendering; it doubles as the
	// structural identity for optimizer comparisons and cache keys.
	String() string
	// Children returns the direct sub-expressions.
	Children() []Expression
}

// --- column references ---------------------------------------------------

// ColumnRef names a column, optionally qualified ("l.l_quantity"). It is
// produced by the parser and resolved to a BoundColumn during LQP-to-PQP
// translation.
type ColumnRef struct {
	Qualifier string // table name or alias, may be empty
	Name      string
}

// String implements Expression.
func (c *ColumnRef) String() string {
	if c.Qualifier != "" {
		return c.Qualifier + "." + c.Name
	}
	return c.Name
}

// Children implements Expression.
func (c *ColumnRef) Children() []Expression { return nil }

// BoundColumn is a column reference resolved to an index in the input
// table of the operator evaluating the expression.
type BoundColumn struct {
	Index int
	Name  string // for display
	DT    types.DataType
}

// String implements Expression.
func (c *BoundColumn) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("#%d", c.Index)
}

// Children implements Expression.
func (c *BoundColumn) Children() []Expression { return nil }

// --- literals and parameters ----------------------------------------------

// Literal is a constant value.
type Literal struct {
	Value types.Value
}

// NewLiteral wraps a value.
func NewLiteral(v types.Value) *Literal { return &Literal{Value: v} }

// String implements Expression.
func (l *Literal) String() string {
	if l.Value.Type == types.TypeString {
		return "'" + strings.ReplaceAll(l.Value.S, "'", "''") + "'"
	}
	return l.Value.String()
}

// Children implements Expression.
func (l *Literal) Children() []Expression { return nil }

// Parameter is a statement placeholder ($n or ?): ID is its 0-based slot,
// read from Context.Params, and DT the slot's type. The binder gives every
// use of a slot one node and types it by the type rule (TypeSlots); a slot
// nothing types is VARCHAR. It prints as ?n with the 1-based slot number, so
// that it never reads like an OuterRef.
type Parameter struct {
	ID int
	DT types.DataType
}

// String implements Expression.
func (p *Parameter) String() string { return fmt.Sprintf("?%d", p.ID+1) }

// Children implements Expression.
func (p *Parameter) Children() []Expression { return nil }

// OuterRef is a correlated column inside a subquery plan: ID indexes the
// enclosing Subquery's Correlated list, and its value for the outer row
// being evaluated is read from Context.Outer. DT is the outer column's type.
type OuterRef struct {
	ID int
	DT types.DataType
}

// String implements Expression.
func (o *OuterRef) String() string { return fmt.Sprintf("$%d", o.ID) }

// Children implements Expression.
func (o *OuterRef) Children() []Expression { return nil }

// --- operators --------------------------------------------------------------

// ComparisonOp enumerates comparison operators.
type ComparisonOp uint8

// Comparison operators.
const (
	Eq ComparisonOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
	Like
	NotLike
)

// String renders the operator.
func (o ComparisonOp) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Like:
		return "LIKE"
	case NotLike:
		return "NOT LIKE"
	default:
		return "?"
	}
}

// Flip returns the operator with sides exchanged (a < b  ==  b > a).
func (o ComparisonOp) Flip() ComparisonOp {
	switch o {
	case Lt:
		return Gt
	case Le:
		return Ge
	case Gt:
		return Lt
	case Ge:
		return Le
	default:
		return o
	}
}

// Negate returns the complement operator.
func (o ComparisonOp) Negate() ComparisonOp {
	switch o {
	case Eq:
		return Ne
	case Ne:
		return Eq
	case Lt:
		return Ge
	case Le:
		return Gt
	case Gt:
		return Le
	case Ge:
		return Lt
	case Like:
		return NotLike
	case NotLike:
		return Like
	default:
		return o
	}
}

// Comparison applies a comparison operator to two sub-expressions.
type Comparison struct {
	Op          ComparisonOp
	Left, Right Expression
}

// String implements Expression.
func (c *Comparison) String() string {
	return fmt.Sprintf("(%s %s %s)", c.Left, c.Op, c.Right)
}

// Children implements Expression.
func (c *Comparison) Children() []Expression { return []Expression{c.Left, c.Right} }

// ArithmeticOp enumerates arithmetic operators.
type ArithmeticOp uint8

// Arithmetic operators.
const (
	Add ArithmeticOp = iota
	Sub
	Mul
	Div
	Mod
)

// String renders the operator.
func (o ArithmeticOp) String() string {
	switch o {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	case Mod:
		return "%"
	default:
		return "?"
	}
}

// Arithmetic applies an arithmetic operator to two sub-expressions.
type Arithmetic struct {
	Op          ArithmeticOp
	Left, Right Expression
}

// String implements Expression.
func (a *Arithmetic) String() string {
	return fmt.Sprintf("(%s %s %s)", a.Left, a.Op, a.Right)
}

// Children implements Expression.
func (a *Arithmetic) Children() []Expression { return []Expression{a.Left, a.Right} }

// Negation is unary minus.
type Negation struct {
	Child Expression
}

// String implements Expression.
func (n *Negation) String() string { return fmt.Sprintf("(-%s)", n.Child) }

// Children implements Expression.
func (n *Negation) Children() []Expression { return []Expression{n.Child} }

// LogicalOp enumerates boolean connectives.
type LogicalOp uint8

// Logical connectives.
const (
	And LogicalOp = iota
	Or
)

// String renders the connective.
func (o LogicalOp) String() string {
	if o == And {
		return "AND"
	}
	return "OR"
}

// Logical connects two boolean sub-expressions.
type Logical struct {
	Op          LogicalOp
	Left, Right Expression
}

// String implements Expression.
func (l *Logical) String() string {
	return fmt.Sprintf("(%s %s %s)", l.Left, l.Op, l.Right)
}

// Children implements Expression.
func (l *Logical) Children() []Expression { return []Expression{l.Left, l.Right} }

// Not negates a boolean sub-expression.
type Not struct {
	Child Expression
}

// String implements Expression.
func (n *Not) String() string { return fmt.Sprintf("(NOT %s)", n.Child) }

// Children implements Expression.
func (n *Not) Children() []Expression { return []Expression{n.Child} }

// IsNull tests for NULL (or NOT NULL when Negate).
type IsNull struct {
	Child  Expression
	Negate bool
}

// String implements Expression.
func (i *IsNull) String() string {
	if i.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", i.Child)
	}
	return fmt.Sprintf("(%s IS NULL)", i.Child)
}

// Children implements Expression.
func (i *IsNull) Children() []Expression { return []Expression{i.Child} }

// Between tests lo <= child <= hi.
type Between struct {
	Child, Lo, Hi Expression
}

// String implements Expression.
func (b *Between) String() string {
	return fmt.Sprintf("(%s BETWEEN %s AND %s)", b.Child, b.Lo, b.Hi)
}

// Children implements Expression.
func (b *Between) Children() []Expression { return []Expression{b.Child, b.Lo, b.Hi} }

// In tests membership in a literal list or a subquery.
type In struct {
	Child    Expression
	List     []Expression // nil when Subquery is set
	Subquery *Subquery
	Negate   bool
}

// String implements Expression.
func (in *In) String() string {
	var sb strings.Builder
	sb.WriteString("(")
	sb.WriteString(in.Child.String())
	if in.Negate {
		sb.WriteString(" NOT")
	}
	sb.WriteString(" IN (")
	if in.Subquery != nil {
		sb.WriteString(in.Subquery.String())
	} else {
		for i, e := range in.List {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.String())
		}
	}
	sb.WriteString("))")
	return sb.String()
}

// Children implements Expression.
func (in *In) Children() []Expression {
	out := []Expression{in.Child}
	out = append(out, in.List...)
	if in.Subquery != nil {
		out = append(out, in.Subquery)
	}
	return out
}

// Exists tests whether a subquery returns any row.
type Exists struct {
	Subquery *Subquery
	Negate   bool
}

// String implements Expression.
func (e *Exists) String() string {
	if e.Negate {
		return fmt.Sprintf("(NOT EXISTS %s)", e.Subquery)
	}
	return fmt.Sprintf("(EXISTS %s)", e.Subquery)
}

// Children implements Expression.
func (e *Exists) Children() []Expression { return []Expression{e.Subquery} }

// CaseWhen is one WHEN ... THEN ... arm.
type CaseWhen struct {
	When, Then Expression
}

// Case is a searched CASE expression.
type Case struct {
	Whens []CaseWhen
	Else  Expression // may be nil (NULL)
}

// String implements Expression.
func (c *Case) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&sb, " WHEN %s THEN %s", w.When, w.Then)
	}
	if c.Else != nil {
		fmt.Fprintf(&sb, " ELSE %s", c.Else)
	}
	sb.WriteString(" END")
	return sb.String()
}

// Children implements Expression.
func (c *Case) Children() []Expression {
	out := make([]Expression, 0, 2*len(c.Whens)+1)
	for _, w := range c.Whens {
		out = append(out, w.When, w.Then)
	}
	if c.Else != nil {
		out = append(out, c.Else)
	}
	return out
}

// FunctionCall is a scalar function (currently SUBSTRING and EXTRACT-less
// helpers over string dates).
type FunctionCall struct {
	Name string // lower case
	Args []Expression
}

// String implements Expression.
func (f *FunctionCall) String() string {
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	return f.Name + "(" + strings.Join(args, ", ") + ")"
}

// Children implements Expression.
func (f *FunctionCall) Children() []Expression { return f.Args }

// AggregateFn enumerates aggregate functions.
type AggregateFn uint8

// Aggregate functions.
const (
	AggSum AggregateFn = iota
	AggAvg
	AggMin
	AggMax
	AggCount
	AggCountStar
	AggCountDistinct
)

// String renders the function name.
func (f AggregateFn) String() string {
	switch f {
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggCount:
		return "COUNT"
	case AggCountStar:
		return "COUNT(*)"
	case AggCountDistinct:
		return "COUNT(DISTINCT)"
	default:
		return "?"
	}
}

// Aggregate is an aggregate function application. It appears only in
// Aggregate LQP/PQP nodes (and in HAVING/projections above them, where it
// is matched by its String identity).
type Aggregate struct {
	Fn  AggregateFn
	Arg Expression // nil for COUNT(*)
}

// String implements Expression.
func (a *Aggregate) String() string {
	switch a.Fn {
	case AggCountStar:
		return "COUNT(*)"
	case AggCountDistinct:
		return fmt.Sprintf("COUNT(DISTINCT %s)", a.Arg)
	default:
		return fmt.Sprintf("%s(%s)", a.Fn, a.Arg)
	}
}

// Children implements Expression.
func (a *Aggregate) Children() []Expression {
	if a.Arg == nil {
		return nil
	}
	return []Expression{a.Arg}
}

// Subquery wraps a nested query plan used as an expression (scalar
// subselect, IN source, EXISTS probe). Plan holds the logical plan during
// optimization and is swapped for a physical plan at translation time; the
// concrete types live in the lqp/operators packages (held as any to keep
// the package graph acyclic, exactly like Hyrise keeps its
// LQPSubqueryExpression generic over plan kinds).
type Subquery struct {
	Plan any
	// Correlated lists the outer-context expressions whose per-row values
	// bind the subquery's OuterRefs: OuterRef i receives Correlated[i].
	Correlated []Expression
	// ID numbers the subquery in plan text; it is unique within one parse
	// only.
	ID int
	// DT is the type of the plan's first column, set by the translator.
	DT types.DataType
}

// String implements Expression.
func (s *Subquery) String() string { return fmt.Sprintf("SUBQUERY[%d]", s.ID) }

// Children implements Expression.
func (s *Subquery) Children() []Expression { return s.Correlated }

// --- tree utilities -----------------------------------------------------------

// VisitAll walks the expression tree depth-first, pre-order.
func VisitAll(e Expression, f func(Expression)) {
	if e == nil {
		return
	}
	f(e)
	for _, c := range e.Children() {
		VisitAll(c, f)
	}
}

// Contains reports whether the tree holds a node of type T (an *Aggregate,
// an *OuterRef, ...).
func Contains[T Expression](e Expression) bool {
	found := false
	VisitAll(e, func(x Expression) {
		_, ok := x.(T)
		found = found || ok
	})
	return found
}

// Transform rebuilds the tree bottom-up, replacing each node by f(node)
// after its children have been transformed. f returning nil keeps the node.
func Transform(e Expression, f func(Expression) Expression) Expression {
	if e == nil {
		return nil
	}
	rebuilt := rebuildChildren(e, func(c Expression) Expression { return Transform(c, f) })
	if r := f(rebuilt); r != nil {
		return r
	}
	return rebuilt
}

// TransformErr rebuilds the tree bottom-up like Transform but propagates
// errors from f. f returning (nil, nil) keeps the node.
func TransformErr(e Expression, f func(Expression) (Expression, error)) (Expression, error) {
	if e == nil {
		return nil, nil
	}
	var firstErr error
	rebuilt := rebuildChildren(e, func(c Expression) Expression {
		out, err := TransformErr(c, f)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if out == nil {
			return c
		}
		return out
	})
	if firstErr != nil {
		return nil, firstErr
	}
	r, err := f(rebuilt)
	if err != nil {
		return nil, err
	}
	if r != nil {
		return r, nil
	}
	return rebuilt, nil
}

// TransformTopDown visits the tree pre-order: f is applied to each node
// first; a non-nil replacement is taken as-is and NOT recursed into,
// otherwise the children are transformed.
func TransformTopDown(e Expression, f func(Expression) Expression) Expression {
	if e == nil {
		return nil
	}
	if r := f(e); r != nil {
		return r
	}
	return rebuildChildren(e, func(c Expression) Expression { return TransformTopDown(c, f) })
}

// rebuildChildren clones e with children mapped through m (identity-safe:
// returns e unchanged when no child changed).
func rebuildChildren(e Expression, m func(Expression) Expression) Expression {
	switch x := e.(type) {
	case *Comparison:
		l, r := m(x.Left), m(x.Right)
		if l == x.Left && r == x.Right {
			return x
		}
		return &Comparison{Op: x.Op, Left: l, Right: r}
	case *Arithmetic:
		l, r := m(x.Left), m(x.Right)
		if l == x.Left && r == x.Right {
			return x
		}
		return &Arithmetic{Op: x.Op, Left: l, Right: r}
	case *Negation:
		c := m(x.Child)
		if c == x.Child {
			return x
		}
		return &Negation{Child: c}
	case *Logical:
		l, r := m(x.Left), m(x.Right)
		if l == x.Left && r == x.Right {
			return x
		}
		return &Logical{Op: x.Op, Left: l, Right: r}
	case *Not:
		c := m(x.Child)
		if c == x.Child {
			return x
		}
		return &Not{Child: c}
	case *IsNull:
		c := m(x.Child)
		if c == x.Child {
			return x
		}
		return &IsNull{Child: c, Negate: x.Negate}
	case *Between:
		c, lo, hi := m(x.Child), m(x.Lo), m(x.Hi)
		if c == x.Child && lo == x.Lo && hi == x.Hi {
			return x
		}
		return &Between{Child: c, Lo: lo, Hi: hi}
	case *In:
		c := m(x.Child)
		changed := c != x.Child
		list := x.List
		if len(x.List) > 0 {
			list = make([]Expression, len(x.List))
			for i, e := range x.List {
				list[i] = m(e)
				if list[i] != x.List[i] {
					changed = true
				}
			}
		}
		sub := x.Subquery
		if sub != nil {
			if mapped, ok := m(sub).(*Subquery); ok {
				if mapped != sub {
					changed = true
				}
				sub = mapped
			}
		}
		if !changed {
			return x
		}
		return &In{Child: c, List: list, Subquery: sub, Negate: x.Negate}
	case *Exists:
		if mapped, ok := m(x.Subquery).(*Subquery); ok && mapped != x.Subquery {
			return &Exists{Subquery: mapped, Negate: x.Negate}
		}
		return x
	case *Case:
		changed := false
		whens := make([]CaseWhen, len(x.Whens))
		for i, w := range x.Whens {
			whens[i] = CaseWhen{When: m(w.When), Then: m(w.Then)}
			if whens[i].When != w.When || whens[i].Then != w.Then {
				changed = true
			}
		}
		var els Expression
		if x.Else != nil {
			els = m(x.Else)
			if els != x.Else {
				changed = true
			}
		}
		if !changed {
			return x
		}
		return &Case{Whens: whens, Else: els}
	case *FunctionCall:
		changed := false
		args := make([]Expression, len(x.Args))
		for i, a := range x.Args {
			args[i] = m(a)
			if args[i] != x.Args[i] {
				changed = true
			}
		}
		if !changed {
			return x
		}
		return &FunctionCall{Name: x.Name, Args: args}
	case *Aggregate:
		if x.Arg == nil {
			return x
		}
		a := m(x.Arg)
		if a == x.Arg {
			return x
		}
		return &Aggregate{Fn: x.Fn, Arg: a}
	case *Subquery:
		changed := false
		corr := make([]Expression, len(x.Correlated))
		for i, c := range x.Correlated {
			corr[i] = m(c)
			if corr[i] != x.Correlated[i] {
				changed = true
			}
		}
		if !changed {
			return x
		}
		return &Subquery{Plan: x.Plan, Correlated: corr, ID: x.ID, DT: x.DT}
	default:
		return e
	}
}

// SplitConjunction flattens nested ANDs into a predicate list.
func SplitConjunction(e Expression) []Expression {
	if l, ok := e.(*Logical); ok && l.Op == And {
		return append(SplitConjunction(l.Left), SplitConjunction(l.Right)...)
	}
	return []Expression{e}
}

// JoinConjunction rebuilds a single expression from a predicate list.
func JoinConjunction(preds []Expression) Expression {
	if len(preds) == 0 {
		return nil
	}
	out := preds[0]
	for _, p := range preds[1:] {
		out = &Logical{Op: And, Left: out, Right: p}
	}
	return out
}
