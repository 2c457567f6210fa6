package expression

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"

	"hyrise/internal/types"
)

// Context supplies the evaluator with its inputs: the chunk's column
// vectors, bound parameters, and subquery executors (injected by the
// operators package; the evaluator itself stays plan-agnostic).
type Context struct {
	// N is the number of rows in the current chunk.
	N int
	// Column returns the vector of the bound column with the given index.
	Column func(index int) (*Vector, error)
	// Params holds the values of Parameter expressions by ID: the
	// statement's placeholders, the same in every subquery.
	Params []types.Value
	// Outer holds the values of OuterRef expressions by ID: the correlated
	// values of the outer row a subquery plan runs for.
	Outer []types.Value
	// ExecScalarSubquery runs a (possibly correlated) scalar subquery with
	// the given correlated values and returns its single value.
	ExecScalarSubquery func(sub *Subquery, outer []types.Value) (types.Value, error)
	// ExecInSubquery returns the value set produced by an IN subquery.
	ExecInSubquery func(sub *Subquery, outer []types.Value) (*ValueSet, error)
	// ExecExistsSubquery reports whether the subquery yields any row.
	ExecExistsSubquery func(sub *Subquery, outer []types.Value) (bool, error)
}

// Evaluate computes the expression over all rows of the context's chunk.
func Evaluate(e Expression, ctx *Context) (*Vector, error) {
	switch x := e.(type) {
	case *Literal:
		return ConstVector(x.Value, ctx.N), nil
	case *Parameter:
		if x.ID < 0 || x.ID >= len(ctx.Params) {
			return nil, fmt.Errorf("expression: unbound parameter %s", x)
		}
		return ConstVector(ctx.Params[x.ID], ctx.N), nil
	case *OuterRef:
		if x.ID < 0 || x.ID >= len(ctx.Outer) {
			return nil, fmt.Errorf("expression: unbound correlated column %s", x)
		}
		return ConstVector(ctx.Outer[x.ID], ctx.N), nil
	case *BoundColumn:
		if ctx.Column == nil {
			return nil, fmt.Errorf("expression: no column source for %s", x)
		}
		v, err := ctx.Column(x.Index)
		if err != nil || x.DT != types.TypeBool {
			return v, err
		}
		return v.as(types.TypeBool) // a BOOL column stores 0/1
	case *ColumnRef:
		return nil, fmt.Errorf("expression: unresolved column %s (translator must bind columns)", x)
	case *Negation:
		return evalNegation(x, ctx)
	case *Arithmetic:
		return evalBinary(x.Op, x.Left, x.Right, ctx, calculate)
	case *Comparison:
		return evalBinary(x.Op, x.Left, x.Right, ctx, compare)
	case *Logical:
		return evalBinary(x.Op, x.Left, x.Right, ctx, logical)
	case *Not:
		c, err := Evaluate(x.Child, ctx)
		if err != nil {
			return nil, err
		}
		return not(c)
	case *IsNull:
		return evalIsNull(x, ctx)
	case *Between:
		// child >= lo AND child <= hi
		ge := &Comparison{Op: Ge, Left: x.Child, Right: x.Lo}
		le := &Comparison{Op: Le, Left: x.Child, Right: x.Hi}
		return Evaluate(&Logical{Op: And, Left: ge, Right: le}, ctx)
	case *In:
		return evalIn(x, ctx)
	case *Exists:
		return evalExists(x, ctx)
	case *Case:
		return evalCase(x, ctx)
	case *FunctionCall:
		return evalFunction(x, ctx)
	case *Subquery:
		return evalScalarSubquery(x, ctx)
	case *Aggregate:
		return nil, fmt.Errorf("expression: aggregate %s cannot be evaluated outside an Aggregate operator", x)
	default:
		return nil, fmt.Errorf("expression: cannot evaluate %T", e)
	}
}

// EvaluateBool evaluates a predicate and returns the rows where it is TRUE
// (SQL semantics: NULL filters out).
func EvaluateBool(e Expression, ctx *Context) ([]bool, error) {
	v, err := Evaluate(e, ctx)
	if err != nil {
		return nil, err
	}
	if v.DT != types.TypeBool && v.DT != types.TypeNull {
		return nil, fmt.Errorf("expression: predicate %s is not boolean", e)
	}
	out := make([]bool, ctx.N)
	for i := 0; i < ctx.N; i++ {
		out[i] = !v.IsNullAt(i) && v.DT == types.TypeBool && v.B[i]
	}
	return out, nil
}

func evalNegation(x *Negation, ctx *Context) (*Vector, error) {
	c, err := Evaluate(x.Child, ctx)
	if err != nil {
		return nil, err
	}
	switch c.DT {
	case types.TypeInt64:
		return NewIntVector(negate(c.I), c.Nulls), nil
	case types.TypeFloat64:
		return NewFloatVector(negate(c.F), c.Nulls), nil
	case types.TypeNull:
		return c, nil
	default:
		return nil, fmt.Errorf("expression: cannot negate %s", c.DT)
	}
}

func negate[T int64 | float64](vals []T) []T {
	out := make([]T, len(vals))
	for i, v := range vals {
		out[i] = -v
	}
	return out
}

func mergeNulls(a, b []bool, n int) []bool {
	if a == nil && b == nil {
		return nil
	}
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		out[i] = (a != nil && a[i]) || (b != nil && b[i])
	}
	return out
}

// evalBinary evaluates a binary operator's operands and applies its kernel.
func evalBinary[Op any](op Op, left, right Expression, ctx *Context, kernel func(Op, *Vector, *Vector, int) (*Vector, error)) (*Vector, error) {
	l, err := Evaluate(left, ctx)
	if err != nil {
		return nil, err
	}
	r, err := Evaluate(right, ctx)
	if err != nil {
		return nil, err
	}
	return kernel(op, l, r, ctx.N)
}

// calculate is the kernel of `l op r` (+, -, *, /, %) over n rows.
func calculate(op ArithmeticOp, l, r *Vector, n int) (*Vector, error) {
	if l.DT == types.TypeNull || r.DT == types.TypeNull {
		return ConstVector(types.NullValue, n), nil
	}
	if !l.DT.IsNumeric() || !r.DT.IsNumeric() {
		return nil, fmt.Errorf("expression: arithmetic on %s and %s", l.DT, r.DT)
	}
	nulls := mergeNulls(l.Nulls, r.Nulls, n)
	// Integer arithmetic stays integral; mixed promotes to float.
	if l.DT == types.TypeInt64 && r.DT == types.TypeInt64 {
		out, nulls := arithmetic(op, l.I, r.I, nulls, func(a, b int64) int64 { return a % b })
		return NewIntVector(out, nulls), nil
	}
	out, nulls := arithmetic(op, l.Floats(), r.Floats(), nulls, math.Mod)
	return NewFloatVector(out, nulls), nil
}

// arithmetic sets out[i] to `l[i] op r[i]` on every row that is not NULL,
// with mod as the remainder; `/ 0` and `% 0` are NULL.
func arithmetic[T int64 | float64](op ArithmeticOp, l, r []T, nulls []bool, mod func(a, b T) T) ([]T, []bool) {
	out := make([]T, len(l))
	for i := range out {
		if nulls != nil && nulls[i] {
			continue
		}
		a, b := l[i], r[i]
		if (op == Div || op == Mod) && b == 0 {
			nulls = nullAt(nulls, len(out), i)
			continue
		}
		switch op {
		case Add:
			out[i] = a + b
		case Sub:
			out[i] = a - b
		case Mul:
			out[i] = a * b
		case Div:
			out[i] = a / b
		case Mod:
			out[i] = mod(a, b)
		}
	}
	return out, nulls
}

// nullAt marks row i of an n-row null map, allocating the map on first use.
func nullAt(nulls []bool, n, i int) []bool {
	if nulls == nil {
		nulls = make([]bool, n)
	}
	nulls[i] = true
	return nulls
}

// compare is the kernel of `l op r` over n rows. The plan has typed its
// operands (InferType); only a placeholder bound to another type reaches the
// error.
func compare(op ComparisonOp, l, r *Vector, n int) (*Vector, error) {
	out := make([]bool, n)
	if l.DT == types.TypeNull || r.DT == types.TypeNull {
		return &Vector{DT: types.TypeBool, B: out, Nulls: allNulls(n), N: n}, nil
	}
	nulls := mergeNulls(l.Nulls, r.Nulls, n)
	switch {
	case op == Like || op == NotLike:
		if l.DT != types.TypeString || r.DT != types.TypeString {
			return nil, fmt.Errorf("expression: %w", noOperator(l.DT, op, r.DT))
		}
		// The pattern is almost always constant; compile once per distinct
		// pattern in this vector.
		var m *LikeMatcher
		var lastPattern string
		for i := range out {
			if nulls != nil && nulls[i] {
				continue
			}
			if m == nil || r.S[i] != lastPattern {
				lastPattern = r.S[i]
				m = CompileLike(lastPattern)
			}
			out[i] = m.Match(l.S[i]) != (op == NotLike)
		}
	case l.DT == types.TypeString && r.DT == types.TypeString:
		compareRows(op, l.S, r.S, nulls, out)
	case l.DT == types.TypeInt64 && r.DT == types.TypeInt64:
		compareRows(op, l.I, r.I, nulls, out)
	case l.DT == types.TypeBool && r.DT == types.TypeBool:
		compareRows(op, boolInts(l.B), boolInts(r.B), nulls, out) // FALSE < TRUE
	case l.DT.IsNumeric() && r.DT.IsNumeric():
		compareRows(op, l.Floats(), r.Floats(), nulls, out)
	default:
		return nil, fmt.Errorf("expression: %w", noOperator(l.DT, op, r.DT))
	}
	return &Vector{DT: types.TypeBool, B: out, Nulls: nulls, N: n}, nil
}

// compareRows sets out[i] to `l[i] op r[i]` on every row that is not NULL,
// with Go's own operators. That is IEEE 754 on floats — NaN matches only `<>`,
// -0 = +0 — the rule of the scan kernels, zones, filters and indexes.
func compareRows[T types.Ordered](op ComparisonOp, l, r []T, nulls, out []bool) {
	for i := range out {
		if nulls != nil && nulls[i] {
			continue
		}
		switch a, b := l[i], r[i]; op {
		case Eq:
			out[i] = a == b
		case Ne:
			out[i] = a != b
		case Lt:
			out[i] = a < b
		case Le:
			out[i] = a <= b
		case Gt:
			out[i] = a > b
		case Ge:
			out[i] = a >= b
		}
	}
}

// boolInts reads FALSE as 0 and TRUE as 1.
func boolInts(b []bool) []int64 {
	out := make([]int64, len(b))
	for i, v := range b {
		if v {
			out[i] = 1
		}
	}
	return out
}

func allNulls(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = true
	}
	return out
}

// logical is the kernel of three-valued `l op r` over n rows.
func logical(op LogicalOp, l, r *Vector, n int) (*Vector, error) {
	if (l.DT != types.TypeBool && l.DT != types.TypeNull) || (r.DT != types.TypeBool && r.DT != types.TypeNull) {
		return nil, fmt.Errorf("expression: %s on non-boolean operands", op)
	}
	out := make([]bool, n)
	var nulls []bool
	for i := 0; i < n; i++ {
		lNull := l.DT == types.TypeNull || l.IsNullAt(i)
		rNull := r.DT == types.TypeNull || r.IsNullAt(i)
		lVal := !lNull && l.B[i]
		rVal := !rNull && r.B[i]
		if op == And {
			switch {
			case !lNull && !lVal, !rNull && !rVal:
				out[i] = false // FALSE dominates
			case lNull || rNull:
				nulls = nullAt(nulls, n, i)
			default:
				out[i] = true
			}
		} else { // Or
			switch {
			case lVal, rVal:
				out[i] = true // TRUE dominates
			case lNull || rNull:
				nulls = nullAt(nulls, n, i)
			default:
				out[i] = false
			}
		}
	}
	return &Vector{DT: types.TypeBool, B: out, Nulls: nulls, N: n}, nil
}

// not is the kernel of three-valued NOT.
func not(c *Vector) (*Vector, error) {
	switch c.DT {
	case types.TypeNull:
		return &Vector{DT: types.TypeBool, B: make([]bool, c.N), Nulls: allNulls(c.N), N: c.N}, nil
	case types.TypeBool:
		out := make([]bool, c.N)
		for i, b := range c.B {
			out[i] = !b
		}
		return &Vector{DT: types.TypeBool, B: out, Nulls: c.Nulls, N: c.N}, nil
	}
	return nil, fmt.Errorf("expression: NOT on non-boolean operand")
}

func evalIsNull(x *IsNull, ctx *Context) (*Vector, error) {
	c, err := Evaluate(x.Child, ctx)
	if err != nil {
		return nil, err
	}
	out := make([]bool, ctx.N)
	for i := range out {
		out[i] = (c.DT == types.TypeNull || c.IsNullAt(i)) != x.Negate
	}
	return NewBoolVector(out, nil), nil
}

// evalCase allocates the result once, in the CASE's type, and copies into it
// each branch's rows: a WHEN's first matches, then for ELSE the rest.
func evalCase(x *Case, ctx *Context) (*Vector, error) {
	dt, err := ctx.typeOf(x)
	if err != nil {
		return nil, fmt.Errorf("expression: %w", err)
	}
	n := ctx.N
	res := nullVector(dt, n)
	fill := func(branch Expression, rows []bool) error {
		v, err := Evaluate(branch, ctx)
		if err == nil {
			v, err = v.as(dt)
		}
		if err != nil || v.DT == types.TypeNull || dt == types.TypeNull {
			return err
		}
		switch dt {
		case types.TypeInt64:
			copyRows(res.I, v.I, res.Nulls, v.Nulls, rows)
		case types.TypeFloat64:
			copyRows(res.F, v.F, res.Nulls, v.Nulls, rows)
		case types.TypeString:
			copyRows(res.S, v.S, res.Nulls, v.Nulls, rows)
		case types.TypeBool:
			copyRows(res.B, v.B, res.Nulls, v.Nulls, rows)
		}
		return nil
	}
	decided := make([]bool, n)
	for _, w := range x.Whens {
		cond, err := EvaluateBool(w.When, ctx)
		if err != nil {
			return nil, err
		}
		rows := make([]bool, n)
		for i, c := range cond {
			rows[i] = c && !decided[i]
			decided[i] = decided[i] || c
		}
		if err := fill(w.Then, rows); err != nil {
			return nil, err
		}
	}
	if x.Else != nil {
		for i, d := range decided {
			decided[i] = !d
		}
		if err := fill(x.Else, decided); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// copyRows copies src's non-NULL values at the rows set in take into dst.
func copyRows[T any](dst, src []T, dstNulls, srcNulls, take []bool) {
	for i, t := range take {
		if t && (srcNulls == nil || !srcNulls[i]) {
			dst[i], dstNulls[i] = src[i], false
		}
	}
}

func evalFunction(x *FunctionCall, ctx *Context) (*Vector, error) {
	arity := 1
	switch x.Name {
	case "substring", "substr":
		arity = 3
	case "upper", "lower", "length":
	default:
		return nil, fmt.Errorf("expression: unknown function %q", x.Name)
	}
	if len(x.Args) != arity {
		return nil, fmt.Errorf("expression: %s needs %d argument(s)", x.Name, arity)
	}
	args := make([]*Vector, arity)
	for i, a := range x.Args {
		v, err := Evaluate(a, ctx)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	str := args[0]
	if str.DT != types.TypeString {
		return nil, fmt.Errorf("expression: %s on %s", x.Name, str.DT)
	}
	switch x.Name {
	case "length":
		out := make([]int64, ctx.N)
		for i, s := range str.S {
			out[i] = int64(len(s))
		}
		return NewIntVector(out, str.Nulls), nil
	case "upper", "lower":
		f := strings.ToLower
		if x.Name == "upper" {
			f = strings.ToUpper
		}
		out := make([]string, ctx.N)
		for i, s := range str.S {
			out[i] = f(s)
		}
		return NewStringVector(out, str.Nulls), nil
	}
	out := make([]string, ctx.N)
	nulls := mergeNulls(mergeNulls(str.Nulls, args[1].Nulls, ctx.N), args[2].Nulls, ctx.N)
	from, length := args[1].Floats(), args[2].Floats()
	for i := range out {
		if nulls == nil || !nulls[i] {
			out[i] = substringSQL(str.S[i], int(from[i]), int(length[i]))
		}
	}
	return NewStringVector(out, nulls), nil
}

// substringSQL implements SQL SUBSTRING(s FROM from FOR length) with 1-based
// indexing and clamping.
func substringSQL(s string, from, length int) string {
	start := from - 1
	if start < 0 {
		length += start
		start = 0
	}
	if start >= len(s) || length <= 0 {
		return ""
	}
	end := start + length
	if end > len(s) {
		end = len(s)
	}
	return s[start:end]
}

// outerRows evaluates the correlated outer expressions once per chunk and
// returns the per-row tuples of OuterRef values.
func outerRows(sub *Subquery, ctx *Context) ([][]types.Value, error) {
	if len(sub.Correlated) == 0 {
		return nil, nil
	}
	vecs := make([]*Vector, len(sub.Correlated))
	for i, c := range sub.Correlated {
		v, err := Evaluate(c, ctx)
		if err != nil {
			return nil, err
		}
		vecs[i] = v
	}
	rows := make([][]types.Value, ctx.N)
	for i := 0; i < ctx.N; i++ {
		tuple := make([]types.Value, len(vecs))
		for j, v := range vecs {
			tuple[j] = v.ValueAt(i)
		}
		rows[i] = tuple
	}
	return rows, nil
}

// OuterKey encodes one tuple of correlated values for a subquery memo: per
// value its type, then its 8 bytes or, for a string, its length and bytes —
// no two tuples share a key.
func OuterKey(outer []types.Value) string {
	b := make([]byte, 0, 9*len(outer))
	for _, v := range outer {
		b = append(b, byte(v.Type))
		switch v.Type {
		case types.TypeNull:
		case types.TypeString:
			b = binary.AppendUvarint(b, uint64(len(v.S)))
			b = append(b, v.S...)
		case types.TypeFloat64:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.F))
		default:
			b = binary.LittleEndian.AppendUint64(b, uint64(v.I))
		}
	}
	return string(b)
}

func evalScalarSubquery(x *Subquery, ctx *Context) (*Vector, error) {
	if ctx.ExecScalarSubquery == nil {
		return nil, fmt.Errorf("expression: no scalar subquery executor installed")
	}
	outer, err := outerRows(x, ctx)
	if err != nil {
		return nil, err
	}
	if outer == nil {
		v, err := ctx.ExecScalarSubquery(x, nil)
		if err != nil {
			return nil, err
		}
		return ConstVector(v, ctx.N).as(x.DT)
	}
	vals := make([]types.Value, ctx.N)
	for i := range vals {
		if vals[i], err = ctx.ExecScalarSubquery(x, outer[i]); err != nil {
			return nil, err
		}
	}
	return vectorFromValues(vals).as(x.DT)
}

func evalIn(x *In, ctx *Context) (*Vector, error) {
	child, err := Evaluate(x.Child, ctx)
	if err != nil {
		return nil, err
	}
	n := ctx.N
	if x.Subquery == nil {
		// x IN (e1, e2, …) is x = e1 OR x = e2 OR …, NOT IN its negation.
		var out *Vector
		for _, e := range x.List {
			v, err := Evaluate(e, ctx)
			if err == nil {
				v, err = compare(Eq, child, v, n)
			}
			if err == nil && out != nil {
				v, err = logical(Or, out, v, n)
			}
			if err != nil {
				return nil, err
			}
			out = v
		}
		if x.Negate {
			return not(out)
		}
		return out, nil
	}

	if ctx.ExecInSubquery == nil {
		return nil, fmt.Errorf("expression: no IN-subquery executor installed")
	}
	outer, err := outerRows(x.Subquery, ctx)
	if err != nil {
		return nil, err
	}
	out := make([]bool, n)
	var nulls []bool
	var sharedSet *ValueSet
	if outer == nil {
		sharedSet, err = ctx.ExecInSubquery(x.Subquery, nil)
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		cv := child.ValueAt(i)
		if cv.IsNull() {
			nulls = nullAt(nulls, n, i)
			continue
		}
		set := sharedSet
		if set == nil {
			set, err = ctx.ExecInSubquery(x.Subquery, outer[i])
			if err != nil {
				return nil, err
			}
		}
		switch {
		case set.Contains(cv):
			out[i] = !x.Negate
		case set.HasNull:
			nulls = nullAt(nulls, n, i)
		default:
			out[i] = x.Negate
		}
	}
	return &Vector{DT: types.TypeBool, B: out, Nulls: nulls, N: n}, nil
}

func evalExists(x *Exists, ctx *Context) (*Vector, error) {
	if ctx.ExecExistsSubquery == nil {
		return nil, fmt.Errorf("expression: no EXISTS executor installed")
	}
	outer, err := outerRows(x.Subquery, ctx)
	if err != nil {
		return nil, err
	}
	out := make([]bool, ctx.N)
	for i := range out {
		if outer == nil && i > 0 { // uncorrelated: one answer for every row
			out[i] = out[0]
			continue
		}
		var tuple []types.Value
		if outer != nil {
			tuple = outer[i]
		}
		exists, err := ctx.ExecExistsSubquery(x.Subquery, tuple)
		if err != nil {
			return nil, err
		}
		out[i] = exists != x.Negate
	}
	return NewBoolVector(out, nil), nil
}

// vectorFromValues builds a vector from one value per row, in the values'
// common type.
func vectorFromValues(vals []types.Value) *Vector {
	dt := types.TypeNull
	for _, v := range vals {
		dt, _ = types.CommonType(dt, v.Type)
	}
	out := nullVector(dt, len(vals))
	for i, v := range vals {
		if v.IsNull() || dt == types.TypeNull {
			continue
		}
		out.Nulls[i] = false
		switch dt {
		case types.TypeInt64:
			out.I[i] = v.I
		case types.TypeFloat64:
			out.F[i] = v.AsFloat()
		case types.TypeString:
			out.S[i] = v.S
		case types.TypeBool:
			out.B[i] = v.AsBool()
		}
	}
	return out
}

// Errors of the type rule. The texts follow PostgreSQL's.
var (
	// ErrDatatypeMismatch: the branches of a CASE have no common type.
	ErrDatatypeMismatch = errors.New("cannot be matched")
	// ErrUndefinedFunction: no operator or function takes these operands.
	ErrUndefinedFunction = errors.New("does not exist")
)

func noOperator(l types.DataType, op ComparisonOp, r types.DataType) error {
	return fmt.Errorf("operator %w: %s %s %s", ErrUndefinedFunction, l, op, r)
}

// InferType types e by the engine's one type rule and reports the first
// operand that breaks it. columnType (may be nil) types the bound columns
// that declare no type.
//   - Two operands meet where types.CommonType finds them a type: both
//     numeric, both VARCHAR, both BOOL, or either NULL or an untyped
//     placeholder. LIKE takes VARCHARs. ComparedOperands lists the pairs.
//   - A CASE has the common type of its branches.
//   - SUM and AVG take a number.
//
// Arithmetic, AND, OR and NOT report mistyped operands when evaluated.
func InferType(e Expression, columnType func(index int) types.DataType) (types.DataType, error) {
	return typer{column: columnType}.of(e)
}

// ComparedOperands calls f with each pair of operands e itself compares, and
// the comparison that meets them: a comparison's sides, BETWEEN's child with
// its bounds (>=, <=), IN's child with each element or its subquery (=). It
// returns f's first error.
func ComparedOperands(e Expression, f func(op ComparisonOp, a, b Expression) error) error {
	switch x := e.(type) {
	case *Comparison:
		return f(x.Op, x.Left, x.Right)
	case *Between:
		if err := f(Ge, x.Child, x.Lo); err != nil {
			return err
		}
		return f(Le, x.Child, x.Hi)
	case *In:
		for _, item := range x.List {
			if err := f(Eq, x.Child, item); err != nil {
				return err
			}
		}
		if x.Subquery != nil {
			return f(Eq, x.Child, x.Subquery)
		}
	}
	return nil
}

// typeOf types e for evaluation: a placeholder by its bound value, a column
// that declares no type by its vector.
func (ctx *Context) typeOf(e Expression) (types.DataType, error) {
	return typer{params: ctx.Params, column: func(i int) types.DataType {
		if v, err := Evaluate(&BoundColumn{Index: i}, ctx); err == nil {
			return v.DT
		}
		return types.TypeNull
	}}.of(e)
}

// typer is InferType's walk; params, when set, type the placeholders.
type typer struct {
	column func(int) types.DataType
	params []types.Value
}

func (t typer) of(e Expression) (types.DataType, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Value.Type, nil
	case *Parameter:
		if x.ID >= 0 && x.ID < len(t.params) {
			return t.params[x.ID].Type, nil
		}
		return types.TypeNull, nil
	case *OuterRef:
		return x.DT, nil
	case *Subquery:
		return x.DT, nil
	case *BoundColumn:
		if x.DT == types.TypeNull && t.column != nil {
			return t.column(x.Index), nil
		}
		return x.DT, nil
	case *Negation:
		return t.of(x.Child)
	case *Arithmetic:
		l, err := t.of(x.Left)
		if err != nil {
			return types.TypeNull, err
		}
		r, err := t.of(x.Right)
		dt, _ := types.CommonType(l, r)
		return dt, err
	case *Comparison, *Between, *In:
		return types.TypeBool, ComparedOperands(e, t.meet)
	case *Logical:
		return types.TypeBool, t.all(x.Left, x.Right)
	case *Not:
		return types.TypeBool, t.all(x.Child)
	case *IsNull:
		return types.TypeBool, t.all(x.Child)
	case *Exists:
		return types.TypeBool, nil
	case *Case:
		dt := types.TypeNull
		for i, c := range x.Children() { // WHEN, THEN, …, ELSE
			ct, err := t.of(c)
			if err != nil {
				return types.TypeNull, err
			}
			if i%2 == 0 && i < 2*len(x.Whens) {
				continue // a WHEN
			}
			common, ok := types.CommonType(dt, ct)
			if !ok {
				return types.TypeNull, fmt.Errorf("CASE types %s and %s %w", dt, ct, ErrDatatypeMismatch)
			}
			dt = common
		}
		return dt, nil
	case *FunctionCall:
		if x.Name == "length" {
			return types.TypeInt64, t.all(x.Args...)
		}
		return types.TypeString, t.all(x.Args...)
	case *Aggregate:
		if x.Fn == AggCountStar {
			return types.TypeInt64, nil
		}
		dt, err := t.of(x.Arg)
		switch {
		case err != nil:
			return types.TypeNull, err
		case x.Fn == AggCount || x.Fn == AggCountDistinct:
			return types.TypeInt64, nil
		case x.Fn != AggSum && x.Fn != AggAvg:
			return dt, nil
		case dt != types.TypeNull && !dt.IsNumeric():
			return types.TypeNull, fmt.Errorf("function %s(%s) %w", strings.ToLower(x.Fn.String()), dt, ErrUndefinedFunction)
		case x.Fn == AggSum && dt == types.TypeInt64:
			return types.TypeInt64, nil
		default:
			return types.TypeFloat64, nil
		}
	default:
		return types.TypeNull, nil
	}
}

// all types each of es and returns the first error.
func (t typer) all(es ...Expression) error {
	for _, e := range es {
		if _, err := t.of(e); err != nil {
			return err
		}
	}
	return nil
}

// meet checks that a and b may meet in the comparison op.
func (t typer) meet(op ComparisonOp, a, b Expression) error {
	l, err := t.of(a)
	if err != nil {
		return err
	}
	r, err := t.of(b)
	if err != nil {
		return err
	}
	if op == Like || op == NotLike {
		if (l == types.TypeString || l == types.TypeNull) && (r == types.TypeString || r == types.TypeNull) {
			return nil
		}
	} else if _, ok := types.CommonType(l, r); ok {
		return nil
	}
	return noOperator(l, op, r)
}
