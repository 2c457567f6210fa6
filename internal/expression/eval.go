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
	// ExecInSubquery answers `probe IN (subquery)` for each row of probe,
	// with the given correlated values, as a BOOL vector: TRUE where a
	// subquery row equals the probe row; FALSE where the subquery is empty;
	// NULL where nothing matches and the probe row or some subquery row is
	// NULL; FALSE otherwise. x.Negate is left to the caller.
	ExecInSubquery func(x *In, outer []types.Value, probe *Vector) (*Vector, error)
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
		return v.As(types.TypeBool) // a BOOL column stores 0/1
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
		return not(c), nil
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
	case types.TypeInt64: // 0 - x, which fails where x is INT_MIN
		return calculate(Sub, NewIntVector(make([]int64, ctx.N), nil), c, ctx.N)
	case types.TypeFloat64:
		out := make([]float64, ctx.N)
		for i, v := range c.F {
			out[i] = -v
		}
		return NewFloatVector(out, c.Nulls), nil
	}
	return c, nil // NULL
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
	nulls := mergeNulls(l.Nulls, r.Nulls, n)
	// Integer arithmetic stays integral; mixed promotes to float.
	if l.DT == types.TypeInt64 && r.DT == types.TypeInt64 {
		out, nulls, err := arithmetic(op, l.I, r.I, nulls, func(a, b int64) int64 { return a % b }, intExact)
		if err != nil {
			return nil, err
		}
		return NewIntVector(out, nulls), nil
	}
	out, nulls, _ := arithmetic(op, l.Floats(), r.Floats(), nulls, math.Mod, nil)
	return NewFloatVector(out, nulls), nil
}

// arithmetic sets out[i] to `l[i] op r[i]` on every row that is not NULL,
// with mod as the remainder; `/ 0` and `% 0` are NULL. A result that exact
// (when given) refuses fails the whole operation with ErrOutOfRange.
func arithmetic[T int64 | float64](op ArithmeticOp, l, r []T, nulls []bool, mod func(a, b T) T,
	exact func(op ArithmeticOp, a, b, res T) bool) ([]T, []bool, error) {
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
		if exact != nil && !exact(op, a, b, out[i]) {
			return nil, nil, ErrOutOfRange
		}
	}
	return out, nulls, nil
}

// intExact reports whether res, the wrapped INT result of `a op b`, is the
// exact one: two's complement wraps a sum whose operands share a sign away
// from it, and a product or quotient checks by dividing back.
func intExact(op ArithmeticOp, a, b, res int64) bool {
	switch op {
	case Add:
		return (a^res)&(b^res) >= 0
	case Sub:
		return (a^b)&(a^res) >= 0
	case Mul:
		return a == 0 || res/a == b && !(a == -1 && b == math.MinInt64)
	case Div:
		return !(a == math.MinInt64 && b == -1)
	}
	return true
}

// AddInt adds x to the exact INT sum hi·2^64 + lo: lo wraps like an INT and
// hi counts its wraps, up minus down, so the sum is an INT exactly when hi is
// 0. After n additions |hi| ≤ (n+1)/2, so a 32-bit hi is exact for fewer than
// 2^32 of them. Two sums add as AddInt(lo1, hi1+hi2, lo2).
func AddInt(lo int64, hi int32, x int64) (int64, int32) {
	s := lo + x
	switch {
	case lo >= 0 && x > 0 && s < 0:
		hi++
	case lo < 0 && x < 0 && s >= 0:
		hi--
	}
	return s, hi
}

// IntSum is the exact INT sum hi·2^64 + lo that AddInt keeps, as a FLOAT:
// what AVG over INT divides by its count.
func IntSum(lo int64, hi int32) float64 { return float64(hi)*0x1p64 + float64(lo) }

// nullAt marks row i of an n-row null map, allocating the map on first use.
func nullAt(nulls []bool, n, i int) []bool {
	if nulls == nil {
		nulls = make([]bool, n)
	}
	nulls[i] = true
	return nulls
}

// compare is the kernel of `l op r` over n rows whose operands the plan
// typed: both VARCHAR, both BOOL or both numeric. Only LIKE fails, on a
// pattern that ends in a lone escape.
func compare(op ComparisonOp, l, r *Vector, n int) (*Vector, error) {
	out := make([]bool, n)
	if l.DT == types.TypeNull || r.DT == types.TypeNull {
		return &Vector{DT: types.TypeBool, B: out, Nulls: allNulls(n), N: n}, nil
	}
	nulls := mergeNulls(l.Nulls, r.Nulls, n)
	switch {
	case op == Like || op == NotLike:
		// The pattern is almost always constant; compile once per run of
		// one pattern in this vector.
		var m *LikeMatcher
		for i := range out {
			if nulls != nil && nulls[i] {
				continue
			}
			if m == nil || r.S[i] != m.pattern {
				var err error
				if m, err = CompileLike(r.S[i]); err != nil {
					return nil, err
				}
			}
			out[i] = m.Match(l.S[i]) != (op == NotLike)
		}
	case l.DT == types.TypeString && r.DT == types.TypeString:
		compareRows(op, l.S, r.S, nulls, out)
	case l.DT == types.TypeInt64 && r.DT == types.TypeInt64:
		compareRows(op, l.I, r.I, nulls, out)
	case l.DT == types.TypeBool && r.DT == types.TypeBool:
		compareRows(op, BoolInts(l.B), BoolInts(r.B), nulls, out) // FALSE < TRUE
	default:
		compareRows(op, l.Floats(), r.Floats(), nulls, out)
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

// BoolInts reads FALSE as 0 and TRUE as 1, as a BOOL column stores them.
func BoolInts(b []bool) []int64 {
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
func not(c *Vector) *Vector {
	if c.DT == types.TypeNull {
		return &Vector{DT: types.TypeBool, B: make([]bool, c.N), Nulls: allNulls(c.N), N: c.N}
	}
	out := make([]bool, c.N)
	for i, b := range c.B {
		out[i] = !b
	}
	return &Vector{DT: types.TypeBool, B: out, Nulls: c.Nulls, N: c.N}
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
// each branch's rows: a WHEN's first matches, then for ELSE the rest. As in
// PostgreSQL, a WHEN sees only the rows no earlier WHEN took and a branch only
// the rows that take it, so a branch that would fail (an INT overflow) on the
// rows a WHEN guards it from does not fail.
func evalCase(x *Case, ctx *Context) (*Vector, error) {
	dt, _ := InferType(x) // the plan typed it
	res := NullVector(dt, ctx.N)
	fill := func(branch Expression, rows []int32) error {
		if len(rows) == 0 {
			return nil
		}
		if lit, ok := branch.(*Literal); ok && fillConst(res, lit.Value, rows) {
			return nil
		}
		v, err := Evaluate(branch, ctx.at(rows))
		if err == nil {
			v, err = v.As(dt)
		}
		if err != nil || v.DT == types.TypeNull || dt == types.TypeNull {
			return err
		}
		switch dt {
		case types.TypeInt64:
			scatter(res.I, v.I, res.Nulls, v.Nulls, rows)
		case types.TypeFloat64:
			scatter(res.F, v.F, res.Nulls, v.Nulls, rows)
		case types.TypeString:
			scatter(res.S, v.S, res.Nulls, v.Nulls, rows)
		case types.TypeBool:
			scatter(res.B, v.B, res.Nulls, v.Nulls, rows)
		}
		return nil
	}
	open := make([]int32, ctx.N)
	for i := range open {
		open[i] = int32(i)
	}
	for _, w := range x.Whens {
		if len(open) == 0 {
			break
		}
		cond, err := EvaluateBool(w.When, ctx.at(open))
		if err != nil {
			return nil, err
		}
		take := make([]int32, 0, len(open))
		rest := open[:0]
		for j, i := range open {
			if cond[j] {
				take = append(take, i)
			} else {
				rest = append(rest, i)
			}
		}
		if err := fill(w.Then, take); err != nil {
			return nil, err
		}
		open = rest
	}
	if x.Else != nil {
		if err := fill(x.Else, open); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// fillConst writes a literal branch into res's rows without a vector: a NULL
// (the rows stay NULL), a value of res's type or an INT into FLOAT. Any other
// literal reports false and goes through As.
func fillConst(res *Vector, lit types.Value, rows []int32) bool {
	if lit.Type == types.TypeInt64 && res.DT == types.TypeFloat64 {
		lit = types.Float(float64(lit.I))
	}
	if lit.Type != res.DT || lit.Type == types.TypeNull {
		return lit.Type == types.TypeNull || res.DT == types.TypeNull
	}
	for _, r := range rows {
		switch res.Nulls[r] = false; res.DT {
		case types.TypeInt64:
			res.I[r] = lit.I
		case types.TypeFloat64:
			res.F[r] = lit.F
		case types.TypeString:
			res.S[r] = lit.S
		case types.TypeBool:
			res.B[r] = lit.AsBool()
		}
	}
	return true
}

// at is ctx over its rows at the ascending indices rows; all of them is ctx.
func (ctx *Context) at(rows []int32) *Context {
	if len(rows) == ctx.N {
		return ctx
	}
	sub := *ctx
	sub.N = len(rows)
	if ctx.Column != nil {
		sub.Column = func(index int) (*Vector, error) {
			v, err := ctx.Column(index)
			if err != nil {
				return nil, err
			}
			return v.Gather(rows), nil
		}
	}
	return &sub
}

// scatter copies src's non-NULL values, row j of src to row rows[j], into dst.
func scatter[T any](dst, src []T, dstNulls, srcNulls []bool, rows []int32) {
	for j, i := range rows {
		if srcNulls == nil || !srcNulls[j] {
			dst[i], dstNulls[i] = src[j], false
		}
	}
}

// evalFunction runs a scalar function whose arguments the plan typed by its
// signature (functions): the string argument is VARCHAR or NULL. The control
// functions run only as control calls.
func evalFunction(x *FunctionCall, ctx *Context) (*Vector, error) {
	args := make([]*Vector, max(len(x.Args), 1)) // promote_replica() has none
	for i, a := range x.Args {
		v, err := Evaluate(a, ctx)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	str := args[0]
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
	case "substring", "substr":
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
	return nil, fmt.Errorf("function %s %w in an expression", x.Name, ErrUndefinedFunction)
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
		return ConstVector(v, ctx.N).As(x.DT)
	}
	vals := make([]types.Value, ctx.N)
	for i := range vals {
		if vals[i], err = ctx.ExecScalarSubquery(x, outer[i]); err != nil {
			return nil, err
		}
	}
	return vectorFromValues(x.DT, vals), nil
}

func evalIn(x *In, ctx *Context) (*Vector, error) {
	child, err := Evaluate(x.Child, ctx)
	if err != nil {
		return nil, err
	}
	n := ctx.N
	var out *Vector
	if x.Subquery == nil {
		// x IN (e1, e2, …) is x = e1 OR x = e2 OR ….
		for _, e := range x.List {
			v, err := Evaluate(e, ctx)
			if err != nil {
				return nil, err
			}
			v, _ = compare(Eq, child, v, n) // neither = nor OR fails
			if out != nil {
				v, _ = logical(Or, out, v, n)
			}
			out = v
		}
	} else if out, err = inSubquery(x, child, ctx); err != nil {
		return nil, err
	}
	if x.Negate { // NOT IN is IN's negation
		return not(out), nil
	}
	return out, nil
}

// inSubquery asks the executor once per chunk for an uncorrelated subquery
// and once per row, with that row's correlated values, for a correlated one.
func inSubquery(x *In, child *Vector, ctx *Context) (*Vector, error) {
	if ctx.ExecInSubquery == nil {
		return nil, fmt.Errorf("expression: no IN-subquery executor installed")
	}
	outer, err := outerRows(x.Subquery, ctx)
	switch {
	case err != nil:
		return nil, err
	case outer == nil:
		return ctx.ExecInSubquery(x, nil, child)
	}
	out := NewBoolVector(make([]bool, ctx.N), nil)
	for i, tuple := range outer {
		r, err := ctx.ExecInSubquery(x, tuple, child.Gather([]int32{int32(i)}))
		if err != nil {
			return nil, err
		}
		if out.B[i] = r.B[0]; r.IsNullAt(0) {
			out.Nulls = nullAt(out.Nulls, ctx.N, i)
		}
	}
	return out, nil
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

// vectorFromValues builds a vector of type dt from one value per row of that
// type, or NULL; a BOOL may come as its stored 0/1.
func vectorFromValues(dt types.DataType, vals []types.Value) *Vector {
	out := NullVector(dt, len(vals))
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
			out.B[i] = v.I != 0
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
	// ErrNotBoolean: a condition or an operand of AND, OR or NOT is not BOOL.
	ErrNotBoolean = errors.New("must be type boolean")
	// ErrInvalidValue: a value the assignment rule (Vector.As) refuses.
	ErrInvalidValue = errors.New("invalid input syntax for type")
	// ErrOutOfRange: an INT operation or SUM whose exact result is no INT.
	ErrOutOfRange = errors.New("bigint out of range")
)

func noOperator(l types.DataType, op fmt.Stringer, r types.DataType) error {
	return fmt.Errorf("operator %w: %s %s %s", ErrUndefinedFunction, l, op, r)
}

// BoolArgument checks an argument of clause that typed as dt, or failed to
// type with err: it passes err on, and refuses dt unless it is BOOL or NULL.
func BoolArgument(clause string, dt types.DataType, err error) error {
	if err != nil || dt == types.TypeBool || dt == types.TypeNull {
		return err
	}
	return fmt.Errorf("argument of %s %w, not type %s", clause, ErrNotBoolean, dt)
}

// InferType types e by the engine's one type rule and reports the first
// operand that breaks it; every operand and column has the type the plan
// gave it.
//   - Two operands meet where types.CommonType finds them a type: both
//     numeric, both VARCHAR, both BOOL, or either NULL. LIKE takes VARCHARs.
//     ComparedOperands lists the pairs.
//   - Arithmetic and unary minus take numbers or NULL.
//   - AND, OR, NOT and a CASE's WHEN take BOOL or NULL (BoolArgument).
//   - A CASE has the common type of its branches.
//   - SUM and AVG take a number; a function takes the arguments of its
//     signature (functions).
func InferType(e Expression) (types.DataType, error) {
	return typer{}.of(e)
}

// TypeSlots is InferType for the binder: it types each open placeholder slot
// (a Parameter of type NULL, or its negation) by its first typed use — the
// other operand of a comparison, BETWEEN, IN, LIKE or arithmetic, the other
// branches of a CASE, a function's argument, BOOL under AND, OR, NOT and
// WHEN, and want (NULL for none) at the root. A slot whose own type is needed
// but that nothing typed (`$1`, `-$1`, `$1 + $2`) is VARCHAR, PostgreSQL's
// type for an unknown parameter; a bare slot beside a NULL-typed operand
// (operand) stays open, for a later use or the end of the statement.
func TypeSlots(e Expression, want types.DataType) (types.DataType, error) {
	t := typer{slots: true}
	t.expect(e, want)
	return t.of(e)
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

// signature is a scalar function's argument and result types.
type signature struct {
	args   []types.DataType
	result types.DataType
}

// functions are the signatures of the scalar functions, the control
// functions (which the pipeline runs) included.
var functions = map[string]signature{
	"substring":       {[]types.DataType{types.TypeString, types.TypeInt64, types.TypeInt64}, types.TypeString},
	"substr":          {[]types.DataType{types.TypeString, types.TypeInt64, types.TypeInt64}, types.TypeString},
	"upper":           {[]types.DataType{types.TypeString}, types.TypeString},
	"lower":           {[]types.DataType{types.TypeString}, types.TypeString},
	"length":          {[]types.DataType{types.TypeString}, types.TypeInt64},
	"cancel_query":    {[]types.DataType{types.TypeInt64}, types.TypeInt64},
	"promote_replica": {nil, types.TypeInt64},
}

// typer is the walk of InferType and, with slots, of TypeSlots.
type typer struct {
	slots bool
}

// open returns the slot of e when e is one TypeSlots may still type, or its
// negation.
func (t typer) open(e Expression) *Parameter {
	for n, ok := e.(*Negation); ok; n, ok = e.(*Negation) {
		e = n.Child
	}
	if p, ok := e.(*Parameter); ok && t.slots && p.DT == types.TypeNull {
		return p
	}
	return nil
}

// expect gives e type dt when e is an open slot.
func (t typer) expect(e Expression, dt types.DataType) {
	if p := t.open(e); p != nil {
		p.DT = dt
	}
}

func (t typer) of(e Expression) (types.DataType, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Value.Type, nil
	case *Parameter:
		if t.open(x) != nil {
			x.DT = types.TypeString // nothing typed it
		}
		return x.DT, nil
	case *OuterRef:
		return x.DT, nil
	case *Subquery:
		return x.DT, nil
	case *BoundColumn:
		return x.DT, nil
	case *Negation:
		dt, err := t.of(x.Child)
		if err == nil && !numeric(dt) {
			err = fmt.Errorf("operator %w: - %s", ErrUndefinedFunction, dt)
		}
		return dt, err
	case *Arithmetic:
		l, r, err := t.pair(x.Left, x.Right, t.of)
		if err == nil && (!numeric(l) || !numeric(r)) {
			err = noOperator(l, x.Op, r)
		}
		dt, _ := types.CommonType(l, r)
		return dt, err
	case *Comparison, *Between, *In:
		return types.TypeBool, ComparedOperands(e, t.meet)
	case *Logical:
		return types.TypeBool, t.bools(x.Op.String(), x.Left, x.Right)
	case *Not:
		return types.TypeBool, t.bools("NOT", x.Child)
	case *IsNull:
		_, err := t.operand(x.Child)
		return types.TypeBool, err
	case *Exists:
		return types.TypeBool, nil
	case *Case:
		if t.slots { // an open branch takes the others' common type
			others, _ := typer{}.of(x)
			for _, w := range x.Whens {
				t.expect(w.Then, others)
			}
			t.expect(x.Else, others)
		}
		dt := types.TypeNull
		for i, c := range x.Children() { // WHEN, THEN, …, ELSE
			if i%2 == 0 && i < 2*len(x.Whens) { // a WHEN
				if err := t.bools("CASE/WHEN", c); err != nil {
					return types.TypeNull, err
				}
				continue
			}
			ct, err := t.of(c)
			if err != nil {
				return types.TypeNull, err
			}
			common, ok := types.CommonType(dt, ct)
			if !ok {
				return types.TypeNull, fmt.Errorf("CASE types %s and %s %w", dt, ct, ErrDatatypeMismatch)
			}
			dt = common
		}
		return dt, nil
	case *FunctionCall:
		sig, ok := functions[x.Name]
		if !ok || len(x.Args) != len(sig.args) {
			return types.TypeNull, fmt.Errorf("function %s with %d argument(s) %w", x.Name, len(x.Args), ErrUndefinedFunction)
		}
		for i, a := range x.Args {
			t.expect(a, sig.args[i])
			dt, err := t.of(a)
			if err != nil {
				return types.TypeNull, err
			}
			if dt != sig.args[i] && dt != types.TypeNull {
				return types.TypeNull, fmt.Errorf("function %s(%s) %w", x.Name, dt, ErrUndefinedFunction)
			}
		}
		return sig.result, nil
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
		case !numeric(dt):
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

// numeric reports whether arithmetic, SUM and AVG take an operand of type dt.
func numeric(dt types.DataType) bool { return dt.IsNumeric() || dt == types.TypeNull }

// bools types the operands of op (AND, OR, NOT, CASE/WHEN), an open slot as
// BOOL, and returns the first error.
func (t typer) bools(op string, es ...Expression) error {
	for _, e := range es {
		t.expect(e, types.TypeBool)
		dt, err := t.of(e)
		if err = BoolArgument(op, dt, err); err != nil {
			return err
		}
	}
	return nil
}

// pair types two operands that meet, each by side: an open slot on one side
// takes the other side's type.
func (t typer) pair(a, b Expression, side func(Expression) (types.DataType, error)) (types.DataType, types.DataType, error) {
	if p := t.open(a); p != nil {
		p.DT, _ = typer{}.of(b)
	}
	l, err := side(a)
	if err != nil {
		return l, types.TypeNull, err
	}
	t.expect(b, l)
	r, err := side(b)
	return l, r, err
}

// operand types an operand of a comparison or IS NULL: NULL for a bare slot
// still open.
func (t typer) operand(e Expression) (types.DataType, error) {
	if p, ok := e.(*Parameter); ok && t.open(p) != nil {
		return types.TypeNull, nil
	}
	return t.of(e)
}

// meet checks that a and b may meet in the comparison op.
func (t typer) meet(op ComparisonOp, a, b Expression) error {
	l, r, err := t.pair(a, b, t.operand)
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
