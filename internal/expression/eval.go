package expression

import (
	"encoding/binary"
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
		return ctx.Column(x.Index)
	case *ColumnRef:
		return nil, fmt.Errorf("expression: unresolved column %s (translator must bind columns)", x)
	case *Negation:
		return evalNegation(x, ctx)
	case *Arithmetic:
		return evalArithmetic(x, ctx)
	case *Comparison:
		return evalComparison(x, ctx)
	case *Logical:
		return evalLogical(x, ctx)
	case *Not:
		return evalNot(x, ctx)
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
		out := make([]int64, c.N)
		for i, v := range c.I {
			out[i] = -v
		}
		return &Vector{DT: types.TypeInt64, I: out, Nulls: c.Nulls, N: c.N}, nil
	case types.TypeFloat64:
		out := make([]float64, c.N)
		for i, v := range c.F {
			out[i] = -v
		}
		return &Vector{DT: types.TypeFloat64, F: out, Nulls: c.Nulls, N: c.N}, nil
	case types.TypeNull:
		return c, nil
	default:
		return nil, fmt.Errorf("expression: cannot negate %s", c.DT)
	}
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

func evalArithmetic(x *Arithmetic, ctx *Context) (*Vector, error) {
	l, err := Evaluate(x.Left, ctx)
	if err != nil {
		return nil, err
	}
	r, err := Evaluate(x.Right, ctx)
	if err != nil {
		return nil, err
	}
	if l.DT == types.TypeNull || r.DT == types.TypeNull {
		return ConstVector(types.NullValue, ctx.N), nil
	}
	if !numericDT(l.DT) || !numericDT(r.DT) {
		return nil, fmt.Errorf("expression: arithmetic on %s and %s", l.DT, r.DT)
	}
	nulls := mergeNulls(l.Nulls, r.Nulls, ctx.N)
	// `/ 0` and `% 0` are NULL, for integers and floats alike.
	divides := x.Op == Div || x.Op == Mod
	// Integer arithmetic stays integral; mixed promotes to float.
	if l.DT == types.TypeInt64 && r.DT == types.TypeInt64 {
		out := make([]int64, ctx.N)
		for i := 0; i < ctx.N; i++ {
			if nulls != nil && nulls[i] {
				continue
			}
			a, b := l.I[i], r.I[i]
			if divides && b == 0 {
				nulls = nullAt(nulls, ctx.N, i)
				continue
			}
			switch x.Op {
			case Add:
				out[i] = a + b
			case Sub:
				out[i] = a - b
			case Mul:
				out[i] = a * b
			case Div:
				out[i] = a / b
			case Mod:
				out[i] = a % b
			}
		}
		return &Vector{DT: types.TypeInt64, I: out, Nulls: nulls, N: ctx.N}, nil
	}
	lf, rf := l.Floats(), r.Floats()
	out := make([]float64, ctx.N)
	for i := 0; i < ctx.N; i++ {
		if nulls != nil && nulls[i] {
			continue
		}
		a, b := lf[i], rf[i]
		if divides && b == 0 {
			nulls = nullAt(nulls, ctx.N, i)
			continue
		}
		switch x.Op {
		case Add:
			out[i] = a + b
		case Sub:
			out[i] = a - b
		case Mul:
			out[i] = a * b
		case Div:
			out[i] = a / b
		case Mod:
			out[i] = math.Mod(a, b)
		}
	}
	return &Vector{DT: types.TypeFloat64, F: out, Nulls: nulls, N: ctx.N}, nil
}

// nullAt marks row i of an n-row null map, allocating the map on first use.
func nullAt(nulls []bool, n, i int) []bool {
	if nulls == nil {
		nulls = make([]bool, n)
	}
	nulls[i] = true
	return nulls
}

func numericDT(dt types.DataType) bool {
	return dt == types.TypeInt64 || dt == types.TypeFloat64
}

func evalComparison(x *Comparison, ctx *Context) (*Vector, error) {
	l, err := Evaluate(x.Left, ctx)
	if err != nil {
		return nil, err
	}
	r, err := Evaluate(x.Right, ctx)
	if err != nil {
		return nil, err
	}
	n := ctx.N
	nulls := mergeNulls(l.Nulls, r.Nulls, n)
	out := make([]bool, n)

	if x.Op == Like || x.Op == NotLike {
		if l.DT != types.TypeString || r.DT != types.TypeString {
			if l.DT == types.TypeNull || r.DT == types.TypeNull {
				return &Vector{DT: types.TypeBool, B: out, Nulls: allNulls(n), N: n}, nil
			}
			return nil, fmt.Errorf("expression: LIKE requires strings, got %s and %s", l.DT, r.DT)
		}
		// The pattern is almost always constant; compile once per distinct
		// pattern in this vector.
		var m *LikeMatcher
		var lastPattern string
		for i := 0; i < n; i++ {
			if nulls != nil && nulls[i] {
				continue
			}
			if m == nil || r.S[i] != lastPattern {
				lastPattern = r.S[i]
				m = CompileLike(lastPattern)
			}
			matched := m.Match(l.S[i])
			if x.Op == NotLike {
				matched = !matched
			}
			out[i] = matched
		}
		return &Vector{DT: types.TypeBool, B: out, Nulls: nulls, N: n}, nil
	}

	if l.DT == types.TypeNull || r.DT == types.TypeNull {
		return &Vector{DT: types.TypeBool, B: out, Nulls: allNulls(n), N: n}, nil
	}

	switch {
	case l.DT == types.TypeString && r.DT == types.TypeString:
		compareRows(x.Op, l.S, r.S, nulls, out)
	case l.DT == types.TypeInt64 && r.DT == types.TypeInt64:
		compareRows(x.Op, l.I, r.I, nulls, out)
	case numericDT(l.DT) && numericDT(r.DT):
		compareRows(x.Op, l.Floats(), r.Floats(), nulls, out)
	default:
		return nil, fmt.Errorf("expression: cannot compare %s with %s", l.DT, r.DT)
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

func allNulls(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = true
	}
	return out
}

// evalLogical implements three-valued AND/OR.
func evalLogical(x *Logical, ctx *Context) (*Vector, error) {
	l, err := Evaluate(x.Left, ctx)
	if err != nil {
		return nil, err
	}
	r, err := Evaluate(x.Right, ctx)
	if err != nil {
		return nil, err
	}
	if (l.DT != types.TypeBool && l.DT != types.TypeNull) || (r.DT != types.TypeBool && r.DT != types.TypeNull) {
		return nil, fmt.Errorf("expression: %s on non-boolean operands", x.Op)
	}
	n := ctx.N
	out := make([]bool, n)
	var nulls []bool
	setNull := func(i int) {
		if nulls == nil {
			nulls = make([]bool, n)
		}
		nulls[i] = true
	}
	for i := 0; i < n; i++ {
		lNull := l.DT == types.TypeNull || l.IsNullAt(i)
		rNull := r.DT == types.TypeNull || r.IsNullAt(i)
		lVal := !lNull && l.B[i]
		rVal := !rNull && r.B[i]
		if x.Op == And {
			switch {
			case !lNull && !lVal, !rNull && !rVal:
				out[i] = false // FALSE dominates
			case lNull || rNull:
				setNull(i)
			default:
				out[i] = true
			}
		} else { // Or
			switch {
			case lVal, rVal:
				out[i] = true // TRUE dominates
			case lNull || rNull:
				setNull(i)
			default:
				out[i] = false
			}
		}
	}
	return &Vector{DT: types.TypeBool, B: out, Nulls: nulls, N: n}, nil
}

func evalNot(x *Not, ctx *Context) (*Vector, error) {
	c, err := Evaluate(x.Child, ctx)
	if err != nil {
		return nil, err
	}
	if c.DT != types.TypeBool && c.DT != types.TypeNull {
		return nil, fmt.Errorf("expression: NOT on non-boolean operand")
	}
	out := make([]bool, ctx.N)
	for i := 0; i < ctx.N; i++ {
		if c.DT == types.TypeBool && !c.IsNullAt(i) {
			out[i] = !c.B[i]
		}
	}
	var nulls []bool
	if c.DT == types.TypeNull {
		nulls = allNulls(ctx.N)
	} else {
		nulls = c.Nulls
	}
	return &Vector{DT: types.TypeBool, B: out, Nulls: nulls, N: ctx.N}, nil
}

func evalIsNull(x *IsNull, ctx *Context) (*Vector, error) {
	c, err := Evaluate(x.Child, ctx)
	if err != nil {
		return nil, err
	}
	out := make([]bool, ctx.N)
	for i := 0; i < ctx.N; i++ {
		isNull := c.DT == types.TypeNull || c.IsNullAt(i)
		out[i] = isNull != x.Negate
	}
	return &Vector{DT: types.TypeBool, B: out, N: ctx.N}, nil
}

func evalCase(x *Case, ctx *Context) (*Vector, error) {
	// Evaluate all branches, then select per row. decided[i] tracks rows
	// already matched by an earlier WHEN.
	n := ctx.N
	decided := make([]bool, n)
	var result *Vector

	assign := func(res *Vector, branch *Vector, rows []bool) (*Vector, error) {
		if res == nil {
			res = &Vector{DT: branch.DT, N: n, Nulls: allNulls(n)}
			switch branch.DT {
			case types.TypeInt64:
				res.I = make([]int64, n)
			case types.TypeFloat64:
				res.F = make([]float64, n)
			case types.TypeString:
				res.S = make([]string, n)
			case types.TypeBool:
				res.B = make([]bool, n)
			}
		}
		// Promote int result to float if a later branch yields floats.
		if res.DT == types.TypeInt64 && branch.DT == types.TypeFloat64 {
			res.F = make([]float64, n)
			for i, v := range res.I {
				res.F[i] = float64(v)
			}
			res.I = nil
			res.DT = types.TypeFloat64
		}
		for i := 0; i < n; i++ {
			if !rows[i] {
				continue
			}
			if branch.DT == types.TypeNull || branch.IsNullAt(i) {
				continue // stays NULL
			}
			res.Nulls[i] = false
			switch res.DT {
			case types.TypeInt64:
				res.I[i] = branch.I[i]
			case types.TypeFloat64:
				if branch.DT == types.TypeInt64 {
					res.F[i] = float64(branch.I[i])
				} else {
					res.F[i] = branch.F[i]
				}
			case types.TypeString:
				res.S[i] = branch.S[i]
			case types.TypeBool:
				res.B[i] = branch.B[i]
			default:
				return nil, fmt.Errorf("expression: CASE branch type mismatch (%s vs %s)", res.DT, branch.DT)
			}
		}
		return res, nil
	}

	for _, w := range x.Whens {
		cond, err := EvaluateBool(w.When, ctx)
		if err != nil {
			return nil, err
		}
		rows := make([]bool, n)
		anyRow := false
		for i := 0; i < n; i++ {
			if !decided[i] && cond[i] {
				rows[i] = true
				decided[i] = true
				anyRow = true
			}
		}
		then, err := Evaluate(w.Then, ctx)
		if err != nil {
			return nil, err
		}
		if result == nil || anyRow {
			if result, err = assign(result, then, rows); err != nil {
				return nil, err
			}
		}
	}
	if x.Else != nil {
		els, err := Evaluate(x.Else, ctx)
		if err != nil {
			return nil, err
		}
		rows := make([]bool, n)
		for i := 0; i < n; i++ {
			rows[i] = !decided[i]
		}
		if result, err = assign(result, els, rows); err != nil {
			return nil, err
		}
	}
	if result == nil {
		return ConstVector(types.NullValue, n), nil
	}
	return result, nil
}

func evalFunction(x *FunctionCall, ctx *Context) (*Vector, error) {
	switch x.Name {
	case "substring", "substr":
		if len(x.Args) != 3 {
			return nil, fmt.Errorf("expression: substring needs 3 arguments")
		}
		str, err := Evaluate(x.Args[0], ctx)
		if err != nil {
			return nil, err
		}
		from, err := Evaluate(x.Args[1], ctx)
		if err != nil {
			return nil, err
		}
		length, err := Evaluate(x.Args[2], ctx)
		if err != nil {
			return nil, err
		}
		if str.DT != types.TypeString {
			return nil, fmt.Errorf("expression: substring on %s", str.DT)
		}
		out := make([]string, ctx.N)
		nulls := mergeNulls(mergeNulls(str.Nulls, from.Nulls, ctx.N), length.Nulls, ctx.N)
		fromI, lenI := from.Floats(), length.Floats()
		for i := 0; i < ctx.N; i++ {
			if nulls != nil && nulls[i] {
				continue
			}
			out[i] = substringSQL(str.S[i], int(fromI[i]), int(lenI[i]))
		}
		return &Vector{DT: types.TypeString, S: out, Nulls: nulls, N: ctx.N}, nil
	case "upper", "lower", "length":
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("expression: %s needs 1 argument", x.Name)
		}
		str, err := Evaluate(x.Args[0], ctx)
		if err != nil {
			return nil, err
		}
		if str.DT != types.TypeString {
			return nil, fmt.Errorf("expression: %s on %s", x.Name, str.DT)
		}
		if x.Name == "length" {
			out := make([]int64, ctx.N)
			for i, s := range str.S {
				out[i] = int64(len(s))
			}
			return &Vector{DT: types.TypeInt64, I: out, Nulls: str.Nulls, N: ctx.N}, nil
		}
		out := make([]string, ctx.N)
		for i, s := range str.S {
			if x.Name == "upper" {
				out[i] = strings.ToUpper(s)
			} else {
				out[i] = strings.ToLower(s)
			}
		}
		return &Vector{DT: types.TypeString, S: out, Nulls: str.Nulls, N: ctx.N}, nil
	default:
		return nil, fmt.Errorf("expression: unknown function %q", x.Name)
	}
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
		return ConstVector(v, ctx.N), nil
	}
	vals := make([]types.Value, ctx.N)
	for i := 0; i < ctx.N; i++ {
		v, err := ctx.ExecScalarSubquery(x, outer[i])
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vectorFromValues(vals), nil
}

func evalIn(x *In, ctx *Context) (*Vector, error) {
	child, err := Evaluate(x.Child, ctx)
	if err != nil {
		return nil, err
	}
	n := ctx.N
	out := make([]bool, n)
	var nulls []bool
	setNull := func(i int) {
		if nulls == nil {
			nulls = make([]bool, n)
		}
		nulls[i] = true
	}

	if x.Subquery == nil {
		// Literal list: evaluate each element, then per-row membership with
		// three-valued semantics.
		elems := make([]*Vector, len(x.List))
		for i, e := range x.List {
			v, err := Evaluate(e, ctx)
			if err != nil {
				return nil, err
			}
			elems[i] = v
		}
		for i := 0; i < n; i++ {
			cv := child.ValueAt(i)
			if cv.IsNull() {
				setNull(i)
				continue
			}
			found, anyNull := false, false
			for _, ev := range elems {
				e := ev.ValueAt(i)
				if e.IsNull() {
					anyNull = true
					continue
				}
				if cv.Equal(e) {
					found = true
					break
				}
			}
			switch {
			case found:
				out[i] = !x.Negate
			case anyNull:
				setNull(i)
			default:
				out[i] = x.Negate
			}
		}
		return &Vector{DT: types.TypeBool, B: out, Nulls: nulls, N: n}, nil
	}

	if ctx.ExecInSubquery == nil {
		return nil, fmt.Errorf("expression: no IN-subquery executor installed")
	}
	outer, err := outerRows(x.Subquery, ctx)
	if err != nil {
		return nil, err
	}
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
			setNull(i)
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
			setNull(i)
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
	n := ctx.N
	out := make([]bool, n)
	outer, err := outerRows(x.Subquery, ctx)
	if err != nil {
		return nil, err
	}
	if outer == nil {
		exists, err := ctx.ExecExistsSubquery(x.Subquery, nil)
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i] = exists != x.Negate
		}
		return &Vector{DT: types.TypeBool, B: out, N: n}, nil
	}
	for i := 0; i < n; i++ {
		exists, err := ctx.ExecExistsSubquery(x.Subquery, outer[i])
		if err != nil {
			return nil, err
		}
		out[i] = exists != x.Negate
	}
	return &Vector{DT: types.TypeBool, B: out, N: n}, nil
}

// vectorFromValues builds a typed vector from dynamic values, promoting
// numerics to float when mixed.
func vectorFromValues(vals []types.Value) *Vector {
	n := len(vals)
	dt := types.TypeNull
	for _, v := range vals {
		if v.IsNull() {
			continue
		}
		if dt == types.TypeNull {
			dt = v.Type
		} else if dt != v.Type {
			dt = types.CommonType(dt, v.Type)
		}
	}
	var nulls []bool
	ensureNulls := func(i int) {
		if nulls == nil {
			nulls = make([]bool, n)
		}
		nulls[i] = true
	}
	switch dt {
	case types.TypeInt64:
		out := make([]int64, n)
		for i, v := range vals {
			if v.IsNull() {
				ensureNulls(i)
				continue
			}
			out[i] = v.AsInt()
		}
		return &Vector{DT: dt, I: out, Nulls: nulls, N: n}
	case types.TypeFloat64:
		out := make([]float64, n)
		for i, v := range vals {
			if v.IsNull() {
				ensureNulls(i)
				continue
			}
			out[i] = v.AsFloat()
		}
		return &Vector{DT: dt, F: out, Nulls: nulls, N: n}
	case types.TypeString:
		out := make([]string, n)
		for i, v := range vals {
			if v.IsNull() {
				ensureNulls(i)
				continue
			}
			out[i] = v.S
		}
		return &Vector{DT: dt, S: out, Nulls: nulls, N: n}
	default:
		return ConstVector(types.NullValue, n)
	}
}

// InferType predicts the result type of an expression given a resolver for
// column types. Used by translators to compute output schemas.
func InferType(e Expression, columnType func(index int) types.DataType) types.DataType {
	switch x := e.(type) {
	case *Literal:
		return x.Value.Type
	case *Parameter, *OuterRef:
		return types.TypeNull // unknown until bound
	case *BoundColumn:
		if x.DT != types.TypeNull {
			return x.DT
		}
		if columnType != nil {
			return columnType(x.Index)
		}
		return types.TypeNull
	case *Negation:
		return InferType(x.Child, columnType)
	case *Arithmetic:
		return types.CommonType(InferType(x.Left, columnType), InferType(x.Right, columnType))
	case *Comparison, *Logical, *Not, *IsNull, *Between, *In, *Exists:
		return types.TypeBool
	case *Case:
		dt := types.TypeNull
		for _, w := range x.Whens {
			dt = types.CommonType(dt, InferType(w.Then, columnType))
		}
		if x.Else != nil {
			dt = types.CommonType(dt, InferType(x.Else, columnType))
		}
		return dt
	case *FunctionCall:
		if x.Name == "length" {
			return types.TypeInt64
		}
		return types.TypeString
	case *Aggregate:
		switch x.Fn {
		case AggCount, AggCountStar, AggCountDistinct:
			return types.TypeInt64
		case AggAvg:
			return types.TypeFloat64
		case AggSum:
			dt := InferType(x.Arg, columnType)
			if dt == types.TypeInt64 {
				return types.TypeInt64
			}
			return types.TypeFloat64
		default:
			return InferType(x.Arg, columnType)
		}
	case *Subquery:
		return types.TypeNull // resolved by the translator from the sub-plan
	default:
		return types.TypeNull
	}
}
