package expression

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// testCtx builds a context over in-line columns.
func testCtx(cols ...*Vector) *Context {
	n := 0
	if len(cols) > 0 {
		n = cols[0].N
	}
	return &Context{
		N: n,
		Column: func(i int) (*Vector, error) {
			return cols[i], nil
		},
	}
}

func col(i int) *BoundColumn { return &BoundColumn{Index: i} }
func lit(v types.Value) *Literal {
	return NewLiteral(v)
}

func TestEvaluateLiteralAndParameter(t *testing.T) {
	ctx := &Context{N: 3, Params: []types.Value{types.Int(9)}}
	v, err := Evaluate(lit(types.Int(5)), ctx)
	if err != nil || v.DT != types.TypeInt64 || v.I[2] != 5 {
		t.Fatalf("literal: %v %v", v, err)
	}
	v, err = Evaluate(&Parameter{ID: 0}, ctx)
	if err != nil || v.I[0] != 9 {
		t.Fatalf("param: %v %v", v, err)
	}
	if _, err := Evaluate(&Parameter{ID: 5}, ctx); err == nil {
		t.Error("unbound parameter should fail")
	}
	if _, err := Evaluate(&ColumnRef{Name: "x"}, ctx); err == nil {
		t.Error("unresolved ColumnRef should fail")
	}
}

func TestArithmetic(t *testing.T) {
	a := NewIntVector([]int64{10, 20, 30}, nil)
	b := NewIntVector([]int64{3, 0, 7}, nil)
	ctx := testCtx(a, b)

	tests := []struct {
		op   ArithmeticOp
		want []int64
	}{
		{Add, []int64{13, 20, 37}},
		{Sub, []int64{7, 20, 23}},
		{Mul, []int64{30, 0, 210}},
	}
	for _, tc := range tests {
		v, err := Evaluate(&Arithmetic{Op: tc.op, Left: col(0), Right: col(1)}, ctx)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range tc.want {
			if v.I[i] != want {
				t.Errorf("%v: [%d] = %d, want %d", tc.op, i, v.I[i], want)
			}
		}
	}
	// Division by zero yields NULL, not a crash.
	v, err := Evaluate(&Arithmetic{Op: Div, Left: col(0), Right: col(1)}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v.I[0] != 3 || !v.IsNullAt(1) || v.I[2] != 4 {
		t.Errorf("div = %v nulls %v", v.I, v.Nulls)
	}
	// Mixed int/float promotes to float.
	f := NewFloatVector([]float64{0.5, 0.5, 0.5}, nil)
	v, err = Evaluate(&Arithmetic{Op: Mul, Left: col(0), Right: col(1)}, testCtx(a, f))
	if err != nil || v.DT != types.TypeFloat64 || v.F[0] != 5 {
		t.Errorf("mixed mul = %v, %v", v, err)
	}
	// Unary minus.
	v, err = Evaluate(&Negation{Child: col(0)}, ctx)
	if err != nil || v.I[0] != -10 {
		t.Errorf("negation = %v, %v", v, err)
	}
	// NULL literal propagates.
	v, err = Evaluate(&Arithmetic{Op: Add, Left: col(0), Right: lit(types.NullValue)}, ctx)
	if err != nil || !v.IsNullAt(0) {
		t.Errorf("null arith = %v, %v", v, err)
	}
}

func TestComparisonsAllOps(t *testing.T) {
	a := NewIntVector([]int64{1, 2, 3}, nil)
	ctx := testCtx(a)
	two := lit(types.Int(2))
	want := map[ComparisonOp][]bool{
		Eq: {false, true, false},
		Ne: {true, false, true},
		Lt: {true, false, false},
		Le: {true, true, false},
		Gt: {false, false, true},
		Ge: {false, true, true},
	}
	for op, exp := range want {
		v, err := Evaluate(&Comparison{Op: op, Left: col(0), Right: two}, ctx)
		if err != nil {
			t.Fatal(err)
		}
		for i := range exp {
			if v.B[i] != exp[i] {
				t.Errorf("%v: [%d] = %v, want %v", op, i, v.B[i], exp[i])
			}
		}
	}
}

func TestComparisonNullPropagation(t *testing.T) {
	a := NewIntVector([]int64{1, 0, 3}, []bool{false, true, false})
	v, err := Evaluate(&Comparison{Op: Gt, Left: col(0), Right: lit(types.Int(0))}, testCtx(a))
	if err != nil {
		t.Fatal(err)
	}
	if !v.B[0] || !v.IsNullAt(1) || !v.B[2] {
		t.Errorf("null comparison = %v / %v", v.B, v.Nulls)
	}
}

// TestDivisionByZeroIsNull: `/ 0` and `% 0` are NULL whatever the operand
// types — a float `%` used to return NaN (math.Mod) where every other case
// returns NULL.
func TestDivisionByZeroIsNull(t *testing.T) {
	ints := NewIntVector([]int64{7, 7}, nil)
	floats := NewFloatVector([]float64{7.5, 7.5}, nil)
	divisors := map[string]*Vector{
		"int":   NewIntVector([]int64{2, 0}, nil),
		"float": NewFloatVector([]float64{2, math.Copysign(0, -1)}, nil),
	}
	for _, op := range []ArithmeticOp{Div, Mod} {
		for _, left := range []*Vector{ints, floats} {
			for name, right := range divisors {
				v, err := Evaluate(&Arithmetic{Op: op, Left: col(0), Right: col(1)}, testCtx(left, right))
				if err != nil {
					t.Fatal(err)
				}
				if v.IsNullAt(0) || !v.IsNullAt(1) {
					t.Errorf("%s %v by %s {2, 0}: nulls %v, want only the zero divisor's row NULL (values %v %v)", left.DT, op, name, v.Nulls, v.I, v.F)
				}
			}
		}
	}
}

// TestComparisonIsIEEE: the evaluator compares floats like the scan kernels —
// NaN matches no `=`, `<`, `<=`, `>`, `>=`, BETWEEN or IN and every `<>`, and
// -0 equals +0.
func TestComparisonIsIEEE(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	f := NewFloatVector([]float64{nan, 0.5, negZero, 1}, nil)
	for _, probe := range []float64{0.5, 0, nan} {
		for op, holds := range map[ComparisonOp]func(a, b float64) bool{
			Eq: func(a, b float64) bool { return a == b }, Ne: func(a, b float64) bool { return a != b },
			Lt: func(a, b float64) bool { return a < b }, Le: func(a, b float64) bool { return a <= b },
			Gt: func(a, b float64) bool { return a > b }, Ge: func(a, b float64) bool { return a >= b },
		} {
			v, err := Evaluate(&Comparison{Op: op, Left: col(0), Right: lit(types.Float(probe))}, testCtx(f))
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range f.F {
				if v.B[i] != holds(x, probe) {
					t.Errorf("%v %v %v = %v", x, op, probe, v.B[i])
				}
			}
		}
	}
	in := func(negate bool) []bool {
		t.Helper()
		v, err := Evaluate(&In{Child: col(0), List: []Expression{lit(types.Float(0.5)), lit(types.Float(0)), lit(types.Float(nan))}, Negate: negate}, testCtx(f))
		if err != nil || v.Nulls != nil {
			t.Fatalf("IN: %v, nulls %v", err, v.Nulls)
		}
		return v.B
	}
	if got := in(false); !reflect.DeepEqual(got, []bool{false, true, true, false}) {
		t.Errorf("f IN (0.5, 0, NaN) = %v", got)
	}
	if got := in(true); !reflect.DeepEqual(got, []bool{true, false, false, true}) {
		t.Errorf("f NOT IN (0.5, 0, NaN) = %v", got)
	}
}

func TestStringComparisonAndMixedNumeric(t *testing.T) {
	s := NewStringVector([]string{"1995-01-01", "1997-06-15"}, nil)
	v, err := Evaluate(&Comparison{Op: Lt, Left: col(0), Right: lit(types.Str("1996-01-01"))}, testCtx(s))
	if err != nil || !v.B[0] || v.B[1] {
		t.Errorf("date-as-string compare = %v, %v", v, err)
	}
	i := NewIntVector([]int64{5}, nil)
	v, err = Evaluate(&Comparison{Op: Eq, Left: col(0), Right: lit(types.Float(5.0))}, testCtx(i))
	if err != nil || !v.B[0] {
		t.Errorf("int=float compare = %v, %v", v, err)
	}
}

func TestThreeValuedLogic(t *testing.T) {
	// t[0]=TRUE, t[1]=FALSE, t[2]=NULL
	b := NewBoolVector([]bool{true, false, false}, []bool{false, false, true})
	ctx := testCtx(b, b)

	// NULL AND FALSE = FALSE; NULL AND TRUE = NULL.
	v, err := Evaluate(&Logical{Op: And, Left: col(0), Right: lit(types.Bool(false))}, ctx)
	if err != nil || v.B[2] || v.IsNullAt(2) {
		t.Errorf("NULL AND FALSE = %v/%v, want FALSE", v.B[2], v.IsNullAt(2))
	}
	v, _ = Evaluate(&Logical{Op: And, Left: col(0), Right: lit(types.Bool(true))}, ctx)
	if !v.IsNullAt(2) || !v.B[0] || v.B[1] {
		t.Error("AND TRUE wrong")
	}
	// NULL OR TRUE = TRUE; NULL OR FALSE = NULL.
	v, _ = Evaluate(&Logical{Op: Or, Left: col(0), Right: lit(types.Bool(true))}, ctx)
	if v.IsNullAt(2) || !v.B[2] {
		t.Error("NULL OR TRUE should be TRUE")
	}
	v, _ = Evaluate(&Logical{Op: Or, Left: col(0), Right: lit(types.Bool(false))}, ctx)
	if !v.IsNullAt(2) || !v.B[0] || v.B[1] {
		t.Error("OR FALSE wrong")
	}
	// NOT NULL = NULL.
	v, _ = Evaluate(&Not{Child: col(0)}, ctx)
	if !v.IsNullAt(2) || v.B[0] || !v.B[1] {
		t.Error("NOT wrong")
	}
	// IS NULL / IS NOT NULL are never NULL.
	v, _ = Evaluate(&IsNull{Child: col(0)}, ctx)
	if v.IsNullAt(2) || !v.B[2] || v.B[0] {
		t.Error("IS NULL wrong")
	}
	v, _ = Evaluate(&IsNull{Child: col(0), Negate: true}, ctx)
	if !v.B[0] || v.B[2] {
		t.Error("IS NOT NULL wrong")
	}
}

func TestEvaluateBoolFiltersNulls(t *testing.T) {
	b := NewBoolVector([]bool{true, false, true}, []bool{false, false, true})
	rows, err := EvaluateBool(col(0), testCtx(b))
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0] || rows[1] || rows[2] {
		t.Errorf("EvaluateBool = %v", rows)
	}
}

func TestBetween(t *testing.T) {
	a := NewIntVector([]int64{1, 5, 10}, nil)
	v, err := Evaluate(&Between{Child: col(0), Lo: lit(types.Int(2)), Hi: lit(types.Int(9))}, testCtx(a))
	if err != nil {
		t.Fatal(err)
	}
	if v.B[0] || !v.B[1] || v.B[2] {
		t.Errorf("between = %v", v.B)
	}
}

func TestInList(t *testing.T) {
	a := NewIntVector([]int64{1, 2, 3}, []bool{false, false, true})
	in := &In{Child: col(0), List: []Expression{lit(types.Int(1)), lit(types.Int(9))}}
	v, err := Evaluate(in, testCtx(a))
	if err != nil {
		t.Fatal(err)
	}
	if !v.B[0] || v.B[1] || !v.IsNullAt(2) {
		t.Errorf("in = %v / %v", v.B, v.Nulls)
	}
	// NOT IN with NULL in the list: no match becomes NULL.
	notIn := &In{Child: col(0), List: []Expression{lit(types.Int(9)), lit(types.NullValue)}, Negate: true}
	v, err = Evaluate(notIn, testCtx(a))
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsNullAt(0) || !v.IsNullAt(1) {
		t.Errorf("NOT IN with NULL list should be NULL, got %v / %v", v.B, v.Nulls)
	}
}

func TestCaseExpression(t *testing.T) {
	a := NewIntVector([]int64{1, 2, 3, 4}, nil)
	c := &Case{
		Whens: []CaseWhen{
			{When: &Comparison{Op: Lt, Left: col(0), Right: lit(types.Int(2))}, Then: lit(types.Str("low"))},
			{When: &Comparison{Op: Lt, Left: col(0), Right: lit(types.Int(4))}, Then: lit(types.Str("mid"))},
		},
		Else: lit(types.Str("high")),
	}
	v, err := Evaluate(c, testCtx(a))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"low", "mid", "mid", "high"}
	for i, w := range want {
		if v.S[i] != w {
			t.Errorf("case[%d] = %q, want %q", i, v.S[i], w)
		}
	}
	// Without ELSE, unmatched rows are NULL.
	noElse := &Case{Whens: c.Whens}
	v, err = Evaluate(noElse, testCtx(a))
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsNullAt(3) || v.S[0] != "low" {
		t.Error("case without else wrong")
	}
	// Int-then-float branches promote.
	promo := &Case{
		Whens: []CaseWhen{{When: &Comparison{Op: Eq, Left: col(0), Right: lit(types.Int(1))}, Then: lit(types.Int(7))}},
		Else:  lit(types.Float(0.5)),
	}
	v, err = Evaluate(promo, testCtx(a))
	if err != nil || v.DT != types.TypeFloat64 || v.F[0] != 7 || v.F[1] != 0.5 {
		t.Errorf("case promotion = %v, %v", v, err)
	}
}

func TestSubstring(t *testing.T) {
	s := NewStringVector([]string{"13-345-6789", "x"}, nil)
	f := &FunctionCall{Name: "substring", Args: []Expression{col(0), lit(types.Int(1)), lit(types.Int(2))}}
	v, err := Evaluate(f, testCtx(s))
	if err != nil {
		t.Fatal(err)
	}
	if v.S[0] != "13" || v.S[1] != "x" {
		t.Errorf("substring = %v", v.S)
	}
	// Out-of-range clamps.
	f2 := &FunctionCall{Name: "substring", Args: []Expression{col(0), lit(types.Int(10)), lit(types.Int(99))}}
	v, _ = Evaluate(f2, testCtx(s))
	if v.S[0] != "89" || v.S[1] != "" {
		t.Errorf("substring clamp = %v", v.S)
	}
	// upper/lower/length.
	up, _ := Evaluate(&FunctionCall{Name: "upper", Args: []Expression{col(0)}}, testCtx(NewStringVector([]string{"abc"}, nil)))
	if up.S[0] != "ABC" {
		t.Error("upper wrong")
	}
	lo, _ := Evaluate(&FunctionCall{Name: "lower", Args: []Expression{col(0)}}, testCtx(NewStringVector([]string{"AbC"}, nil)))
	if lo.S[0] != "abc" {
		t.Error("lower wrong")
	}
	ln, _ := Evaluate(&FunctionCall{Name: "length", Args: []Expression{col(0)}}, testCtx(NewStringVector([]string{"abcd"}, nil)))
	if ln.I[0] != 4 {
		t.Error("length wrong")
	}
	if _, err := Evaluate(&FunctionCall{Name: "bogus"}, testCtx(s)); err == nil {
		t.Error("unknown function should fail")
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "hell", false},
		{"hello", "hell%", true},
		{"hello", "%llo", true},
		{"hello", "%ell%", true},
		{"hello", "%xyz%", false},
		{"special requests only", "%special%requests%", true},
		{"specialrequests", "%special%requests%", true},
		{"requests special", "%special%requests%", false},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "a%c", true},
		{"abdc", "a%c", true},
		{"abcd", "a%c", false},
		{"aXbYc", "a_b_c", true},
		{"green%", "green%", true}, // literal percent char matches itself via %
		{"PROMO BURNISHED", "PROMO%", true},
		{"MEDIUM POLISHED", "PROMO%", false},
	}
	for _, tc := range cases {
		if got := mustLike(tc.p).Match(tc.s); got != tc.want {
			t.Errorf("CompileLike(%q).Match(%q) = %v, want %v", tc.p, tc.s, got, tc.want)
		}
	}
}

// Property: the fast-path matcher agrees with the generic backtracking
// matcher on %-only patterns.
func TestLikeFastPathAgreesWithGeneric(t *testing.T) {
	f := func(s string, partsSeed []string) bool {
		pattern := "%"
		for _, p := range partsSeed {
			clean := strings.Map(func(r rune) rune {
				if r == '%' || r == '_' {
					return 'x'
				}
				return r
			}, p)
			pattern += clean + "%"
		}
		return mustLike(pattern).Match(s) == likeGenericMatch(s, pattern)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLikeInEvaluator(t *testing.T) {
	s := NewStringVector([]string{"PROMO X", "STANDARD", ""}, []bool{false, false, true})
	v, err := Evaluate(&Comparison{Op: Like, Left: col(0), Right: lit(types.Str("PROMO%"))}, testCtx(s))
	if err != nil {
		t.Fatal(err)
	}
	if !v.B[0] || v.B[1] || !v.IsNullAt(2) {
		t.Errorf("LIKE = %v / %v", v.B, v.Nulls)
	}
	v, err = Evaluate(&Comparison{Op: NotLike, Left: col(0), Right: lit(types.Str("PROMO%"))}, testCtx(s))
	if err != nil || v.B[0] || !v.B[1] || !v.IsNullAt(2) {
		t.Errorf("NOT LIKE = %v / %v / %v", v.B, v.Nulls, err)
	}
}

func TestSubqueryEvaluation(t *testing.T) {
	a := NewIntVector([]int64{1, 2, 3}, nil)
	sub := &Subquery{ID: 1}
	ctx := testCtx(a)
	ctx.ExecScalarSubquery = func(s *Subquery, params []types.Value) (types.Value, error) {
		return types.Int(42), nil
	}
	v, err := Evaluate(&Comparison{Op: Lt, Left: col(0), Right: sub}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !v.B[0] || !v.B[1] || !v.B[2] {
		t.Errorf("scalar subquery compare = %v", v.B)
	}

	// Correlated scalar: parameter = column value, subquery returns 2*param.
	corr := &Subquery{ID: 2, Correlated: []Expression{col(0)}, DT: types.TypeInt64}
	ctx.ExecScalarSubquery = func(s *Subquery, params []types.Value) (types.Value, error) {
		return types.Int(params[0].I * 2), nil
	}
	v, err = Evaluate(corr, ctx)
	if err != nil || v.I[0] != 2 || v.I[2] != 6 {
		t.Errorf("correlated scalar = %v, %v", v, err)
	}

	// IN subquery.
	ctx.ExecInSubquery = func(x *In, params []types.Value, probe *Vector) (*Vector, error) {
		out := make([]bool, probe.N)
		for i, v := range probe.I {
			out[i] = v == 2
		}
		return NewBoolVector(out, nil), nil
	}
	v, err = Evaluate(&In{Child: col(0), Subquery: sub}, ctx)
	if err != nil || v.B[0] || !v.B[1] || v.B[2] {
		t.Errorf("IN subquery = %v, %v", v, err)
	}

	// EXISTS.
	calls := 0
	ctx.ExecExistsSubquery = func(s *Subquery, params []types.Value) (bool, error) {
		calls++
		return len(params) > 0 && params[0].I > 1, nil
	}
	v, err = Evaluate(&Exists{Subquery: corr}, ctx)
	if err != nil || v.B[0] || !v.B[1] || !v.B[2] || calls != 3 {
		t.Errorf("EXISTS = %v, calls=%d, %v", v, calls, err)
	}
	// NOT EXISTS, uncorrelated: one call, broadcast.
	ctx.ExecExistsSubquery = func(s *Subquery, params []types.Value) (bool, error) { return false, nil }
	v, err = Evaluate(&Exists{Subquery: sub, Negate: true}, ctx)
	if err != nil || !v.B[0] || !v.B[2] {
		t.Errorf("NOT EXISTS = %v, %v", v, err)
	}
	// Missing executors error out.
	bare := testCtx(a)
	if _, err := Evaluate(sub, bare); err == nil {
		t.Error("scalar subquery without executor should fail")
	}
	if _, err := Evaluate(&In{Child: col(0), Subquery: sub}, bare); err == nil {
		t.Error("IN subquery without executor should fail")
	}
	if _, err := Evaluate(&Exists{Subquery: sub}, bare); err == nil {
		t.Error("EXISTS without executor should fail")
	}
}

func TestExpressionStrings(t *testing.T) {
	e := &Logical{
		Op:    And,
		Left:  &Comparison{Op: Ge, Left: &ColumnRef{Qualifier: "l", Name: "qty"}, Right: lit(types.Int(5))},
		Right: &Not{Child: &IsNull{Child: &ColumnRef{Name: "price"}}},
	}
	want := "((l.qty >= 5) AND (NOT (price IS NULL)))"
	if e.String() != want {
		t.Errorf("String = %q, want %q", e.String(), want)
	}
	if got := lit(types.Str("o'brien")).String(); got != "'o''brien'" {
		t.Errorf("string literal escape = %q", got)
	}
	agg := &Aggregate{Fn: AggSum, Arg: &ColumnRef{Name: "x"}}
	if agg.String() != "SUM(x)" {
		t.Errorf("agg string = %q", agg.String())
	}
	if (&Aggregate{Fn: AggCountStar}).String() != "COUNT(*)" {
		t.Error("count(*) string wrong")
	}
	cs := &Case{Whens: []CaseWhen{{When: lit(types.Bool(true)), Then: lit(types.Int(1))}}, Else: lit(types.Int(0))}
	if !strings.Contains(cs.String(), "WHEN") || !strings.Contains(cs.String(), "ELSE") {
		t.Errorf("case string = %q", cs.String())
	}
}

func TestSplitJoinConjunction(t *testing.T) {
	a := &Comparison{Op: Eq, Left: col(0), Right: lit(types.Int(1))}
	b := &Comparison{Op: Eq, Left: col(1), Right: lit(types.Int(2))}
	c := &Comparison{Op: Eq, Left: col(2), Right: lit(types.Int(3))}
	e := &Logical{Op: And, Left: &Logical{Op: And, Left: a, Right: b}, Right: c}
	parts := SplitConjunction(e)
	if len(parts) != 3 {
		t.Fatalf("SplitConjunction = %d parts", len(parts))
	}
	rejoined := JoinConjunction(parts)
	if rejoined.String() != e.String() {
		t.Errorf("JoinConjunction = %s", rejoined)
	}
	if JoinConjunction(nil) != nil {
		t.Error("empty conjunction should be nil")
	}
	// OR is not split.
	or := &Logical{Op: Or, Left: a, Right: b}
	if len(SplitConjunction(or)) != 1 {
		t.Error("OR must not be split")
	}
}

func TestTransformAndVisit(t *testing.T) {
	e := &Arithmetic{Op: Mul, Left: &ColumnRef{Name: "a"}, Right: &Arithmetic{Op: Add, Left: lit(types.Int(1)), Right: &ColumnRef{Name: "b"}}}
	count := 0
	VisitAll(e, func(Expression) { count++ })
	if count != 5 {
		t.Errorf("VisitAll visited %d nodes, want 5", count)
	}
	// Replace all ColumnRefs with literals.
	out := Transform(e, func(x Expression) Expression {
		if _, ok := x.(*ColumnRef); ok {
			return lit(types.Int(7))
		}
		return nil
	})
	v, err := Evaluate(out, &Context{N: 1})
	if err != nil || v.I[0] != 7*(1+7) {
		t.Errorf("transformed eval = %v, %v", v, err)
	}
	// Identity transform returns the same pointers.
	same := Transform(e, func(Expression) Expression { return nil })
	if same != e {
		t.Error("identity transform should preserve node identity")
	}
	if Contains[*Aggregate](e) {
		t.Error("no aggregate here")
	}
	if !Contains[*Aggregate](&Aggregate{Fn: AggCountStar}) {
		t.Error("aggregate not detected")
	}
}

func TestComparisonOpHelpers(t *testing.T) {
	if Lt.Flip() != Gt || Ge.Flip() != Le || Eq.Flip() != Eq {
		t.Error("Flip wrong")
	}
	if Eq.Negate() != Ne || Lt.Negate() != Ge || Like.Negate() != NotLike {
		t.Error("Negate wrong")
	}
}

func TestVectorFromSegment(t *testing.T) {
	seg := storage.ValueSegmentFromSlice([]int64{4, 5}, []bool{false, true})
	v := VectorFromSegment(seg)
	if v.DT != types.TypeInt64 || v.I[0] != 4 || !v.IsNullAt(1) {
		t.Errorf("VectorFromSegment = %+v", v)
	}
	vp := VectorFromSegmentPositions(seg, []types.ChunkOffset{1, 0})
	if !vp.IsNullAt(0) || vp.I[1] != 4 {
		t.Errorf("VectorFromSegmentPositions = %+v", vp)
	}
	fseg := storage.ValueSegmentFromSlice([]float64{1.5}, nil)
	if VectorFromSegment(fseg).F[0] != 1.5 {
		t.Error("float segment wrong")
	}
	sseg := storage.ValueSegmentFromSlice([]string{"a"}, nil)
	if VectorFromSegment(sseg).S[0] != "a" {
		t.Error("string segment wrong")
	}
}

func TestInferType(t *testing.T) {
	a := &BoundColumn{Index: 0, DT: types.TypeInt64}
	cases := []struct {
		e    Expression
		want types.DataType
	}{
		{lit(types.Float(1)), types.TypeFloat64},
		{a, types.TypeInt64},
		{&Arithmetic{Op: Add, Left: a, Right: lit(types.Float(1))}, types.TypeFloat64},
		{&Arithmetic{Op: Mul, Left: a, Right: lit(types.NullValue)}, types.TypeInt64},
		{&Negation{Child: a}, types.TypeInt64},
		{&Comparison{Op: Eq, Left: lit(types.Int(1)), Right: lit(types.Int(1))}, types.TypeBool},
		{&Not{Child: lit(types.NullValue)}, types.TypeBool},
		{&Aggregate{Fn: AggCountStar}, types.TypeInt64},
		{&Aggregate{Fn: AggAvg, Arg: a}, types.TypeFloat64},
		{&Aggregate{Fn: AggSum, Arg: a}, types.TypeInt64},
		{&FunctionCall{Name: "substring", Args: []Expression{lit(types.Str("ab")), lit(types.Int(1)), lit(types.Int(1))}}, types.TypeString},
		{&FunctionCall{Name: "length", Args: []Expression{lit(types.NullValue)}}, types.TypeInt64},
		{&Case{Whens: []CaseWhen{{When: lit(types.Bool(true)), Then: lit(types.Int(1))}}, Else: lit(types.Float(1))}, types.TypeFloat64},
	}
	for _, tc := range cases {
		if got, err := InferType(tc.e); got != tc.want || err != nil {
			t.Errorf("InferType(%s) = %v, %v, want %v", tc.e, got, err, tc.want)
		}
	}

	// What no operator takes fails here, before anything is evaluated.
	s := &BoundColumn{Index: 1, DT: types.TypeString}
	positive := &Comparison{Op: Gt, Left: a, Right: lit(types.Int(0))}
	for _, tc := range []struct {
		e    Expression
		want error
	}{
		{&Arithmetic{Op: Add, Left: s, Right: lit(types.Int(1))}, ErrUndefinedFunction},
		{&Negation{Child: positive}, ErrUndefinedFunction},
		{&Logical{Op: And, Left: a, Right: lit(types.Bool(true))}, ErrNotBoolean},
		{&Case{Whens: []CaseWhen{{When: a, Then: lit(types.Int(1))}}}, ErrNotBoolean},
		{&Comparison{Op: Eq, Left: lit(types.Int(1)), Right: lit(types.Str("x"))}, ErrUndefinedFunction},
	} {
		if _, err := InferType(tc.e); !errors.Is(err, tc.want) {
			t.Errorf("InferType(%s): error %v, want %v", tc.e, err, tc.want)
		}
	}
}

// Property: generic LIKE matcher handles arbitrary patterns without panic
// and '%'-wrapping any literal always matches strings containing it.
func TestLikeContainsProperty(t *testing.T) {
	f := func(prefix, needle, suffix string) bool {
		if strings.ContainsAny(needle, "%_\\") {
			return true
		}
		return mustLike("%" + needle + "%").Match(prefix + needle + suffix)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
