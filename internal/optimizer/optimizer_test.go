package optimizer

import (
	"math"
	"strings"
	"testing"

	"hyrise/internal/expression"
	"hyrise/internal/filter"
	"hyrise/internal/lqp"
	"hyrise/internal/sqlparser"
	"hyrise/internal/statistics"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// --- fixtures ---------------------------------------------------------------

func catalog(t *testing.T) *storage.StorageManager {
	t.Helper()
	sm := storage.NewStorageManager()

	orders := storage.NewTable("orders", []storage.ColumnDefinition{
		{Name: "o_id", Type: types.TypeInt64},
		{Name: "o_cust", Type: types.TypeInt64},
		{Name: "o_total", Type: types.TypeFloat64},
	}, 100, false)
	for i := 0; i < 1000; i++ {
		_, _ = orders.AppendRow([]types.Value{
			types.Int(int64(i)), types.Int(int64(i % 50)), types.Float(float64(i)),
		})
	}
	orders.SealTail()
	_ = filter.AttachDefaultFilters(orders)
	_ = sm.AddTable(orders)

	cust := storage.NewTable("cust", []storage.ColumnDefinition{
		{Name: "c_id", Type: types.TypeInt64},
		{Name: "c_name", Type: types.TypeString},
	}, 100, false)
	for i := 0; i < 50; i++ {
		_, _ = cust.AppendRow([]types.Value{types.Int(int64(i)), types.Str("c")})
	}
	cust.SealTail()
	_ = sm.AddTable(cust)

	item := storage.NewTable("item", []storage.ColumnDefinition{
		{Name: "i_order", Type: types.TypeInt64},
		{Name: "i_qty", Type: types.TypeInt64},
	}, 100, false)
	for i := 0; i < 3000; i++ {
		_, _ = item.AppendRow([]types.Value{types.Int(int64(i % 1000)), types.Int(int64(i % 10))})
	}
	item.SealTail()
	_ = sm.AddTable(item)

	return sm
}

func plan(t *testing.T, sm *storage.StorageManager, sql string) lqp.Node {
	t.Helper()
	stmt, err := sqlparser.ParseOne(sql)
	if err != nil {
		t.Fatal(err)
	}
	tr := &lqp.Translator{SM: sm}
	node, err := tr.Translate(stmt)
	if err != nil {
		t.Fatal(err)
	}
	return node
}

func optimize(t *testing.T, sm *storage.StorageManager, sql string) lqp.Node {
	t.Helper()
	node := plan(t, sm, sql)
	opt := NewDefault(statistics.NewCache(statistics.EqualHeight))
	out, err := opt.Optimize(node)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func planContains(node lqp.Node, want string) bool {
	return strings.Contains(lqp.PlanString(node), want)
}

// --- expression reduction -----------------------------------------------------

func TestReduceExpressionFoldsConstants(t *testing.T) {
	cases := []struct {
		in   expression.Expression
		want string
	}{
		{
			&expression.Arithmetic{Op: expression.Add, Left: lit(types.Int(2)), Right: lit(types.Int(3))},
			"5",
		},
		{
			&expression.Arithmetic{Op: expression.Mul, Left: lit(types.Float(2)), Right: lit(types.Int(3))},
			"6",
		},
		{
			&expression.Comparison{Op: expression.Lt, Left: lit(types.Int(1)), Right: lit(types.Int(2))},
			"TRUE",
		},
		{
			&expression.Not{Child: &expression.Not{Child: col(0)}},
			"#0",
		},
		{
			&expression.Not{Child: &expression.Comparison{Op: expression.Eq, Left: col(0), Right: lit(types.Int(1))}},
			"(#0 <> 1)",
		},
		{
			&expression.Logical{Op: expression.And, Left: col(0), Right: lit(types.Bool(true))},
			"#0",
		},
		{
			&expression.Logical{Op: expression.Or, Left: col(0), Right: lit(types.Bool(true))},
			"TRUE",
		},
		{
			&expression.Logical{Op: expression.And, Left: col(0), Right: lit(types.Bool(false))},
			"FALSE",
		},
		// Folding runs the evaluator, so a folded comparison is IEEE 754 —
		// NaN matches only <> — and a float % folds like any other operator.
		{
			&expression.Comparison{Op: expression.Eq, Left: lit(types.Float(math.NaN())), Right: lit(types.Float(0.5))},
			"FALSE",
		},
		{
			&expression.Comparison{Op: expression.Ne, Left: lit(types.Float(math.NaN())), Right: lit(types.Float(0.5))},
			"TRUE",
		},
		{
			&expression.Comparison{Op: expression.Le, Left: lit(types.Float(0.5)), Right: lit(types.Float(math.NaN()))},
			"FALSE",
		},
		{
			&expression.Arithmetic{Op: expression.Mod, Left: lit(types.Float(7.5)), Right: lit(types.Int(2))},
			"1.5",
		},
		{
			&expression.Negation{Child: lit(types.Float(0.5))},
			"-0.5",
		},
	}
	// What evaluates to NULL, or not at all, stays as written.
	for _, unchanged := range []expression.Expression{
		&expression.Arithmetic{Op: expression.Mod, Left: lit(types.Float(7.5)), Right: lit(types.Float(0))},
		&expression.Arithmetic{Op: expression.Div, Left: lit(types.Int(1)), Right: lit(types.Int(0))},
		&expression.Comparison{Op: expression.Eq, Left: lit(types.NullValue), Right: lit(types.Int(1))},
		&expression.Comparison{Op: expression.Eq, Left: lit(types.Str("a")), Right: lit(types.Int(1))},
		&expression.Negation{Child: lit(types.Str("a"))},
	} {
		cases = append(cases, struct {
			in   expression.Expression
			want string
		}{unchanged, unchanged.String()})
	}
	for _, tc := range cases {
		got := ReduceExpression(tc.in)
		if got.String() != tc.want {
			t.Errorf("reduce(%s) = %s, want %s", tc.in, got, tc.want)
		}
	}
}

func lit(v types.Value) *expression.Literal { return expression.NewLiteral(v) }
func col(i int) *expression.BoundColumn     { return &expression.BoundColumn{Index: i} }
func cmpEq(l, r expression.Expression) expression.Expression {
	return &expression.Comparison{Op: expression.Eq, Left: l, Right: r}
}

func TestFactorDisjunction(t *testing.T) {
	a := cmpEq(col(0), col(5))
	x := cmpEq(col(1), lit(types.Int(1)))
	y := cmpEq(col(1), lit(types.Int(2)))
	or := &expression.Logical{
		Op:    expression.Or,
		Left:  expression.JoinConjunction([]expression.Expression{a, x}),
		Right: expression.JoinConjunction([]expression.Expression{a, y}),
	}
	out := ReduceExpression(or)
	parts := expression.SplitConjunction(out)
	if len(parts) != 2 || parts[0].String() != a.String() {
		t.Errorf("factored = %s", out)
	}
	// (A) OR (A AND y) == A.
	or2 := &expression.Logical{Op: expression.Or, Left: a,
		Right: expression.JoinConjunction([]expression.Expression{a, y})}
	if got := ReduceExpression(or2); got.String() != a.String() {
		t.Errorf("absorption = %s", got)
	}
	// No common part: unchanged structure.
	or3 := &expression.Logical{Op: expression.Or, Left: x, Right: y}
	if got := ReduceExpression(or3); got.String() != or3.String() {
		t.Errorf("unexpected rewrite: %s", got)
	}
}

// --- structural rules ------------------------------------------------------------

func TestPredicateSplitAndPushdown(t *testing.T) {
	sm := catalog(t)
	out := optimize(t, sm, `
		SELECT o_id, c_name FROM orders, cust
		WHERE o_cust = c_id AND o_total > 500 AND c_name = 'c'`)
	s := lqp.PlanString(out)
	// Cross join must be converted to an inner join.
	if !strings.Contains(s, "Join(Inner") {
		t.Errorf("no inner join:\n%s", s)
	}
	if strings.Contains(s, "Join(Cross") {
		t.Errorf("cross join survived:\n%s", s)
	}
	// Single-table predicates sit below the join, directly over their table.
	idx := strings.Index(s, "Join(Inner")
	below := s[idx:]
	if !strings.Contains(below, "o_total") || !strings.Contains(below, "c_name") {
		t.Errorf("predicates not pushed below join:\n%s", s)
	}
}

// TestPushdownKeepsValidateOverStoredTable: a plain predicate sinks below a
// ValidateNode, one that holds a subquery stays above it — SubqueryToJoinRule
// may still turn it into a join, and the chain a ValidateNode sits in must end
// in the stored table whose MVCC columns visibility reads.
func TestPushdownKeepsValidateOverStoredTable(t *testing.T) {
	orders, err := catalog(t).GetTable("orders")
	if err != nil {
		t.Fatal(err)
	}
	validate := lqp.NewValidateNode(lqp.NewStoredTableNode(orders, ""))
	plain := &expression.Comparison{Op: expression.Gt, Left: col(2), Right: lit(types.Float(500))}
	if _, placed := pushInto(validate, plain); !placed || !planContains(validate.Inputs()[0], "Predicate(") {
		t.Errorf("plain predicate not pushed below the ValidateNode:\n%s", lqp.PlanString(validate))
	}
	below := lqp.PlanString(validate)
	in := &expression.In{Child: col(1), Subquery: &expression.Subquery{Plan: lqp.NewStoredTableNode(orders, "o2"), ID: 1}}
	if _, placed := pushInto(validate, in); placed || lqp.PlanString(validate) != below {
		t.Errorf("predicate with a subquery pushed below the ValidateNode:\n%s", lqp.PlanString(validate))
	}
}

func TestJoinOrderingReordersByCardinality(t *testing.T) {
	sm := catalog(t)
	// item (3000) x orders (1000) x cust (50): the optimizer should join the
	// filtered orders with cust before touching item, or at least produce a
	// valid reordering with all predicates applied.
	out := optimize(t, sm, `
		SELECT c_name FROM item, orders, cust
		WHERE i_order = o_id AND o_cust = c_id AND o_total < 10`)
	s := lqp.PlanString(out)
	if strings.Contains(s, "Join(Cross") {
		t.Errorf("cross join left after ordering:\n%s", s)
	}
	joins := strings.Count(s, "Join(Inner")
	if joins != 2 {
		t.Errorf("expected 2 inner joins, got %d:\n%s", joins, s)
	}
}

func TestBetweenComposition(t *testing.T) {
	sm := catalog(t)
	out := optimize(t, sm, "SELECT o_id FROM orders WHERE o_id >= 100 AND o_id <= 200")
	if !planContains(out, "BETWEEN") {
		t.Errorf("no BETWEEN composed:\n%s", lqp.PlanString(out))
	}
}

func TestSubqueryToSemiAntiJoin(t *testing.T) {
	sm := catalog(t)
	out := optimize(t, sm, `
		SELECT c_name FROM cust WHERE c_id IN (SELECT o_cust FROM orders WHERE o_total > 900)`)
	if !planContains(out, "Join(Semi") {
		t.Errorf("IN not rewritten to semi join:\n%s", lqp.PlanString(out))
	}
	out2 := optimize(t, sm, `
		SELECT c_name FROM cust WHERE c_id NOT IN (SELECT o_cust FROM orders)`)
	if !planContains(out2, "Join(Anti") {
		t.Errorf("NOT IN not rewritten to anti join:\n%s", lqp.PlanString(out2))
	}
	out3 := optimize(t, sm, `
		SELECT c_name FROM cust WHERE EXISTS (SELECT 1 FROM orders WHERE o_cust = c_id)`)
	if !planContains(out3, "Join(Semi") {
		t.Errorf("EXISTS not rewritten to semi join:\n%s", lqp.PlanString(out3))
	}
	out4 := optimize(t, sm, `
		SELECT c_name FROM cust WHERE NOT EXISTS (SELECT 1 FROM orders WHERE o_cust = c_id)`)
	if !planContains(out4, "Join(Anti") {
		t.Errorf("NOT EXISTS not rewritten to anti join:\n%s", lqp.PlanString(out4))
	}
}

func TestExistsWithResidualPredicate(t *testing.T) {
	sm := catalog(t)
	// The inequality correlation becomes a residual join predicate.
	out := optimize(t, sm, `
		SELECT c_name FROM cust
		WHERE EXISTS (SELECT 1 FROM orders WHERE o_cust = c_id AND o_total > c_id)`)
	s := lqp.PlanString(out)
	if !strings.Contains(s, "Join(Semi") {
		t.Errorf("residual-correlated EXISTS not rewritten:\n%s", s)
	}
}

func TestScalarAggregateDecorrelation(t *testing.T) {
	sm := catalog(t)
	out := optimize(t, sm, `
		SELECT o_id FROM orders o
		WHERE o_total > (SELECT avg(i_qty) FROM item WHERE i_order = o.o_id)`)
	s := lqp.PlanString(out)
	// No SUBQUERY expression should survive; an aggregate join appears.
	if strings.Contains(s, "SUBQUERY") {
		t.Errorf("scalar subquery not decorrelated:\n%s", s)
	}
	if !strings.Contains(s, "Join(Inner") || !strings.Contains(s, "Aggregate") {
		t.Errorf("expected grouped-aggregate join:\n%s", s)
	}
	// COUNT aggregates are NOT decorrelated (0 vs NULL on empty groups).
	out2 := optimize(t, sm, `
		SELECT o_id FROM orders o
		WHERE o_total > (SELECT count(*) FROM item WHERE i_order = o.o_id)`)
	if !strings.Contains(lqp.PlanString(out2), "SUBQUERY") {
		t.Errorf("COUNT subquery must keep per-row execution:\n%s", lqp.PlanString(out2))
	}
}

func TestPredicateReorderingBySelectivity(t *testing.T) {
	sm := catalog(t)
	// o_id = 5 (selectivity 1/1000) should execute before o_total > 1
	// (selectivity ~1).
	out := optimize(t, sm, "SELECT o_id FROM orders WHERE o_total > 1 AND o_id = 5")
	s := lqp.PlanString(out)
	eqPos := strings.Index(s, "o_id = 5")
	gtPos := strings.Index(s, "o_total > 1")
	if eqPos < 0 || gtPos < 0 {
		t.Fatalf("predicates missing:\n%s", s)
	}
	// Deeper in the plan string = later line = closer to the table.
	if eqPos < gtPos {
		t.Errorf("equality should be deeper (executes first):\n%s", s)
	}
}

// TestIsNullSelectivityFromStatistics: IS [NOT] NULL is estimated from the
// column's NULL fraction, so on a NULL-free column `IS NOT NULL` keeps every
// row and the selective equality runs first. A constant 0.05 for both forms
// put the IS NOT NULL (which filters nothing) at the head of the chain.
func TestIsNullSelectivityFromStatistics(t *testing.T) {
	sm := catalog(t)
	// i_qty = 5 keeps 10 % of item; i_order has no NULLs.
	out := optimize(t, sm, "SELECT i_qty FROM item WHERE i_order IS NOT NULL AND i_qty = 5")
	s := lqp.PlanString(out)
	eqPos := strings.Index(s, "i_qty = 5")
	nnPos := strings.Index(s, "IS NOT NULL")
	if eqPos < 0 || nnPos < 0 {
		t.Fatalf("predicates missing:\n%s", s)
	}
	if eqPos < nnPos {
		t.Errorf("equality should be deeper (executes first):\n%s", s)
	}

	est := NewEstimator(statistics.NewCache(statistics.EqualHeight))
	item, _ := sm.GetTable("item")
	stored := lqp.NewStoredTableNode(item, "")
	col := &expression.BoundColumn{Index: 0, DT: types.TypeInt64}
	for _, tc := range []struct {
		est    *Estimator
		negate bool
		want   float64
	}{
		{est, false, 0}, {est, true, 1},
		{NewEstimator(nil), false, 0.05}, {NewEstimator(nil), true, 0.95},
	} {
		if got := tc.est.Selectivity(&expression.IsNull{Child: col, Negate: tc.negate}, stored); got != tc.want {
			t.Errorf("selectivity(negate=%v, stats=%v) = %v, want %v", tc.negate, tc.est.Stats != nil, got, tc.want)
		}
	}
}

func TestEstimatorBasics(t *testing.T) {
	sm := catalog(t)
	est := NewEstimator(statistics.NewCache(statistics.EqualHeight))
	node := plan(t, sm, "SELECT o_id FROM orders WHERE o_id < 100")
	card := est.Cardinality(node)
	if card < 50 || card > 300 {
		t.Errorf("cardinality(o_id < 100 of 1000) = %f", card)
	}
	join := plan(t, sm, "SELECT o_id FROM orders JOIN cust ON o_cust = c_id")
	jcard := est.Cardinality(join)
	// 1000 * 50 / max(50, 50) = 1000.
	if jcard < 500 || jcard > 2000 {
		t.Errorf("join cardinality = %f, want ~1000", jcard)
	}
	// Cross join estimate is the product.
	cross := plan(t, sm, "SELECT o_id FROM orders, cust")
	if got := est.Cardinality(cross); got != 50000 {
		t.Errorf("cross cardinality = %f", got)
	}
}

func TestOptimizerIsIdempotent(t *testing.T) {
	sm := catalog(t)
	opt := NewDefault(statistics.NewCache(statistics.EqualHeight))
	node := plan(t, sm, `
		SELECT c_name, count(*) FROM orders, cust
		WHERE o_cust = c_id AND o_total BETWEEN 10 AND 800
		GROUP BY c_name ORDER BY c_name LIMIT 5`)
	once, err := opt.Optimize(node)
	if err != nil {
		t.Fatal(err)
	}
	first := lqp.PlanString(once)
	twice, err := opt.Optimize(once)
	if err != nil {
		t.Fatal(err)
	}
	second := lqp.PlanString(twice)
	if first != second {
		t.Errorf("optimizer not idempotent:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
}
