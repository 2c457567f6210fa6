package lqp

import (
	"reflect"
	"strings"
	"testing"

	"hyrise/internal/expression"
	"hyrise/internal/sqlparser"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

func testCatalog(t *testing.T, mvcc bool) *storage.StorageManager {
	t.Helper()
	sm := storage.NewStorageManager()
	orders := storage.NewTable("orders", []storage.ColumnDefinition{
		{Name: "o_orderkey", Type: types.TypeInt64},
		{Name: "o_custkey", Type: types.TypeInt64},
		{Name: "o_totalprice", Type: types.TypeFloat64},
		{Name: "o_orderdate", Type: types.TypeString},
	}, 0, mvcc)
	customer := storage.NewTable("customer", []storage.ColumnDefinition{
		{Name: "c_custkey", Type: types.TypeInt64},
		{Name: "c_name", Type: types.TypeString},
		{Name: "c_acctbal", Type: types.TypeFloat64, Nullable: true},
	}, 0, mvcc)
	if err := sm.AddTable(orders); err != nil {
		t.Fatal(err)
	}
	if err := sm.AddTable(customer); err != nil {
		t.Fatal(err)
	}
	return sm
}

func translate(t *testing.T, sm *storage.StorageManager, mvcc bool, sql string) Node {
	t.Helper()
	stmt, err := sqlparser.ParseOne(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	tr := &Translator{SM: sm, UseMvcc: mvcc}
	node, err := tr.Translate(stmt)
	if err != nil {
		t.Fatalf("translate %q: %v", sql, err)
	}
	return node
}

func translateErr(t *testing.T, sm *storage.StorageManager, sql string) error {
	t.Helper()
	stmt, err := sqlparser.ParseOne(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	tr := &Translator{SM: sm}
	_, err = tr.Translate(stmt)
	if err == nil {
		t.Fatalf("translate %q should fail", sql)
	}
	return err
}

func TestTranslateSimpleSelect(t *testing.T) {
	sm := testCatalog(t, false)
	plan := translate(t, sm, false, "SELECT o_orderkey, o_totalprice * 2 AS dbl FROM orders WHERE o_totalprice > 100")
	proj, ok := plan.(*ProjectionNode)
	if !ok {
		t.Fatalf("root = %T", plan)
	}
	schema := proj.Schema()
	if len(schema) != 2 || schema[0].Name != "o_orderkey" || schema[1].Name != "dbl" {
		t.Errorf("schema = %+v", schema)
	}
	if schema[0].DT != types.TypeInt64 || schema[1].DT != types.TypeFloat64 {
		t.Errorf("types = %v, %v", schema[0].DT, schema[1].DT)
	}
	pred, ok := proj.Inputs()[0].(*PredicateNode)
	if !ok {
		t.Fatalf("child = %T", proj.Inputs()[0])
	}
	if _, ok := pred.Inputs()[0].(*StoredTableNode); !ok {
		t.Fatalf("grandchild = %T (no Validate expected without MVCC)", pred.Inputs()[0])
	}
}

func TestTranslateValidateInsertion(t *testing.T) {
	sm := testCatalog(t, true)
	plan := translate(t, sm, true, "SELECT o_orderkey FROM orders")
	proj := plan.(*ProjectionNode)
	if _, ok := proj.Inputs()[0].(*ValidateNode); !ok {
		t.Errorf("MVCC tables should get a Validate node, got %T", proj.Inputs()[0])
	}
	// MVCC disabled globally: no Validate even for MVCC tables.
	plan2 := translate(t, sm, false, "SELECT o_orderkey FROM orders")
	if _, ok := plan2.(*ProjectionNode).Inputs()[0].(*ValidateNode); ok {
		t.Error("Validate must not be inserted when MVCC is off")
	}
}

func TestTranslateStarAndQualifiedStar(t *testing.T) {
	sm := testCatalog(t, false)
	plan := translate(t, sm, false, "SELECT * FROM orders, customer")
	if got := len(plan.Schema()); got != 7 {
		t.Errorf("star schema = %d columns, want 7", got)
	}
	plan2 := translate(t, sm, false, "SELECT c.* FROM orders, customer c")
	if got := len(plan2.Schema()); got != 3 {
		t.Errorf("qualified star = %d columns, want 3", got)
	}
}

func TestTranslateCommaJoinBecomesCross(t *testing.T) {
	sm := testCatalog(t, false)
	plan := translate(t, sm, false, "SELECT o_orderkey FROM orders, customer WHERE o_custkey = c_custkey")
	pred := plan.(*ProjectionNode).Inputs()[0].(*PredicateNode)
	join, ok := pred.Inputs()[0].(*JoinNode)
	if !ok || join.Kind != JoinCross {
		t.Fatalf("expected cross join below predicate, got %v", pred.Inputs()[0])
	}
}

func TestTranslateExplicitJoin(t *testing.T) {
	sm := testCatalog(t, false)
	plan := translate(t, sm, false,
		"SELECT o_orderkey, c_name FROM orders JOIN customer ON o_custkey = c_custkey")
	join, ok := plan.(*ProjectionNode).Inputs()[0].(*JoinNode)
	if !ok || join.Kind != JoinInner || len(join.Predicates) != 1 {
		t.Fatalf("join = %v", plan.(*ProjectionNode).Inputs()[0])
	}
	// ON predicate is bound against the concatenated schema: o_custkey is
	// index 1 (orders), c_custkey index 4 (customer offset by 4).
	cmp := join.Predicates[0].(*expression.Comparison)
	l := cmp.Left.(*expression.BoundColumn)
	r := cmp.Right.(*expression.BoundColumn)
	if l.Index != 1 || r.Index != 4 {
		t.Errorf("bound indices = %d, %d, want 1, 4", l.Index, r.Index)
	}
	// LEFT JOIN marks right side nullable.
	plan2 := translate(t, sm, false,
		"SELECT c_name, o_orderkey FROM customer LEFT JOIN orders ON c_custkey = o_custkey")
	join2 := plan2.(*ProjectionNode).Inputs()[0].(*JoinNode)
	if join2.Kind != JoinLeft {
		t.Fatal("expected left join")
	}
	schema := join2.Schema()
	if !schema[3].Nullable {
		t.Error("right side of left join should be nullable")
	}
}

func TestTranslateAliasesAndSelfJoin(t *testing.T) {
	sm := testCatalog(t, false)
	plan := translate(t, sm, false,
		"SELECT a.o_orderkey, b.o_orderkey FROM orders a, orders b WHERE a.o_orderkey = b.o_custkey")
	pred := plan.(*ProjectionNode).Inputs()[0].(*PredicateNode)
	cmp := pred.Predicate.(*expression.Comparison)
	if cmp.Left.(*expression.BoundColumn).Index != 0 || cmp.Right.(*expression.BoundColumn).Index != 5 {
		t.Errorf("self-join binding wrong: %s", cmp)
	}
	// Ambiguous unqualified reference errors.
	err := translateErr(t, sm, "SELECT o_orderkey FROM orders a, orders b")
	if !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("want ambiguity error, got %v", err)
	}
}

func TestTranslateAggregate(t *testing.T) {
	sm := testCatalog(t, false)
	plan := translate(t, sm, false, `
		SELECT o_orderdate, count(*) AS n, sum(o_totalprice) AS total
		FROM orders GROUP BY o_orderdate
		HAVING sum(o_totalprice) > 1000`)
	proj := plan.(*ProjectionNode)
	havingPred := proj.Inputs()[0].(*PredicateNode)
	agg, ok := havingPred.Inputs()[0].(*AggregateNode)
	if !ok {
		t.Fatalf("expected aggregate below HAVING, got %T", havingPred.Inputs()[0])
	}
	if len(agg.GroupBy) != 1 || len(agg.Aggregates) != 2 {
		t.Fatalf("agg shape: %d group, %d aggs", len(agg.GroupBy), len(agg.Aggregates))
	}
	// Projection references aggregate outputs by index.
	if bc, ok := proj.Exprs[1].(*expression.BoundColumn); !ok || bc.Index != 1 {
		t.Errorf("count(*) projection = %v", proj.Exprs[1])
	}
	schema := proj.Schema()
	if schema[1].Name != "n" || schema[1].DT != types.TypeInt64 {
		t.Errorf("count output = %+v", schema[1])
	}
	if schema[2].Name != "total" || schema[2].DT != types.TypeFloat64 {
		t.Errorf("sum output = %+v", schema[2])
	}
	// Non-grouped column in select list errors.
	err := translateErr(t, sm, "SELECT o_custkey, count(*) FROM orders GROUP BY o_orderdate")
	if !strings.Contains(err.Error(), "GROUP BY") {
		t.Errorf("want group-by error, got %v", err)
	}
}

func TestTranslateDistinct(t *testing.T) {
	sm := testCatalog(t, false)
	plan := translate(t, sm, false, "SELECT DISTINCT o_orderdate FROM orders")
	agg, ok := plan.(*AggregateNode)
	if !ok || len(agg.GroupBy) != 1 || len(agg.Aggregates) != 0 {
		t.Fatalf("distinct should be group-by-all aggregate, got %T", plan)
	}
}

func TestTranslateOrderByAliasAndHidden(t *testing.T) {
	sm := testCatalog(t, false)
	// Alias resolution.
	plan := translate(t, sm, false, "SELECT o_totalprice * 2 AS dbl FROM orders ORDER BY dbl DESC")
	sort, ok := plan.(*SortNode)
	if !ok || !sort.Keys[0].Desc {
		t.Fatalf("root = %T", plan)
	}
	// Hidden sort column: ordering by a non-projected column adds it,
	// sorts, then drops it again.
	plan2 := translate(t, sm, false, "SELECT o_orderkey FROM orders ORDER BY o_totalprice")
	finalProj, ok := plan2.(*ProjectionNode)
	if !ok {
		t.Fatalf("root = %T, want final projection", plan2)
	}
	if len(finalProj.Schema()) != 1 || finalProj.Schema()[0].Name != "o_orderkey" {
		t.Errorf("final schema = %+v", finalProj.Schema())
	}
	if _, ok := finalProj.Inputs()[0].(*SortNode); !ok {
		t.Errorf("below final projection = %T, want sort", finalProj.Inputs()[0])
	}
}

func TestTranslateLimitAndNoFrom(t *testing.T) {
	sm := testCatalog(t, false)
	plan := translate(t, sm, false, "SELECT o_orderkey FROM orders LIMIT 5")
	limit, ok := plan.(*LimitNode)
	if !ok || limit.N != 5 {
		t.Fatalf("root = %T", plan)
	}
	plan2 := translate(t, sm, false, "SELECT 1 + 1 AS two")
	proj := plan2.(*ProjectionNode)
	if _, ok := proj.Inputs()[0].(*DummyTableNode); !ok {
		t.Errorf("SELECT without FROM should read DummyTable, got %T", proj.Inputs()[0])
	}
}

func TestTranslateDerivedTable(t *testing.T) {
	sm := testCatalog(t, false)
	plan := translate(t, sm, false, `
		SELECT big.o_orderkey FROM
		(SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > 100) AS big
		WHERE big.o_totalprice < 200`)
	if len(plan.Schema()) != 1 {
		t.Fatalf("schema = %+v", plan.Schema())
	}
	// The alias node renames qualifiers.
	var aliasSeen bool
	VisitPlan(plan, func(n Node) {
		if a, ok := n.(*AliasNode); ok && a.Qualifier == "big" {
			aliasSeen = true
		}
	})
	if !aliasSeen {
		t.Error("alias node missing")
	}
}

func TestTranslateScalarSubquery(t *testing.T) {
	sm := testCatalog(t, false)
	plan := translate(t, sm, false, `
		SELECT o_orderkey FROM orders
		WHERE o_totalprice > (SELECT avg(o_totalprice) FROM orders)`)
	pred := findPredicate(plan)
	if pred == nil {
		t.Fatal("no predicate")
	}
	cmp := pred.Predicate.(*expression.Comparison)
	sub, ok := cmp.Right.(*expression.Subquery)
	if !ok {
		t.Fatalf("right = %T", cmp.Right)
	}
	if _, ok := sub.Plan.(Node); !ok {
		t.Fatalf("subquery plan not translated: %T", sub.Plan)
	}
	if len(sub.Correlated) != 0 {
		t.Errorf("uncorrelated subquery has %d params", len(sub.Correlated))
	}
}

func TestTranslateCorrelatedSubquery(t *testing.T) {
	sm := testCatalog(t, false)
	plan := translate(t, sm, false, `
		SELECT c_name FROM customer
		WHERE c_acctbal > (SELECT avg(o_totalprice) FROM orders WHERE o_custkey = c_custkey)`)
	pred := findPredicate(plan)
	cmp := pred.Predicate.(*expression.Comparison)
	sub := cmp.Right.(*expression.Subquery)
	if len(sub.Correlated) != 1 {
		t.Fatalf("correlated params = %d, want 1", len(sub.Correlated))
	}
	// The correlated expression is bound in the OUTER schema (c_custkey = 0).
	outer := sub.Correlated[0].(*expression.BoundColumn)
	if outer.Index != 0 {
		t.Errorf("outer binding index = %d", outer.Index)
	}
	// Inside the subquery plan, the correlation is an OuterRef, never a
	// statement Parameter.
	subPlan := sub.Plan.(Node)
	var outerSeen, paramSeen bool
	VisitExpressions(subPlan, func(e expression.Expression) {
		outerSeen = outerSeen || expression.Contains[*expression.OuterRef](e)
		paramSeen = paramSeen || expression.Contains[*expression.Parameter](e)
	})
	if !outerSeen || paramSeen {
		t.Errorf("subquery plan: OuterRef seen = %v, Parameter seen = %v; want the correlation as an OuterRef only", outerSeen, paramSeen)
	}
	if got := PlanString(subPlan); !strings.Contains(got, "o_custkey = $0") {
		t.Errorf("the OuterRef prints as $0 no more:\n%s", got)
	}
}

func TestTranslateExistsAndIn(t *testing.T) {
	sm := testCatalog(t, false)
	plan := translate(t, sm, false, `
		SELECT c_name FROM customer
		WHERE EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey)
		AND c_custkey IN (SELECT o_custkey FROM orders)`)
	pred := findPredicate(plan)
	preds := expression.SplitConjunction(pred.Predicate)
	ex, ok := preds[0].(*expression.Exists)
	if !ok || len(ex.Subquery.Correlated) != 1 {
		t.Errorf("exists = %v", preds[0])
	}
	in, ok := preds[1].(*expression.In)
	if !ok || in.Subquery == nil || len(in.Subquery.Correlated) != 0 {
		t.Errorf("in = %v", preds[1])
	}
}

func TestTranslateView(t *testing.T) {
	sm := testCatalog(t, false)
	if err := sm.AddView("bigorders", "SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > 500"); err != nil {
		t.Fatal(err)
	}
	plan := translate(t, sm, false, "SELECT o_orderkey FROM bigorders WHERE o_totalprice < 1000")
	if len(plan.Schema()) != 1 {
		t.Errorf("schema = %+v", plan.Schema())
	}
	var stored *StoredTableNode
	VisitPlan(plan, func(n Node) {
		if s, ok := n.(*StoredTableNode); ok {
			stored = s
		}
	})
	if stored == nil || stored.TableName != "orders" {
		t.Error("view should expand to its base table")
	}
}

func TestTranslateDML(t *testing.T) {
	sm := testCatalog(t, true)
	tr := &Translator{SM: sm, UseMvcc: true}

	stmt, _ := sqlparser.ParseOne("INSERT INTO customer (c_custkey, c_name, c_acctbal) VALUES (1, 'x', 2.5)")
	plan, err := tr.Translate(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if ins, ok := plan.(*InsertNode); !ok || ins.Table.Name() != "customer" || len(ins.Rows) != 1 {
		t.Errorf("insert plan = %v", plan)
	}

	stmt, _ = sqlparser.ParseOne("DELETE FROM customer WHERE c_custkey = 1")
	plan, err = tr.Translate(stmt)
	if err != nil {
		t.Fatal(err)
	}
	del := plan.(*DeleteNode)
	if _, ok := del.Inputs()[0].(*PredicateNode); !ok {
		t.Errorf("delete child = %T", del.Inputs()[0])
	}

	stmt, _ = sqlparser.ParseOne("UPDATE customer SET c_acctbal = c_acctbal + 1 WHERE c_custkey = 1")
	plan, err = tr.Translate(stmt)
	if err != nil {
		t.Fatal(err)
	}
	up := plan.(*UpdateNode)
	if len(up.SetExprs) != 1 || up.SetColumns[0] != 2 { // c_acctbal
		t.Errorf("update plan = %+v", up)
	}

	// DML on non-MVCC tables is rejected.
	sm2 := testCatalog(t, false)
	tr2 := &Translator{SM: sm2, UseMvcc: true}
	stmt, _ = sqlparser.ParseOne("DELETE FROM customer")
	if _, err := tr2.Translate(stmt); err == nil {
		t.Error("delete on non-MVCC table should fail")
	}
}

// TestRouteBindParameters: translation never writes into the AST, so a
// cached statement with a subquery and a placeholder translates again and
// again into plans that keep the placeholder.
func TestRouteBindParameters(t *testing.T) {
	sm := testCatalog(t, false)
	stmt, err := sqlparser.ParseOne("SELECT o_orderkey FROM orders WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal > ?)")
	if err != nil {
		t.Fatal(err)
	}
	tr := &Translator{SM: sm}
	for i := 0; i < 2; i++ {
		plan, err := tr.Translate(stmt)
		if err != nil {
			t.Fatalf("translation %d: %v", i, err)
		}
		in := findPredicate(plan).Predicate.(*expression.In)
		if got := findPredicate(in.Subquery.Plan.(Node)).Predicate.String(); got != "(customer.c_acctbal > ?1)" {
			t.Errorf("translation %d: subquery predicate %s, want the placeholder kept", i, got)
		}
	}
	var sub *expression.Subquery
	sqlparser.Rewrite(stmt, nil, func(e expression.Expression) expression.Expression {
		if s, ok := e.(*expression.Subquery); ok {
			sub = s
		}
		return nil
	})
	if _, ok := sub.Plan.(*sqlparser.SelectStatement); !ok || len(sub.Correlated) != 0 {
		t.Errorf("the AST's subquery holds %T with %d correlated columns after two translations", sub.Plan, len(sub.Correlated))
	}
}

// TestParamTypes: a slot takes the type of what the plan compares it with,
// tests it against, computes it with or writes it to — through views,
// derived tables, functions and subqueries — and stays untyped otherwise.
func TestParamTypes(t *testing.T) {
	sm := testCatalog(t, true)
	if err := sm.AddView("named", "SELECT c_custkey AS id, c_name AS label FROM customer"); err != nil {
		t.Fatal(err)
	}
	I, F, S, N := types.TypeInt64, types.TypeFloat64, types.TypeString, types.TypeNull
	for _, c := range []struct {
		sql  string
		want []types.DataType
	}{
		{"SELECT id FROM named WHERE label = $1", []types.DataType{S}},
		{"SELECT d.x FROM (SELECT c_name AS x FROM customer) AS d WHERE d.x = $1", []types.DataType{S}},
		{"SELECT c_custkey FROM customer WHERE lower(c_name) = $1", []types.DataType{S}},
		{"SELECT c_custkey FROM customer WHERE EXISTS (SELECT 1 FROM named WHERE id = c_custkey AND label = $1)", []types.DataType{S}},
		{"SELECT c_custkey FROM customer WHERE c_acctbal BETWEEN $1 AND $2 AND c_custkey IN ($3, 4)", []types.DataType{F, F, I}},
		{"SELECT c_custkey FROM customer WHERE $1 IN (SELECT o_totalprice FROM orders) AND c_name LIKE $2", []types.DataType{F, S}},
		{"SELECT c_custkey FROM customer WHERE c_acctbal > $1 * 2 AND c_custkey > (SELECT max(o_custkey) FROM orders WHERE o_orderdate < $2)", []types.DataType{I, S}},
		{"SELECT $1, c_custkey FROM customer WHERE $2 = $3", []types.DataType{N, N, N}},
		{"INSERT INTO orders (o_orderdate, o_orderkey) VALUES ($1, $2)", []types.DataType{S, I}},
		{"INSERT INTO customer VALUES ($1, $2, $3)", []types.DataType{I, S, F}},
		{"UPDATE orders SET o_totalprice = $1 WHERE o_orderkey = $2", []types.DataType{F, I}},
	} {
		stmt, err := sqlparser.ParseOne(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := (&Translator{SM: sm, UseMvcc: true}).Translate(stmt)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got := ParamTypes(plan, len(c.want)); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: slot types %v, want %v", c.sql, got, c.want)
		}
	}
}

func TestPlanString(t *testing.T) {
	sm := testCatalog(t, false)
	plan := translate(t, sm, false, "SELECT o_orderkey FROM orders WHERE o_totalprice > 10 LIMIT 1")
	s := PlanString(plan)
	for _, want := range []string{"Limit(1)", "Projection", "Predicate", "StoredTable(orders)"} {
		if !strings.Contains(s, want) {
			t.Errorf("PlanString missing %q:\n%s", want, s)
		}
	}
}

func TestTranslateUnknownTableAndColumn(t *testing.T) {
	sm := testCatalog(t, false)
	translateErr(t, sm, "SELECT x FROM nope")
	err := translateErr(t, sm, "SELECT nope FROM orders")
	if !strings.Contains(err.Error(), "not found") {
		t.Errorf("err = %v", err)
	}
}

func findPredicate(root Node) *PredicateNode {
	var out *PredicateNode
	VisitPlan(root, func(n Node) {
		if p, ok := n.(*PredicateNode); ok && out == nil {
			out = p
		}
	})
	return out
}

func TestDistinctOrderByNonProjectedFails(t *testing.T) {
	sm := testCatalog(t, false)
	err := translateErr(t, sm, "SELECT DISTINCT o_orderdate FROM orders ORDER BY o_totalprice")
	if !strings.Contains(err.Error(), "DISTINCT") {
		t.Errorf("err = %v", err)
	}
	// Ordering DISTINCT output by a projected column stays legal.
	plan := translate(t, sm, false, "SELECT DISTINCT o_orderdate FROM orders ORDER BY o_orderdate")
	if _, ok := plan.(*SortNode); !ok {
		t.Errorf("root = %T", plan)
	}
}
