package sqlparser

import (
	"math"
	"strings"
	"testing"

	"hyrise/internal/expression"
	"hyrise/internal/types"
)

func mustSelect(t *testing.T, sql string) *SelectStatement {
	t.Helper()
	stmt, err := ParseOne(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	sel, ok := stmt.(*SelectStatement)
	if !ok {
		t.Fatalf("parse %q: got %T", sql, stmt)
	}
	return sel
}

func TestLexerBasics(t *testing.T) {
	toks, err := lex("SELECT a, 'it''s' FROM t -- comment\nWHERE x >= 1.5e3 /* block */ AND y <> 2;")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.kind == tokEOF {
			break
		}
		texts = append(texts, tok.text)
	}
	want := []string{"SELECT", "a", ",", "it's", "FROM", "t", "WHERE", "x", ">=", "1.5e3", "AND", "y", "<>", "2", ";"}
	if strings.Join(texts, "|") != strings.Join(want, "|") {
		t.Errorf("lex = %v, want %v", texts, want)
	}
	if _, err := lex("'unterminated"); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := lex("a # b"); err == nil {
		t.Error("unknown character should fail")
	}
}

func TestParseSimpleSelect(t *testing.T) {
	s := mustSelect(t, "SELECT a, b AS bee, t.c FROM t WHERE a > 5 ORDER BY b DESC LIMIT 10")
	if len(s.Items) != 3 || s.Items[1].Alias != "bee" {
		t.Errorf("items = %+v", s.Items)
	}
	if ref, ok := s.Items[2].Expr.(*expression.ColumnRef); !ok || ref.Qualifier != "t" || ref.Name != "c" {
		t.Errorf("qualified ref = %+v", s.Items[2].Expr)
	}
	if len(s.From) != 1 || s.From[0].Name != "t" {
		t.Errorf("from = %+v", s.From)
	}
	cmp, ok := s.Where.(*expression.Comparison)
	if !ok || cmp.Op != expression.Gt {
		t.Errorf("where = %v", s.Where)
	}
	if len(s.OrderBy) != 1 || !s.OrderBy[0].Desc {
		t.Errorf("order by = %+v", s.OrderBy)
	}
	if s.Limit != 10 {
		t.Errorf("limit = %d", s.Limit)
	}
}

func TestParseStarAndQualifiedStar(t *testing.T) {
	s := mustSelect(t, "SELECT *, t.* FROM t")
	if !s.Items[0].Star || s.Items[0].Qualifier != "" {
		t.Error("bare star wrong")
	}
	if !s.Items[1].Star || s.Items[1].Qualifier != "t" {
		t.Error("qualified star wrong")
	}
}

func TestParseSelectWithoutFrom(t *testing.T) {
	s := mustSelect(t, "SELECT 1 + 2 * 3")
	if len(s.From) != 0 {
		t.Error("FROM should be empty")
	}
	// Precedence: 1 + (2*3).
	add, ok := s.Items[0].Expr.(*expression.Arithmetic)
	if !ok || add.Op != expression.Add {
		t.Fatalf("expr = %v", s.Items[0].Expr)
	}
	if mul, ok := add.Right.(*expression.Arithmetic); !ok || mul.Op != expression.Mul {
		t.Errorf("precedence wrong: %v", s.Items[0].Expr)
	}
}

func TestParsePrecedenceAndOr(t *testing.T) {
	s := mustSelect(t, "SELECT 1 FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or, ok := s.Where.(*expression.Logical)
	if !ok || or.Op != expression.Or {
		t.Fatalf("top = %v", s.Where)
	}
	if and, ok := or.Right.(*expression.Logical); !ok || and.Op != expression.And {
		t.Errorf("AND should bind tighter: %v", s.Where)
	}
}

func TestParseNotPrecedence(t *testing.T) {
	s := mustSelect(t, "SELECT 1 FROM t WHERE NOT a = 1 AND b = 2")
	and, ok := s.Where.(*expression.Logical)
	if !ok || and.Op != expression.And {
		t.Fatalf("top should be AND, got %v", s.Where)
	}
	if _, ok := and.Left.(*expression.Not); !ok {
		t.Errorf("NOT should bind to the comparison: %v", s.Where)
	}
}

func TestParseBetweenLikeInIsNull(t *testing.T) {
	s := mustSelect(t, `SELECT 1 FROM t WHERE a BETWEEN 1 AND 10
		AND b NOT BETWEEN 2 AND 3
		AND c LIKE 'x%' AND d NOT LIKE '%y'
		AND e IN (1, 2, 3) AND f NOT IN (4)
		AND g IS NULL AND h IS NOT NULL`)
	preds := expression.SplitConjunction(s.Where)
	if len(preds) != 8 {
		t.Fatalf("got %d predicates", len(preds))
	}
	if _, ok := preds[0].(*expression.Between); !ok {
		t.Error("pred 0 should be BETWEEN")
	}
	if n, ok := preds[1].(*expression.Not); !ok {
		t.Error("pred 1 should be NOT(BETWEEN)")
	} else if _, ok := n.Child.(*expression.Between); !ok {
		t.Error("pred 1 child should be BETWEEN")
	}
	if c, ok := preds[2].(*expression.Comparison); !ok || c.Op != expression.Like {
		t.Error("pred 2 should be LIKE")
	}
	if c, ok := preds[3].(*expression.Comparison); !ok || c.Op != expression.NotLike {
		t.Error("pred 3 should be NOT LIKE")
	}
	if in, ok := preds[4].(*expression.In); !ok || in.Negate || len(in.List) != 3 {
		t.Error("pred 4 should be IN list")
	}
	if in, ok := preds[5].(*expression.In); !ok || !in.Negate {
		t.Error("pred 5 should be NOT IN")
	}
	if n, ok := preds[6].(*expression.IsNull); !ok || n.Negate {
		t.Error("pred 6 should be IS NULL")
	}
	if n, ok := preds[7].(*expression.IsNull); !ok || !n.Negate {
		t.Error("pred 7 should be IS NOT NULL")
	}
}

func TestParseJoins(t *testing.T) {
	s := mustSelect(t, `SELECT * FROM a JOIN b ON a.x = b.x LEFT OUTER JOIN c ON b.y = c.y`)
	if len(s.From) != 1 || s.From[0].Join == nil {
		t.Fatalf("from = %+v", s.From)
	}
	outer := s.From[0].Join
	if outer.Kind != JoinLeft {
		t.Errorf("outer join kind = %v", outer.Kind)
	}
	inner := outer.Left.Join
	if inner == nil || inner.Kind != JoinInner || inner.Left.Name != "a" || inner.Right.Name != "b" {
		t.Errorf("inner join = %+v", inner)
	}
	if outer.Right.Name != "c" || outer.On == nil {
		t.Errorf("outer = %+v", outer)
	}
	// Comma joins stay as separate From entries.
	s2 := mustSelect(t, "SELECT * FROM a, b c, d AS e")
	if len(s2.From) != 3 || s2.From[1].Alias != "c" || s2.From[2].Alias != "e" {
		t.Errorf("comma from = %+v", s2.From)
	}
	// CROSS JOIN.
	s3 := mustSelect(t, "SELECT * FROM a CROSS JOIN b")
	if s3.From[0].Join == nil || s3.From[0].Join.Kind != JoinCross || s3.From[0].Join.On != nil {
		t.Errorf("cross join = %+v", s3.From[0].Join)
	}
}

func TestParseDerivedTable(t *testing.T) {
	s := mustSelect(t, "SELECT x FROM (SELECT a AS x FROM t) AS sub WHERE x > 1")
	if s.From[0].Subquery == nil || s.From[0].Alias != "sub" {
		t.Fatalf("derived = %+v", s.From[0])
	}
	if _, err := ParseOne("SELECT x FROM (SELECT a FROM t)"); err == nil {
		t.Error("derived table without alias should fail")
	}
}

func TestParseGroupByHaving(t *testing.T) {
	s := mustSelect(t, `SELECT status, count(*), sum(price * (1 - disc)) AS rev
		FROM orders GROUP BY status HAVING sum(price * (1 - disc)) > 100`)
	if len(s.GroupBy) != 1 {
		t.Fatalf("group by = %v", s.GroupBy)
	}
	if agg, ok := s.Items[1].Expr.(*expression.Aggregate); !ok || agg.Fn != expression.AggCountStar {
		t.Errorf("count(*) = %v", s.Items[1].Expr)
	}
	if agg, ok := s.Items[2].Expr.(*expression.Aggregate); !ok || agg.Fn != expression.AggSum {
		t.Errorf("sum = %v", s.Items[2].Expr)
	}
	if s.Having == nil {
		t.Error("having missing")
	}
}

func TestParseAggregates(t *testing.T) {
	s := mustSelect(t, "SELECT count(distinct a), avg(b), min(c), max(d), count(e) FROM t")
	fns := []expression.AggregateFn{
		expression.AggCountDistinct, expression.AggAvg, expression.AggMin,
		expression.AggMax, expression.AggCount,
	}
	for i, fn := range fns {
		agg, ok := s.Items[i].Expr.(*expression.Aggregate)
		if !ok || agg.Fn != fn {
			t.Errorf("item %d = %v, want %v", i, s.Items[i].Expr, fn)
		}
	}
}

func TestParseCase(t *testing.T) {
	s := mustSelect(t, `SELECT CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' ELSE 'many' END FROM t`)
	c, ok := s.Items[0].Expr.(*expression.Case)
	if !ok || len(c.Whens) != 2 || c.Else == nil {
		t.Fatalf("case = %v", s.Items[0].Expr)
	}
	if _, err := ParseOne("SELECT CASE END FROM t"); err == nil {
		t.Error("empty CASE should fail")
	}
}

func TestParseSubqueries(t *testing.T) {
	s := mustSelect(t, `SELECT a FROM t WHERE a > (SELECT avg(a) FROM t)
		AND b IN (SELECT b FROM u) AND EXISTS (SELECT 1 FROM v WHERE v.x = t.a)
		AND NOT EXISTS (SELECT 1 FROM w)`)
	preds := expression.SplitConjunction(s.Where)
	if len(preds) != 4 {
		t.Fatalf("%d preds", len(preds))
	}
	cmp := preds[0].(*expression.Comparison)
	sub, ok := cmp.Right.(*expression.Subquery)
	if !ok || sub.Plan == nil {
		t.Errorf("scalar subquery = %v", cmp.Right)
	}
	in := preds[1].(*expression.In)
	if in.Subquery == nil {
		t.Error("IN subquery missing")
	}
	if ex, ok := preds[2].(*expression.Exists); !ok || ex.Negate {
		t.Errorf("exists = %v", preds[2])
	}
	// NOT EXISTS parses as Not(Exists) via the NOT prefix.
	if n, ok := preds[3].(*expression.Not); !ok {
		t.Errorf("not exists = %v", preds[3])
	} else if _, ok := n.Child.(*expression.Exists); !ok {
		t.Errorf("not exists child = %v", n.Child)
	}
	// Subquery IDs are distinct.
	if sub.ID == in.Subquery.ID {
		t.Error("subquery IDs should differ")
	}
}

func TestParseDateAndSubstring(t *testing.T) {
	s := mustSelect(t, `SELECT substring(c_phone from 1 for 2), substring(x, 2, 3)
		FROM t WHERE d >= date '1995-01-01'`)
	f0 := s.Items[0].Expr.(*expression.FunctionCall)
	if f0.Name != "substring" || len(f0.Args) != 3 {
		t.Errorf("substring FROM/FOR = %v", f0)
	}
	f1 := s.Items[1].Expr.(*expression.FunctionCall)
	if f1.Name != "substring" || len(f1.Args) != 3 {
		t.Errorf("substring commas = %v", f1)
	}
	cmp := s.Where.(*expression.Comparison)
	lit, ok := cmp.Right.(*expression.Literal)
	if !ok || lit.Value.Type != types.TypeString || lit.Value.S != "1995-01-01" {
		t.Errorf("date literal = %v", cmp.Right)
	}
}

func TestParseParameters(t *testing.T) {
	s := mustSelect(t, "SELECT a FROM t WHERE a = ? AND b = ?")
	preds := expression.SplitConjunction(s.Where)
	p0 := preds[0].(*expression.Comparison).Right.(*expression.Parameter)
	p1 := preds[1].(*expression.Comparison).Right.(*expression.Parameter)
	if p0.ID != 0 || p1.ID != 1 {
		t.Errorf("param ids = %d, %d", p0.ID, p1.ID)
	}
}

func TestParseDollarParameters(t *testing.T) {
	// $N is the placeholder syntax Postgres drivers send; IDs are 0-based
	// slots, repeats share a slot, and out-of-order numbering works.
	s := mustSelect(t, "SELECT a FROM t WHERE a = $2 AND b = $1 AND c = $2")
	preds := expression.SplitConjunction(s.Where)
	ids := make([]int, len(preds))
	for i, p := range preds {
		ids[i] = p.(*expression.Comparison).Right.(*expression.Parameter).ID
	}
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 0 || ids[2] != 1 {
		t.Errorf("param ids = %v, want [1 0 1]", ids)
	}

	// Mixed styles: '?' continues past the highest explicit $N.
	s = mustSelect(t, "SELECT a FROM t WHERE a = $2 AND b = ?")
	preds = expression.SplitConjunction(s.Where)
	if got := preds[1].(*expression.Comparison).Right.(*expression.Parameter).ID; got != 2 {
		t.Errorf("'?' after $2 got ID %d, want 2", got)
	}

	if _, err := Parse("SELECT $ FROM t"); err == nil {
		t.Error("bare '$' should be a lex error")
	}
}

func TestFingerprintDollarParameters(t *testing.T) {
	if got, want := Fingerprint("SELECT a FROM t WHERE a = $1"), Fingerprint("SELECT a FROM t WHERE a = ?"); got != want {
		t.Errorf("fingerprint($1) = %q, want %q", got, want)
	}
}

func TestParseLiteralsAndNegation(t *testing.T) {
	s := mustSelect(t, "SELECT -5, -1.5, 'str', NULL, TRUE, FALSE, -(a)")
	if lit := s.Items[0].Expr.(*expression.Literal); lit.Value.I != -5 {
		t.Error("negative int literal folded wrong")
	}
	if lit := s.Items[1].Expr.(*expression.Literal); lit.Value.F != -1.5 {
		t.Error("negative float literal folded wrong")
	}
	if lit := s.Items[2].Expr.(*expression.Literal); lit.Value.S != "str" {
		t.Error("string literal wrong")
	}
	if lit := s.Items[3].Expr.(*expression.Literal); !lit.Value.IsNull() {
		t.Error("NULL literal wrong")
	}
	if lit := s.Items[4].Expr.(*expression.Literal); !lit.Value.AsBool() {
		t.Error("TRUE literal wrong")
	}
	if _, ok := s.Items[6].Expr.(*expression.Negation); !ok {
		t.Error("column negation should stay a Negation node")
	}
}

// TestParseIntMinimumLiteral: the minus of an integer literal belongs to the
// constant, so the INT minimum is a literal, also in an IN list, while its
// magnitude alone is still out of range.
func TestParseIntMinimumLiteral(t *testing.T) {
	s := mustSelect(t, "SELECT -9223372036854775808, - 9223372036854775807, a IN (1, -9223372036854775808) FROM t")
	for i, want := range []int64{math.MinInt64, -math.MaxInt64} {
		if lit, ok := s.Items[i].Expr.(*expression.Literal); !ok || lit.Value.Type != types.TypeInt64 || lit.Value.I != want {
			t.Errorf("item %d = %v, want the INT literal %d", i, s.Items[i].Expr, want)
		}
	}
	in := s.Items[2].Expr.(*expression.In)
	if lit, ok := in.List[1].(*expression.Literal); !ok || lit.Value.I != math.MinInt64 {
		t.Errorf("IN list item = %v, want the INT minimum", in.List[1])
	}
	for _, sql := range []string{"SELECT 9223372036854775808", "SELECT -(9223372036854775808)", "SELECT -9223372036854775809"} {
		if _, err := Parse(sql); err == nil {
			t.Errorf("%s parsed, want an out-of-range number", sql)
		}
	}
}

func TestParseCreateTable(t *testing.T) {
	stmt, err := ParseOne(`CREATE TABLE nation (
		n_nationkey INTEGER NOT NULL,
		n_name CHAR(25) NOT NULL,
		n_regionkey INTEGER NOT NULL,
		n_comment VARCHAR(152),
		n_weight DECIMAL(15,2))`)
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTableStatement)
	if ct.Name != "nation" || len(ct.Columns) != 5 {
		t.Fatalf("create = %+v", ct)
	}
	if ct.Columns[0].Type != types.TypeInt64 || ct.Columns[0].Nullable {
		t.Error("nationkey wrong")
	}
	if ct.Columns[1].Type != types.TypeString {
		t.Error("name wrong")
	}
	if !ct.Columns[3].Nullable {
		t.Error("comment should be nullable")
	}
	if ct.Columns[4].Type != types.TypeFloat64 {
		t.Error("decimal should map to float")
	}
}

func TestParseInsertUpdateDelete(t *testing.T) {
	stmt, err := ParseOne("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*InsertStatement)
	if ins.Table != "t" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Errorf("insert = %+v", ins)
	}
	stmt, err = ParseOne("UPDATE t SET a = a + 1, b = 'z' WHERE a < 5")
	if err != nil {
		t.Fatal(err)
	}
	up := stmt.(*UpdateStatement)
	if up.Table != "t" || len(up.Set) != 2 || up.Where == nil {
		t.Errorf("update = %+v", up)
	}
	stmt, err = ParseOne("DELETE FROM t WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	del := stmt.(*DeleteStatement)
	if del.Table != "t" || del.Where == nil {
		t.Errorf("delete = %+v", del)
	}
}

func TestParseViewAndDropAndTx(t *testing.T) {
	stmt, err := ParseOne("CREATE VIEW revenue AS SELECT a FROM t WHERE a > 0")
	if err != nil {
		t.Fatal(err)
	}
	cv := stmt.(*CreateViewStatement)
	if cv.Name != "revenue" || cv.Body == nil || !strings.HasPrefix(cv.SQL, "SELECT") {
		t.Errorf("view = %+v", cv)
	}
	if d := mustParse(t, "DROP TABLE t").(*DropStatement); d.IsView || d.Name != "t" {
		t.Error("drop table wrong")
	}
	if d := mustParse(t, "DROP VIEW v").(*DropStatement); !d.IsView {
		t.Error("drop view wrong")
	}
	if tx := mustParse(t, "BEGIN").(*TransactionStatement); tx.Kind != TxBegin {
		t.Error("begin wrong")
	}
	if tx := mustParse(t, "COMMIT").(*TransactionStatement); tx.Kind != TxCommit {
		t.Error("commit wrong")
	}
	if tx := mustParse(t, "ROLLBACK").(*TransactionStatement); tx.Kind != TxRollback {
		t.Error("rollback wrong")
	}
}

func mustParse(t *testing.T, sql string) Statement {
	t.Helper()
	stmt, err := ParseOne(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return stmt
}

func TestParseMultipleStatements(t *testing.T) {
	stmts, err := Parse("SELECT 1; SELECT 2;; SELECT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Errorf("got %d statements", len(stmts))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEKT 1",
		"SELECT",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t ORDER",
		"INSERT INTO t",
		"CREATE TABLE t (a BLOB)",
		"SELECT substring(a) FROM t",
		"SELECT 1 2",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("parse %q should fail", sql)
		}
	}
}

// A condensed TPC-H-style query exercising most features at once.
func TestParseTPCHStyleQuery(t *testing.T) {
	sql := `
select
	l_returnflag, l_linestatus,
	sum(l_quantity) as sum_qty,
	sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge,
	avg(l_discount) as avg_disc,
	count(*) as count_order
from lineitem
where l_shipdate <= '1998-09-02'
group by l_returnflag, l_linestatus
order by l_returnflag, l_linestatus`
	s := mustSelect(t, sql)
	if len(s.Items) != 6 || len(s.GroupBy) != 2 || len(s.OrderBy) != 2 {
		t.Errorf("shape: items=%d groupby=%d orderby=%d", len(s.Items), len(s.GroupBy), len(s.OrderBy))
	}
}

func TestParseCorrelatedTPCH17Style(t *testing.T) {
	sql := `
select sum(l_extendedprice) / 7.0 as avg_yearly
from lineitem, part
where p_partkey = l_partkey and p_brand = 'Brand#23'
	and l_quantity < (
		select 0.2 * avg(l_quantity) from lineitem where l_partkey = p_partkey)`
	s := mustSelect(t, sql)
	preds := expression.SplitConjunction(s.Where)
	if len(preds) != 3 {
		t.Fatalf("%d preds", len(preds))
	}
	cmp := preds[2].(*expression.Comparison)
	if _, ok := cmp.Right.(*expression.Subquery); !ok {
		t.Error("correlated scalar subquery missing")
	}
}
