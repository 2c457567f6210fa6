package pipeline

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"hyrise/internal/operators"
	"hyrise/internal/types"
)

func preparedTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine(DefaultConfig(), nil)
	t.Cleanup(e.Close)
	s := e.NewSession()
	mustExec := func(sql string) {
		t.Helper()
		if _, err := s.Execute(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE items (id INT, name VARCHAR(20), price FLOAT)")
	mustExec("INSERT INTO items VALUES (1, 'apple', 1.5), (2, '123', 2.5), (3, 'cherry', 3.5)")
	return e
}

func TestPrepareStatementInfersParamTypes(t *testing.T) {
	e := preparedTestEngine(t)
	s := e.NewSession()

	ps, err := s.PrepareStatement("SELECT id, name FROM items WHERE id = $1 AND price > $2 AND name = $3")
	if err != nil {
		t.Fatal(err)
	}
	if ps.NumParams != 3 {
		t.Fatalf("NumParams = %d, want 3", ps.NumParams)
	}
	want := []types.DataType{types.TypeInt64, types.TypeFloat64, types.TypeString}
	for i, dt := range want {
		if ps.ParamTypes[i] != dt {
			t.Errorf("ParamTypes[%d] = %v, want %v", i, ps.ParamTypes[i], dt)
		}
	}
	if !ps.ReturnsRows() || len(ps.Columns) != 2 {
		t.Fatalf("Columns = %v, want [id name]", ps.Columns)
	}
	if ps.ColumnTypes[0] != types.TypeInt64 || ps.ColumnTypes[1] != types.TypeString {
		t.Fatalf("ColumnTypes = %v", ps.ColumnTypes)
	}
}

func TestPreparedStatementStringColumnKeepsNumericText(t *testing.T) {
	// '123' bound against a VARCHAR column must stay a string: the old wire
	// path coerced numeric-looking text to int64 and the scan then matched
	// nothing.
	e := preparedTestEngine(t)
	s := e.NewSession()
	ps, err := s.PrepareStatement("SELECT id FROM items WHERE name = $1")
	if err != nil {
		t.Fatal(err)
	}
	if ps.ParamTypes[0] != types.TypeString {
		t.Fatalf("ParamTypes[0] = %v, want string", ps.ParamTypes[0])
	}
	res, err := s.ExecutePreparedStatement(context.Background(), ps, []types.Value{types.Str("123")})
	if err != nil {
		t.Fatal(err)
	}
	rows := RowStrings(res.Table)
	if len(rows) != 1 || rows[0][0] != "2" {
		t.Fatalf("rows = %v, want [[2]]", rows)
	}
}

func TestPreparedPlanReuse(t *testing.T) {
	e := preparedTestEngine(t)
	s := e.NewSession()
	sql := "SELECT name FROM items WHERE id = $1"
	ps1, err := s.PrepareStatement(sql)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range map[int64]string{1: "apple", 3: "cherry"} {
		res, err := s.ExecutePreparedStatement(context.Background(), ps1, []types.Value{types.Int(i)})
		if err != nil {
			t.Fatal(err)
		}
		rows := RowStrings(res.Table)
		if len(rows) != 1 || rows[0][0] != want {
			t.Fatalf("id=%d: rows = %v, want %q", i, rows, want)
		}
		if !res.Timing.CacheHit {
			t.Fatalf("id=%d: execution did not reuse the prepared plan", i)
		}
	}
	// Re-Parse of the same text — on any session — hits the engine's
	// statement cache: same handle back.
	ps2, err := e.NewSession().PrepareStatement(sql)
	if err != nil {
		t.Fatal(err)
	}
	if ps2 != ps1 {
		t.Fatal("re-prepare did not hit the statement cache")
	}
	if hits, _ := e.PlanCacheStats(); hits == 0 {
		t.Fatal("plan_cache_hits not counted")
	}
	// Same fingerprint, different literals must NOT collide.
	other, err := s.PrepareStatement("SELECT name FROM items WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	alias, err := s.PrepareStatement("SELECT name FROM items WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	if other == alias {
		t.Fatal("statements with different literals shared a cache entry")
	}
}

func TestPreparedStatementErrorsAtParseTime(t *testing.T) {
	e := preparedTestEngine(t)
	s := e.NewSession()
	if _, err := s.PrepareStatement("SELECT * FROM no_such_table"); err == nil {
		t.Fatal("unknown table not reported at Parse time")
	}
	if _, err := s.PrepareStatement("SELEC nope"); err == nil {
		t.Fatal("syntax error not reported at Parse time")
	}
	if _, err := s.PrepareStatement("SELECT 1; SELECT 2"); err == nil {
		t.Fatal("multi-statement prepared text not rejected")
	}
}

func TestPreparedStatementSurvivesDDL(t *testing.T) {
	e := preparedTestEngine(t)
	s := e.NewSession()
	ps, err := s.PrepareStatement("SELECT name FROM items WHERE id = $1")
	if err != nil {
		t.Fatal(err)
	}
	ddl := e.NewSession()
	if _, err := ddl.Execute("DROP TABLE items"); err != nil {
		t.Fatal(err)
	}
	if _, err := ddl.Execute("CREATE TABLE items (id INT, name VARCHAR(20))"); err != nil {
		t.Fatal(err)
	}
	if _, err := ddl.Execute("INSERT INTO items VALUES (7, 'pear')"); err != nil {
		t.Fatal(err)
	}
	// The cached plan is stale (old *storage.Table); execution must detect
	// the epoch change and re-plan against the new table.
	res, err := s.ExecutePreparedStatement(context.Background(), ps, []types.Value{types.Int(7)})
	if err != nil {
		t.Fatal(err)
	}
	rows := RowStrings(res.Table)
	if len(rows) != 1 || rows[0][0] != "pear" {
		t.Fatalf("rows = %v, want [[pear]]", rows)
	}
	// And a fresh Parse of the same text must not reuse the stale entry.
	ps2, err := s.PrepareStatement("SELECT name FROM items WHERE id = $1")
	if err != nil {
		t.Fatal(err)
	}
	if ps2 == ps {
		t.Fatal("statement cache served a statement prepared before DDL")
	}
}

func TestPreparedDML(t *testing.T) {
	e := preparedTestEngine(t)
	s := e.NewSession()
	ins, err := s.PrepareStatement("INSERT INTO items VALUES ($1, $2, $3)")
	if err != nil {
		t.Fatal(err)
	}
	if ins.ReturnsRows() {
		t.Fatal("INSERT should not report a result set")
	}
	want := []types.DataType{types.TypeInt64, types.TypeString, types.TypeFloat64}
	for i, dt := range want {
		if ins.ParamTypes[i] != dt {
			t.Fatalf("ParamTypes[%d] = %v, want %v", i, ins.ParamTypes[i], dt)
		}
	}
	for i := int64(10); i < 13; i++ {
		res, err := s.ExecutePreparedStatement(context.Background(), ins,
			[]types.Value{types.Int(i), types.Str("bulk"), types.Float(0.5)})
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsAffected != 1 {
			t.Fatalf("RowsAffected = %d, want 1", res.RowsAffected)
		}
	}
	upd, err := s.PrepareStatement("UPDATE items SET price = $1 WHERE name = $2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ExecutePreparedStatement(context.Background(), upd,
		[]types.Value{types.Float(9.9), types.Str("bulk")})
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 3 {
		t.Fatalf("UPDATE RowsAffected = %d, want 3", res.RowsAffected)
	}
	del, err := s.PrepareStatement("DELETE FROM items WHERE price = $1")
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.ExecutePreparedStatement(context.Background(), del, []types.Value{types.Float(9.9)})
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 3 {
		t.Fatalf("DELETE RowsAffected = %d, want 3", res.RowsAffected)
	}
}

func TestPreparedSubqueryKeepsPlan(t *testing.T) {
	// A placeholder inside a subquery is a statement parameter like any
	// other, beside correlated columns too: the statement carries its
	// parameterized plan — the semi join its literal form gets — and every
	// execution replays it and returns what the literal text returns.
	e := preparedTestEngine(t)
	s := e.NewSession()
	for _, sql := range []string{
		"SELECT name FROM items WHERE id IN (SELECT id FROM items WHERE price > $1) ORDER BY name",
		"SELECT name FROM items i WHERE EXISTS (SELECT 1 FROM items j WHERE j.id = i.id AND j.price > $1) ORDER BY name",
	} {
		ps, err := s.PrepareStatement(sql)
		if err != nil {
			t.Fatal(err)
		}
		if ps.plan == nil || !strings.Contains(operators.PlanString(ps.plan.root, nil), "HashJoin(Semi") {
			t.Fatalf("%s: no parameterized semi-join plan", sql)
		}
		if len(ps.Columns) != 1 || ps.Columns[0] != "name" || ps.ParamTypes[0] != types.TypeFloat64 {
			t.Fatalf("%s: Columns = %v, ParamTypes = %v; want [name], [FLOAT]", sql, ps.Columns, ps.ParamTypes)
		}
		for _, price := range []string{"2.0", "3.0"} {
			v, _ := types.ParseValue(types.TypeFloat64, price)
			res, err := s.ExecutePreparedStatement(context.Background(), ps, []types.Value{v})
			if err != nil {
				t.Fatal(err)
			}
			lit := mustExec(t, s, strings.ReplaceAll(sql, "$1", price))
			if got, want := RowStrings(res.Table), RowStrings(lit.Table); !reflect.DeepEqual(got, want) || len(got) == 0 {
				t.Errorf("%s, $1 = %s: rows = %v, literal text = %v", sql, price, got, want)
			}
			if !res.Timing.CacheHit {
				t.Errorf("%s, $1 = %s: the execution planned again", sql, price)
			}
		}
	}
}

func TestPreparedTransactionControl(t *testing.T) {
	e := preparedTestEngine(t)
	s := e.NewSession()
	begin, err := s.PrepareStatement("BEGIN")
	if err != nil {
		t.Fatal(err)
	}
	if begin.Tag != "BEGIN" || begin.ReturnsRows() {
		t.Fatalf("begin: tag=%q returnsRows=%v", begin.Tag, begin.ReturnsRows())
	}
	if _, err := s.ExecutePreparedStatement(context.Background(), begin, nil); err != nil {
		t.Fatal(err)
	}
	if !s.InTransaction() {
		t.Fatal("BEGIN via prepared statement did not open a transaction")
	}
	commit, err := s.PrepareStatement("COMMIT")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecutePreparedStatement(context.Background(), commit, nil); err != nil {
		t.Fatal(err)
	}
	if s.InTransaction() {
		t.Fatal("COMMIT via prepared statement did not close the transaction")
	}
}

func TestPreparedEmptyStatement(t *testing.T) {
	e := preparedTestEngine(t)
	s := e.NewSession()
	ps, err := s.PrepareStatement("   ")
	if err != nil {
		t.Fatal(err)
	}
	if !ps.Empty() {
		t.Fatal("blank SQL should prepare as the empty statement")
	}
	if _, err := s.ExecutePreparedStatement(context.Background(), ps, nil); err == nil {
		t.Fatal("executing the empty statement should error (server sends EmptyQueryResponse instead)")
	}
}
