package pipeline

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hyrise/internal/types"
)

// mustExec executes SQL and fails the test on error.
func mustExec(t *testing.T, s *Session, sql string) *Result {
	t.Helper()
	res, err := s.ExecuteOne(sql)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

func rows(t *testing.T, s *Session, sql string) [][]string {
	t.Helper()
	res := mustExec(t, s, sql)
	return RowStrings(res.Table)
}

func flatRows(t *testing.T, s *Session, sql string) []string {
	t.Helper()
	var out []string
	for _, r := range rows(t, s, sql) {
		out = append(out, strings.Join(r, "|"))
	}
	return out
}

func sortedFlat(t *testing.T, s *Session, sql string) []string {
	t.Helper()
	out := flatRows(t, s, sql)
	sort.Strings(out)
	return out
}

// newTestEngine seeds a small schema used by most tests.
func newTestEngine(t *testing.T, cfg Config) (*Engine, *Session) {
	t.Helper()
	e := NewEngine(cfg, nil)
	t.Cleanup(e.Close)
	s := e.NewSession()
	mustExec(t, s, `CREATE TABLE dept (d_id INT NOT NULL, d_name VARCHAR(20) NOT NULL)`)
	mustExec(t, s, `CREATE TABLE emp (
		e_id INT NOT NULL, e_dept INT NOT NULL, e_name VARCHAR(20) NOT NULL,
		e_salary FLOAT NOT NULL, e_bonus FLOAT)`)
	mustExec(t, s, `INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'legal')`)
	mustExec(t, s, `INSERT INTO emp VALUES
		(1, 1, 'ada', 120.0, 10.0),
		(2, 1, 'bob', 95.0, NULL),
		(3, 2, 'cyd', 80.0, 5.0),
		(4, 2, 'dan', 85.0, 7.5),
		(5, 2, 'eve', 110.0, NULL),
		(6, 1, 'fay', 150.0, 20.0)`)
	return e, s
}

func TestBasicSelectProjectionFilter(t *testing.T) {
	_, s := newTestEngine(t, DefaultConfig())
	got := sortedFlat(t, s, "SELECT e_name, e_salary * 2 AS dbl FROM emp WHERE e_salary > 100")
	want := []string{"ada|240", "eve|220", "fay|300"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	res := mustExec(t, s, "SELECT e_name FROM emp LIMIT 2")
	if res.Table.RowCount() != 2 {
		t.Errorf("limit: %d rows", res.Table.RowCount())
	}
	if res.Columns[0] != "e_name" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	_, s := newTestEngine(t, DefaultConfig())
	got := flatRows(t, s, "SELECT 1 + 2 AS three, 'x' AS s")
	if len(got) != 1 || got[0] != "3|x" {
		t.Errorf("got %v", got)
	}
}

func TestJoinQueries(t *testing.T) {
	_, s := newTestEngine(t, DefaultConfig())
	// Explicit JOIN ... ON.
	got := sortedFlat(t, s, `SELECT e_name, d_name FROM emp JOIN dept ON e_dept = d_id WHERE e_salary >= 110`)
	want := []string{"ada|eng", "eve|sales", "fay|eng"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("join: %v, want %v", got, want)
	}
	// Comma join (cross + predicate -> detected as inner by the optimizer).
	got2 := sortedFlat(t, s, `SELECT e_name, d_name FROM emp, dept WHERE e_dept = d_id AND e_salary >= 110`)
	if !reflect.DeepEqual(got2, want) {
		t.Errorf("comma join: %v, want %v", got2, want)
	}
	// LEFT JOIN keeps departments without employees.
	got3 := sortedFlat(t, s, `SELECT d_name, e_name FROM dept LEFT JOIN emp ON d_id = e_dept AND e_salary > 100`)
	want3 := []string{"eng|ada", "eng|fay", "legal|NULL", "sales|eve"}
	if !reflect.DeepEqual(got3, want3) {
		t.Errorf("left join: %v, want %v", got3, want3)
	}
	// Self join.
	got4 := sortedFlat(t, s, `SELECT a.e_name, b.e_name FROM emp a, emp b
		WHERE a.e_dept = b.e_dept AND a.e_id < b.e_id AND a.e_salary > 100 AND b.e_salary > 100`)
	want4 := []string{"ada|fay"}
	if !reflect.DeepEqual(got4, want4) {
		t.Errorf("self join: %v, want %v", got4, want4)
	}
}

func TestAggregationGroupByHaving(t *testing.T) {
	_, s := newTestEngine(t, DefaultConfig())
	got := sortedFlat(t, s, `
		SELECT d_name, count(*) AS n, sum(e_salary) AS total, avg(e_salary) AS mean,
			min(e_salary) AS lo, max(e_salary) AS hi, count(e_bonus) AS bonuses
		FROM emp JOIN dept ON e_dept = d_id
		GROUP BY d_name
		HAVING count(*) >= 2
		ORDER BY d_name`)
	want := []string{
		"eng|3|365|121.66666666666667|95|150|2",
		"sales|3|275|91.66666666666667|80|110|2",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	// Global aggregate without GROUP BY.
	got2 := flatRows(t, s, "SELECT count(*), sum(e_salary) FROM emp WHERE e_dept = 1")
	if len(got2) != 1 || got2[0] != "3|365" {
		t.Errorf("global agg: %v", got2)
	}
	// COUNT DISTINCT.
	got3 := flatRows(t, s, "SELECT count(DISTINCT e_dept) FROM emp")
	if got3[0] != "2" {
		t.Errorf("count distinct: %v", got3)
	}
}

func TestDistinctAndOrderBy(t *testing.T) {
	_, s := newTestEngine(t, DefaultConfig())
	got := flatRows(t, s, "SELECT DISTINCT e_dept FROM emp ORDER BY e_dept")
	if !reflect.DeepEqual(got, []string{"1", "2"}) {
		t.Errorf("distinct: %v", got)
	}
	// ORDER BY alias, DESC, and a non-projected column.
	got2 := flatRows(t, s, "SELECT e_name, e_salary AS pay FROM emp ORDER BY pay DESC LIMIT 3")
	want2 := []string{"fay|150", "ada|120", "eve|110"}
	if !reflect.DeepEqual(got2, want2) {
		t.Errorf("order by alias: %v", got2)
	}
	got3 := flatRows(t, s, "SELECT e_name FROM emp ORDER BY e_salary LIMIT 2")
	if !reflect.DeepEqual(got3, []string{"cyd", "dan"}) {
		t.Errorf("hidden sort column: %v", got3)
	}
}

func TestExpressionsInQueries(t *testing.T) {
	_, s := newTestEngine(t, DefaultConfig())
	got := sortedFlat(t, s, `
		SELECT e_name,
			CASE WHEN e_salary >= 120 THEN 'high' WHEN e_salary >= 90 THEN 'mid' ELSE 'low' END AS band
		FROM emp WHERE e_name LIKE '%a%'`)
	want := []string{"ada|high", "dan|low", "fay|high"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("case/like: %v, want %v", got, want)
	}
	// IS NULL / IS NOT NULL / IN / BETWEEN.
	got2 := sortedFlat(t, s, "SELECT e_name FROM emp WHERE e_bonus IS NULL")
	if !reflect.DeepEqual(got2, []string{"bob", "eve"}) {
		t.Errorf("is null: %v", got2)
	}
	got3 := sortedFlat(t, s, "SELECT e_name FROM emp WHERE e_id IN (1, 3, 9) AND e_salary BETWEEN 50 AND 130")
	if !reflect.DeepEqual(got3, []string{"ada", "cyd"}) {
		t.Errorf("in/between: %v", got3)
	}
	// substring.
	got4 := flatRows(t, s, "SELECT substring(e_name from 1 for 2) FROM emp WHERE e_id = 1")
	if got4[0] != "ad" {
		t.Errorf("substring: %v", got4)
	}
}

func TestScalarSubqueries(t *testing.T) {
	_, s := newTestEngine(t, DefaultConfig())
	// Uncorrelated.
	got := sortedFlat(t, s, `SELECT e_name FROM emp WHERE e_salary > (SELECT avg(e_salary) FROM emp)`)
	want := []string{"ada", "eve", "fay"} // avg = 106.66
	if !reflect.DeepEqual(got, want) {
		t.Errorf("uncorrelated scalar: %v, want %v", got, want)
	}
	// Correlated: employees above their department average.
	got2 := sortedFlat(t, s, `
		SELECT e_name FROM emp e
		WHERE e_salary > (SELECT avg(e_salary) FROM emp i WHERE i.e_dept = e.e_dept)`)
	want2 := []string{"eve", "fay"} // eng avg 121.67 -> fay; sales avg 91.67 -> eve
	if !reflect.DeepEqual(got2, want2) {
		t.Errorf("correlated scalar: %v, want %v", got2, want2)
	}
}

func TestInAndExistsSubqueries(t *testing.T) {
	for _, optimize := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.UseOptimizer = optimize
		t.Run(fmt.Sprintf("optimizer=%v", optimize), func(t *testing.T) {
			_, s := newTestEngine(t, cfg)
			got := sortedFlat(t, s, `SELECT d_name FROM dept WHERE d_id IN (SELECT e_dept FROM emp WHERE e_salary > 100)`)
			want := []string{"eng", "sales"}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("IN: %v, want %v", got, want)
			}
			got2 := sortedFlat(t, s, `SELECT d_name FROM dept WHERE d_id NOT IN (SELECT e_dept FROM emp)`)
			if !reflect.DeepEqual(got2, []string{"legal"}) {
				t.Errorf("NOT IN: %v", got2)
			}
			got3 := sortedFlat(t, s, `SELECT d_name FROM dept WHERE EXISTS (SELECT 1 FROM emp WHERE e_dept = d_id AND e_salary > 140)`)
			if !reflect.DeepEqual(got3, []string{"eng"}) {
				t.Errorf("EXISTS: %v", got3)
			}
			got4 := sortedFlat(t, s, `SELECT d_name FROM dept WHERE NOT EXISTS (SELECT 1 FROM emp WHERE e_dept = d_id)`)
			if !reflect.DeepEqual(got4, []string{"legal"}) {
				t.Errorf("NOT EXISTS: %v", got4)
			}
		})
	}
}

func TestDerivedTablesAndViews(t *testing.T) {
	_, s := newTestEngine(t, DefaultConfig())
	got := sortedFlat(t, s, `
		SELECT d.d_name, top.total FROM
			(SELECT e_dept, sum(e_salary) AS total FROM emp GROUP BY e_dept) AS top,
			dept d
		WHERE top.e_dept = d.d_id AND top.total > 300`)
	want := []string{"eng|365"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("derived table: %v, want %v", got, want)
	}
	mustExec(t, s, `CREATE VIEW rich AS SELECT e_name, e_salary FROM emp WHERE e_salary > 100`)
	got2 := sortedFlat(t, s, "SELECT e_name FROM rich WHERE e_salary < 130")
	if !reflect.DeepEqual(got2, []string{"ada", "eve"}) {
		t.Errorf("view: %v", got2)
	}
	mustExec(t, s, "DROP VIEW rich")
	if _, err := s.ExecuteOne("SELECT * FROM rich"); err == nil {
		t.Error("dropped view should be gone")
	}
}

func TestDMLThroughSQL(t *testing.T) {
	_, s := newTestEngine(t, DefaultConfig())
	res := mustExec(t, s, "INSERT INTO dept VALUES (4, 'hr')")
	if res.RowsAffected != 1 || res.Tag != "INSERT" {
		t.Errorf("insert result = %+v", res)
	}
	res = mustExec(t, s, "UPDATE emp SET e_salary = e_salary + 10 WHERE e_dept = 2")
	if res.RowsAffected != 3 {
		t.Errorf("update affected %d", res.RowsAffected)
	}
	got := sortedFlat(t, s, "SELECT e_name, e_salary FROM emp WHERE e_dept = 2")
	want := []string{"cyd|90", "dan|95", "eve|120"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("after update: %v", got)
	}
	res = mustExec(t, s, "DELETE FROM emp WHERE e_salary < 95")
	if res.RowsAffected != 1 {
		t.Errorf("delete affected %d", res.RowsAffected)
	}
	got = flatRows(t, s, "SELECT count(*) FROM emp")
	if got[0] != "5" {
		t.Errorf("count after delete: %v", got)
	}
}

func TestExplicitTransactions(t *testing.T) {
	e, s := newTestEngine(t, DefaultConfig())
	mustExec(t, s, "BEGIN")
	if !s.InTransaction() {
		t.Fatal("transaction should be open")
	}
	mustExec(t, s, "INSERT INTO dept VALUES (9, 'tmp')")
	// Same session sees its own insert.
	if got := flatRows(t, s, "SELECT count(*) FROM dept"); got[0] != "4" {
		t.Errorf("own insert invisible: %v", got)
	}
	// Another session does not.
	s2 := e.NewSession()
	if got := flatRows(t, s2, "SELECT count(*) FROM dept"); got[0] != "3" {
		t.Errorf("uncommitted insert visible to other session: %v", got)
	}
	mustExec(t, s, "ROLLBACK")
	if got := flatRows(t, s, "SELECT count(*) FROM dept"); got[0] != "3" {
		t.Errorf("rollback failed: %v", got)
	}
	// Commit path.
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO dept VALUES (9, 'tmp')")
	mustExec(t, s, "COMMIT")
	if got := flatRows(t, s2, "SELECT count(*) FROM dept"); got[0] != "4" {
		t.Errorf("committed insert invisible: %v", got)
	}
	// Errors.
	if _, err := s.ExecuteOne("COMMIT"); err == nil {
		t.Error("commit without begin should fail")
	}
	mustExec(t, s, "BEGIN")
	if _, err := s.ExecuteOne("BEGIN"); err == nil {
		t.Error("nested begin should fail")
	}
	mustExec(t, s, "ROLLBACK")
}

func TestOptimizerOnOffAgreement(t *testing.T) {
	queries := []string{
		"SELECT e_name FROM emp WHERE e_salary > 90 AND e_dept = 1",
		"SELECT e_name, d_name FROM emp, dept WHERE e_dept = d_id",
		"SELECT d_name, count(*) FROM emp JOIN dept ON e_dept = d_id GROUP BY d_name",
		"SELECT d_name FROM dept WHERE d_id IN (SELECT e_dept FROM emp WHERE e_bonus IS NOT NULL)",
		"SELECT e_name FROM emp WHERE e_salary > (SELECT avg(e_salary) FROM emp) ORDER BY e_name",
		`SELECT a.e_name FROM emp a, emp b, dept WHERE a.e_dept = b.e_dept AND a.e_dept = d_id AND b.e_name = 'ada'`,
	}
	cfgOn := DefaultConfig()
	cfgOff := DefaultConfig()
	cfgOff.UseOptimizer = false
	_, sOn := newTestEngine(t, cfgOn)
	_, sOff := newTestEngine(t, cfgOff)
	for _, q := range queries {
		on := sortedFlat(t, sOn, q)
		off := sortedFlat(t, sOff, q)
		if !reflect.DeepEqual(on, off) {
			t.Errorf("optimizer changed semantics of %q:\n  on:  %v\n  off: %v", q, on, off)
		}
	}
}

func TestSchedulerOnOffAgreement(t *testing.T) {
	cfgSched := DefaultConfig()
	cfgSched.UseScheduler = true
	cfgSched.SchedulerWorkers = 4
	_, sOn := newTestEngine(t, cfgSched)
	_, sOff := newTestEngine(t, DefaultConfig())
	queries := []string{
		"SELECT d_name, count(*), sum(e_salary) FROM emp JOIN dept ON e_dept = d_id GROUP BY d_name ORDER BY d_name",
		"SELECT e_name FROM emp WHERE e_salary BETWEEN 80 AND 120 ORDER BY e_name",
	}
	for _, q := range queries {
		if on, off := flatRows(t, sOn, q), flatRows(t, sOff, q); !reflect.DeepEqual(on, off) {
			t.Errorf("scheduler changed results of %q: %v vs %v", q, on, off)
		}
	}
}

func TestMvccDisabledMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseMvcc = false
	e := NewEngine(cfg, nil)
	t.Cleanup(e.Close)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (a INT NOT NULL)")
	// Inserts still work (no MVCC columns, immediately visible).
	mustExec(t, s, "INSERT INTO t VALUES (1), (2)")
	if got := flatRows(t, s, "SELECT count(*) FROM t"); got[0] != "2" {
		t.Errorf("count = %v", got)
	}
	// Updates/deletes are rejected: tables are read-only without MVCC.
	if _, err := s.ExecuteOne("DELETE FROM t WHERE a = 1"); err == nil {
		t.Error("delete without MVCC should fail")
	}
	if _, err := s.ExecuteOne("BEGIN"); err == nil {
		t.Error("transactions without MVCC should fail")
	}
}

func TestPlanCache(t *testing.T) {
	e, s := newTestEngine(t, DefaultConfig())
	q := "SELECT e_name FROM emp WHERE e_salary > 100"
	first := mustExec(t, s, q)
	if first.Timing.CacheHit {
		t.Error("first run should miss the cache")
	}
	second := mustExec(t, s, q)
	if !second.Timing.CacheHit {
		t.Error("second run should hit the cache")
	}
	hits, misses := e.PlanCacheStats()
	if hits < 1 || misses < 1 {
		t.Errorf("cache stats: hits=%d misses=%d", hits, misses)
	}
	// Cached plans still see new data (positions resolve at execution).
	mustExec(t, s, "INSERT INTO emp VALUES (7, 3, 'gus', 200.0, NULL)")
	got := sortedFlat(t, s, q)
	if !reflect.DeepEqual(got, []string{"ada", "eve", "fay", "gus"}) {
		t.Errorf("cached plan missed new rows: %v", got)
	}
}

func TestPreparedStatements(t *testing.T) {
	e, s := newTestEngine(t, DefaultConfig())
	if err := e.Prepare("by_salary", "SELECT e_name FROM emp WHERE e_salary > ? AND e_dept = ?"); err != nil {
		t.Fatal(err)
	}
	res, err := s.ExecutePrepared("by_salary", []types.Value{types.Float(100), types.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	got := RowStrings(res.Table)
	if len(got) != 2 {
		t.Errorf("prepared exec 1: %v", got)
	}
	// Re-execution with different parameters.
	res, err = s.ExecutePrepared("by_salary", []types.Value{types.Float(80), types.Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(RowStrings(res.Table)) != 2 { // dan 85, eve 110
		t.Errorf("prepared exec 2: %v", RowStrings(res.Table))
	}
	if _, err := s.ExecutePrepared("nope", nil); err == nil {
		t.Error("unknown prepared statement should fail")
	}
	if err := e.Prepare("bad", "SELEKT"); err == nil {
		t.Error("bad SQL should fail at prepare time")
	}
}

func TestPlansInspection(t *testing.T) {
	e, _ := newTestEngine(t, DefaultConfig())
	unopt, opt, pqp, err := e.Plans("SELECT e_name FROM emp, dept WHERE e_dept = d_id AND e_salary > 100")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(unopt, "Join(Cross") {
		t.Errorf("unoptimized plan should contain a cross join:\n%s", unopt)
	}
	if !strings.Contains(opt, "Join(Inner") {
		t.Errorf("optimized plan should contain an inner join:\n%s", opt)
	}
	if !strings.Contains(pqp, "HashJoin") {
		t.Errorf("physical plan should use a hash join:\n%s", pqp)
	}
}

func TestMultiStatementExecution(t *testing.T) {
	_, s := newTestEngine(t, DefaultConfig())
	results, err := s.Execute("INSERT INTO dept VALUES (5, 'ops'); SELECT count(*) FROM dept")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	if got := RowStrings(results[1].Table); got[0][0] != "4" {
		t.Errorf("second statement result: %v", got)
	}
}

func TestErrorMessages(t *testing.T) {
	_, s := newTestEngine(t, DefaultConfig())
	for _, bad := range []string{
		"SELECT nope FROM emp",
		"SELECT * FROM missing",
		"INSERT INTO emp VALUES (1)",
		"SELECT e_name FROM emp WHERE e_name > 5", // type mismatch
	} {
		if _, err := s.ExecuteOne(bad); err == nil {
			t.Errorf("%q should fail", bad)
		}
	}
}

func TestWriteWriteConflictThroughSQL(t *testing.T) {
	e, s1 := newTestEngine(t, DefaultConfig())
	s2 := e.NewSession()
	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "UPDATE emp SET e_salary = 1 WHERE e_id = 1")
	// Concurrent update of the same row conflicts.
	if _, err := s2.ExecuteOne("UPDATE emp SET e_salary = 2 WHERE e_id = 1"); err == nil {
		t.Error("conflicting update should fail")
	}
	mustExec(t, s1, "COMMIT")
	// Now it works again.
	mustExec(t, s2, "UPDATE emp SET e_salary = 2 WHERE e_id = 1")
	if got := flatRows(t, s2, "SELECT e_salary FROM emp WHERE e_id = 1"); got[0] != "2" {
		t.Errorf("final salary: %v", got)
	}
}

func TestSortMergeJoinConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JoinImpl = 1 // PreferSortMergeJoin
	_, s := newTestEngine(t, cfg)
	got := sortedFlat(t, s, "SELECT e_name, d_name FROM emp JOIN dept ON e_dept = d_id WHERE e_salary > 140")
	if !reflect.DeepEqual(got, []string{"fay|eng"}) {
		t.Errorf("sort-merge join result: %v", got)
	}
}
