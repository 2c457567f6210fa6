package pipeline

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyrise/internal/expression"
	"hyrise/internal/lqp"
	"hyrise/internal/observe"
	"hyrise/internal/rowengine"
	"hyrise/internal/sqlparser"
	"hyrise/internal/storage"
	"hyrise/internal/tpch"
	"hyrise/internal/types"
)

// routeCase is one statement of the route-equivalence corpus: SQL with $n
// placeholders plus the values a route binds to them. Routes that take
// literals get the values rendered into the text (RouteLiteralSQL), so every
// route executes the same fingerprint.
type routeCase struct {
	sql  string
	args func(route int) []types.Value // nil: no parameters
}

func (c routeCase) values(route int) []types.Value {
	if c.args == nil {
		return nil
	}
	return c.args(route)
}

func sameArgs(vals ...types.Value) func(int) []types.Value {
	return func(int) []types.Value { return vals }
}

// routeLiteralSQL renders the parameter values into the statement text.
func routeLiteralSQL(sql string, args []types.Value) string {
	for i := len(args) - 1; i >= 0; i-- {
		var lit string
		switch v := args[i]; v.Type {
		case types.TypeString:
			lit = "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
		case types.TypeFloat64:
			lit = strconv.FormatFloat(v.F, 'f', -1, 64)
			if !strings.Contains(lit, ".") {
				lit += ".0"
			}
		default:
			lit = strconv.FormatInt(v.I, 10)
		}
		sql = strings.ReplaceAll(sql, "$"+strconv.Itoa(i+1), lit)
	}
	return sql
}

// routeCorpus is shared by the wire-level twin of TestRoutesAgree in
// internal/server (kept in step by hand: that package cannot import test
// code). Every route runs the cases in order; route-dependent values keep the
// DML of one route out of the rows another route checks.
func routeCorpus() []routeCase {
	id := func(route int) int64 { return 1000 + int64(route) }
	corpus := []routeCase{
		{sql: "SELECT id, v, label FROM kv WHERE id = $1", args: sameArgs(types.Int(7))},
		{sql: "SELECT id, v FROM kv WHERE id BETWEEN $1 AND $2 ORDER BY id", args: sameArgs(types.Int(3), types.Int(6))},
		{sql: "SELECT id FROM kv WHERE label = $1 AND v > $2", args: sameArgs(types.Str("l4"), types.Float(1.5))},
		// A parameter inside a subquery: the statement keeps its plan.
		{sql: "SELECT id FROM kv WHERE id IN (SELECT id FROM kv WHERE v > $1) ORDER BY id", args: sameArgs(types.Float(7.0))},
		// Slots typed by the plan: through a view, a derived table, a
		// function and a correlated subquery over the view, '42' is text.
		{sql: "SELECT id FROM kv_view WHERE label = $1", args: sameArgs(types.Str("42"))},
		{sql: "SELECT d.id FROM (SELECT id, label FROM kv) AS d WHERE d.label = $1", args: sameArgs(types.Str("42"))},
		{sql: "SELECT id FROM kv WHERE lower(label) = $1", args: sameArgs(types.Str("42"))},
		{sql: "SELECT id FROM kv WHERE EXISTS (SELECT 1 FROM kv_view w WHERE w.id = kv.id AND w.label = $1)", args: sameArgs(types.Str("42"))},
		{sql: "INSERT INTO kv VALUES ($1, $2, $3)", args: func(r int) []types.Value {
			return []types.Value{types.Int(id(r)), types.Float(0.5), types.Str("route")}
		}},
		{sql: "UPDATE kv SET v = $1 WHERE id = $2", args: func(r int) []types.Value {
			return []types.Value{types.Float(9.25), types.Int(id(r))}
		}},
		{sql: "SELECT v, label FROM kv WHERE id = $1", args: func(r int) []types.Value { return []types.Value{types.Int(id(r))} }},
		{sql: "DELETE FROM kv WHERE id = $1", args: func(r int) []types.Value { return []types.Value{types.Int(id(r))} }},
		{sql: "CREATE TABLE route_scratch (a INT NOT NULL)"},
		{sql: "INSERT INTO route_scratch VALUES (1), (2)"},
		{sql: "DROP TABLE route_scratch"},
		{sql: "BEGIN"},
		{sql: "INSERT INTO kv VALUES ($1, $2, $3)", args: sameArgs(types.Int(2000), types.Float(1.0), types.Str("rolled back"))},
		{sql: "ROLLBACK"},
		{sql: "BEGIN"},
		{sql: "COMMIT"},
		{sql: "SELECT count(*) FROM kv"},
		{sql: "SELECT cancel_query($1)", args: sameArgs(types.Int(0))},
		{sql: "SELECT promote_replica()"},
		{sql: "SELECT * FROM no_such_table"},
	}
	queries := tpch.Queries(0.01)
	for _, num := range tpch.QueryNumbers() {
		corpus = append(corpus, routeCase{sql: queries[num]})
	}
	return corpus
}

// routeOutcome is everything a route reports about one execution.
type routeOutcome struct {
	Columns  []string
	Types    []types.DataType
	Rows     [][]string
	Tag      string
	Affected int64
	Failed   bool
}

func outcomeOf(res *Result, err error) routeOutcome {
	if err != nil {
		return routeOutcome{Failed: true}
	}
	out := routeOutcome{Columns: res.Columns, Rows: RowStrings(res.Table), Tag: res.Tag, Affected: res.RowsAffected}
	if res.Table != nil {
		for _, d := range res.Table.ColumnDefinitions() {
			out.Types = append(out.Types, d.Type)
		}
	}
	if res.Tag != "SELECT" { // DML results carry an internal count table
		out.Columns, out.Types, out.Rows = nil, nil, nil
	}
	return out
}

func newRouteEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	sm := storage.NewStorageManager()
	if err := tpch.Generate(sm, tpch.Config{ScaleFactor: 0.01, ChunkSize: 10000, UseMvcc: cfg.UseMvcc, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cfg, sm)
	t.Cleanup(e.Close)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE kv (id INT NOT NULL, v FLOAT NOT NULL, label VARCHAR(16) NOT NULL)")
	for i := 0; i < 10; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d.5, 'l%d')", i, i, i))
	}
	mustExec(t, s, "INSERT INTO kv VALUES (10, 10.5, '42')")
	mustExec(t, s, "CREATE VIEW kv_view AS SELECT id, v, label FROM kv")
	return e
}

// TestRoutesAgree runs one corpus through every in-process entry
// point — text with literals, PrepareStatement + ExecutePreparedStatement
// with parameters, and the named Prepare/ExecutePrepared facade — and demands
// identical rows, column names and types, tags and RowsAffected, plus one
// statement-statistics row per fingerprint counting the executions of all
// routes: there is one route, however it is entered.
func TestRoutesAgree(t *testing.T) {
	e := newRouteEngine(t, DefaultConfig())
	s := e.NewSession()
	before := map[string]int64{}
	for _, r := range e.StatementStats() {
		before[r.Query] = r.Calls
	}
	routes := []struct {
		name string
		run  func(i int, c routeCase, args []types.Value) (*Result, error)
	}{
		{"text", func(_ int, c routeCase, args []types.Value) (*Result, error) {
			return s.ExecuteOne(routeLiteralSQL(c.sql, args))
		}},
		{"prepared", func(_ int, c routeCase, args []types.Value) (*Result, error) {
			ps, err := s.PrepareStatement(c.sql)
			if err != nil {
				return nil, err
			}
			return s.ExecutePreparedStatement(context.Background(), ps, args)
		}},
		{"named", func(i int, c routeCase, args []types.Value) (*Result, error) {
			name := fmt.Sprintf("case%d", i)
			if err := e.Prepare(name, c.sql); err != nil {
				return nil, err
			}
			return s.ExecutePrepared(name, args)
		}},
	}
	corpus := routeCorpus()
	planned := map[string]int64{} // fingerprint -> executions that reached the planner
	outcomes := make([][]routeOutcome, len(routes))
	for r, route := range routes {
		for i, c := range corpus {
			args := c.values(r)
			fp := sqlparser.Fingerprint(c.sql)
			if lit := sqlparser.Fingerprint(routeLiteralSQL(c.sql, args)); lit != fp {
				t.Fatalf("corpus case %d: literal form fingerprints to %q, parameterized to %q", i, lit, fp)
			}
			out := outcomeOf(route.run(i, c, args))
			outcomes[r] = append(outcomes[r], out)
			if stmt, err := sqlparser.ParseOne(c.sql); err == nil && plannedStatement(stmt) && !(out.Failed && r > 0) {
				// A statement that fails to plan is metered on the text route
				// only: the others report it at Parse time, before execution.
				planned[fp]++
			}
		}
	}
	for r := 1; r < len(routes); r++ {
		for i, c := range corpus {
			if !reflect.DeepEqual(outcomes[0][i], outcomes[r][i]) {
				t.Errorf("%q: route %s = %+v, route %s = %+v", c.sql, routes[0].name, outcomes[0][i], routes[r].name, outcomes[r][i])
			}
		}
	}
	for i, c := range corpus {
		if failed := outcomes[0][i].Failed; failed != strings.Contains(c.sql, "no_such_table") {
			t.Errorf("%q: failed = %v", c.sql, failed)
		}
	}
	after := map[string]int64{}
	for _, r := range e.StatementStats() {
		if _, dup := after[r.Query]; dup {
			t.Errorf("two statement-statistics rows for %q", r.Query)
		}
		after[r.Query] = r.Calls
	}
	for fp, want := range planned {
		if got := after[fp] - before[fp]; got != want {
			t.Errorf("statement statistics for %q: calls = %d, want %d (all routes together)", fp, got, want)
		}
	}

	// The empty statement has handles but no execution, on every route.
	if _, err := s.ExecuteOne("  "); err == nil {
		t.Error("text route executed the empty statement")
	}
	ps, err := s.PrepareStatement(" ; ")
	if err != nil || !ps.Empty() {
		t.Fatalf("PrepareStatement of an empty text = %+v, %v", ps, err)
	}
	if _, err := s.ExecutePreparedStatement(context.Background(), ps, nil); err == nil {
		t.Error("prepared route executed the empty statement")
	}

	// A batch is text-route only; its members are prepared as they run, so a
	// later one may read what an earlier one creates, and results before a
	// failure stand.
	batch := "CREATE TABLE dep (a INT NOT NULL); INSERT INTO dep VALUES (1), (2); SELECT a FROM dep ORDER BY a; DROP TABLE dep"
	results, err := s.Execute(batch)
	if err != nil || len(results) != 4 {
		t.Fatalf("batch: %d results, %v", len(results), err)
	}
	if got := RowStrings(results[2].Table); !reflect.DeepEqual(got, [][]string{{"1"}, {"2"}}) || results[1].RowsAffected != 2 {
		t.Errorf("batch: rows = %v, inserted = %d", got, results[1].RowsAffected)
	}
	results, err = s.Execute("SELECT count(*) FROM kv; SELECT * FROM no_such_table; SELECT 1")
	if err == nil || len(results) != 1 {
		t.Errorf("failing batch: %d results, err = %v; want the first result and the error", len(results), err)
	}
	if _, err := s.PrepareStatement(batch); err == nil {
		t.Error("a batch was accepted as a prepared statement")
	}

	// Explain takes the route too: a statement that outlives StatementTimeout
	// fails it like any other and is counted (it ran unbounded and unmetered
	// before).
	t.Run("explain_timeout", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.StatementTimeout = 2 * time.Millisecond
		e := NewEngine(cfg, e.StorageManager())
		t.Cleanup(e.Close)
		timedOut := metric(t, e, "engine.statements.timed_out")
		_, err := e.NewSession().Explain("SELECT count(*) FROM lineitem a, lineitem b WHERE a.l_partkey = b.l_partkey")
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Explain of a statement longer than StatementTimeout: err = %v, want the timeout", err)
		}
		if got := metric(t, e, "engine.statements.timed_out") - timedOut; got != 1 {
			t.Errorf("engine.statements.timed_out advanced by %d, want 1", got)
		}
	})
}

// TestRoutePreparedSurvivesUnrelatedDDL: a handle outlives DDL. The first
// execution after a catalog change re-prepares the text through the cache;
// from then on the stale handle replays the fresh plan (it re-parsed, bound
// literals and re-planned on every execution, forever, before).
// TestRouteRejectsMistypedExpressions: a statement that breaks the type rule
// fails when it is prepared and when it is executed, on an empty table and on
// a full one, with the row engine's message and the rule's sentinel error.
func TestRouteRejectsMistypedExpressions(t *testing.T) {
	sm := storage.NewStorageManager()
	s := NewEngine(DefaultConfig(), sm).NewSession()
	if _, err := s.ExecuteOne("CREATE TABLE t (a INT, b INT NOT NULL, f FLOAT, s VARCHAR(10))"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		sql  string
		want error
	}{
		{"SELECT a FROM t WHERE s = 1", expression.ErrUndefinedFunction},
		{"SELECT a FROM t WHERE s IN (1)", expression.ErrUndefinedFunction},
		{"SELECT a FROM t WHERE a IN (SELECT s FROM t)", expression.ErrUndefinedFunction},
		{"SELECT a FROM t WHERE a LIKE 'x'", expression.ErrUndefinedFunction},
		{"SELECT CASE WHEN a > 5 THEN a ELSE s END FROM t", expression.ErrDatatypeMismatch},
		{"SELECT sum(a > 0) FROM t", expression.ErrUndefinedFunction},
		{"SELECT upper(s, 1) FROM t", expression.ErrUndefinedFunction},
		{"SELECT bogus(a) FROM t", expression.ErrUndefinedFunction},
		{"SELECT a + s FROM t", expression.ErrUndefinedFunction},
		{"SELECT -s FROM t", expression.ErrUndefinedFunction},
		{"SELECT -(a > 0) FROM t", expression.ErrUndefinedFunction},
		{"SELECT (a > 0) + 1 FROM t", expression.ErrUndefinedFunction},
		{"SELECT a FROM t ORDER BY -s", expression.ErrUndefinedFunction},
		{"SELECT a FROM t WHERE a IN (SELECT s + 1 FROM t)", expression.ErrUndefinedFunction},
		{"SELECT a AND (b > 0) FROM t", expression.ErrNotBoolean},
		{"SELECT NOT a FROM t", expression.ErrNotBoolean},
		{"SELECT a FROM t WHERE s", expression.ErrNotBoolean},
		{"SELECT a FROM t WHERE s OR a > 0", expression.ErrNotBoolean},
		{"SELECT CASE WHEN a THEN 1 ELSE 2 END FROM t", expression.ErrNotBoolean},
		{"SELECT count(*) FROM t HAVING count(*)", expression.ErrNotBoolean},
		{"SELECT t.a FROM t JOIN t AS u ON t.a", expression.ErrNotBoolean},
	}
	for _, table := range []string{"empty", "full"} {
		if table == "full" {
			if _, err := s.ExecuteOne("INSERT INTO t VALUES (1, 2, 1.5, 'x'), (-1, 3, 0.0, 'y'), (NULL, 4, NULL, NULL)"); err != nil {
				t.Fatal(err)
			}
		}
		oracle := rowengine.NewFromStorage(sm)
		for _, c := range cases {
			_, _, want := oracle.Query(c.sql)
			if !errors.Is(want, c.want) {
				t.Fatalf("row engine %q: error %v, want %v", c.sql, want, c.want)
			}
			_, prepErr := s.PrepareStatement(c.sql)
			_, execErr := s.ExecuteOne(c.sql)
			for route, err := range map[string]error{"prepare": prepErr, "execute": execErr} {
				if err == nil || err.Error() != want.Error() || !errors.Is(err, c.want) {
					t.Errorf("%s %q over the %s table: error %v, want %v", route, c.sql, table, err, want)
				}
			}
		}
		// A slot nothing types is VARCHAR, which unary minus does not take.
		if _, err := s.PrepareStatement("SELECT -$1 FROM t"); !errors.Is(err, expression.ErrUndefinedFunction) {
			t.Errorf("prepare SELECT -$1 over the %s table: error %v, want %v", table, err, expression.ErrUndefinedFunction)
		}
	}
}

func TestRoutePreparedSurvivesUnrelatedDDL(t *testing.T) {
	e := preparedTestEngine(t)
	s, ddl := e.NewSession(), e.NewSession()
	var traces []string
	e.SetTraceSink(func(tr *observe.Trace) {
		var names []string
		for _, st := range tr.Stages() {
			names = append(names, st.Name)
		}
		traces = append(traces, strings.Join(names, ","))
	})
	ps, err := s.PrepareStatement("SELECT name FROM items WHERE id = $1")
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, ddl, "CREATE TABLE other (x INT)")
	traces = nil
	for i := 0; i < 3; i++ {
		res, err := s.ExecutePreparedStatement(context.Background(), ps, []types.Value{types.Int(3)})
		if err != nil {
			t.Fatal(err)
		}
		if got := RowStrings(res.Table); len(got) != 1 || got[0][0] != "cherry" {
			t.Fatalf("execution %d: rows = %v", i, got)
		}
		if i > 0 && (!res.Timing.CacheHit || strings.Contains(traces[i], "optimize")) {
			t.Errorf("execution %d after unrelated DDL: CacheHit = %v, stages = %s; want a replay", i, res.Timing.CacheHit, traces[i])
		}
	}

	// DROP + re-CREATE of the referenced table: the handle binds to the new
	// table, never to the dropped one's chunks.
	mustExec(t, ddl, "DROP TABLE items")
	if _, err := s.ExecutePreparedStatement(context.Background(), ps, []types.Value{types.Int(3)}); err == nil {
		t.Fatal("execution against a dropped table succeeded")
	}
	mustExec(t, ddl, "CREATE TABLE items (id INT, name VARCHAR(20))")
	mustExec(t, ddl, "INSERT INTO items VALUES (3, 'pear')")
	for i := 0; i < 2; i++ {
		res, err := s.ExecutePreparedStatement(context.Background(), ps, []types.Value{types.Int(3)})
		if err != nil {
			t.Fatal(err)
		}
		if got := RowStrings(res.Table); len(got) != 1 || got[0][0] != "pear" {
			t.Fatalf("after re-create: rows = %v, want [[pear]]", got)
		}
		if res.Timing.CacheHit != (i > 0) {
			t.Errorf("after re-create, execution %d: CacheHit = %v", i, res.Timing.CacheHit)
		}
	}
}

// TestRouteCacheHitParsesNothing pins, in allocations rather than time, that a
// text the engine has seen is neither lexed nor parsed again — it costs what
// replaying the prepared form of the same statement costs — and that a replay
// does not lex for a fingerprint either (+37 and +25 allocations before).
func TestRouteCacheHitParsesNothing(t *testing.T) {
	e := NewEngine(DefaultConfig(), nil)
	t.Cleanup(e.Close)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE kv (id INT NOT NULL, a INT NOT NULL, b INT NOT NULL, c VARCHAR(10) NOT NULL)")
	mustExec(t, s, "INSERT INTO kv VALUES (1, 6, 1, 'x'), (2, 7, 2, 'y'), (2, 9, 2, 'y'), (3, 8, 3, 'z')")
	text := "SELECT id, a, b, c FROM kv WHERE id = 2 AND a > 5 ORDER BY a LIMIT 3"
	mustExec(t, s, text)
	hit := testing.AllocsPerRun(100, func() {
		if res, err := s.ExecuteOne(text); err != nil || !res.Timing.CacheHit {
			t.Fatalf("text hit: %v", err)
		}
	})
	ps, err := s.PrepareStatement("SELECT id, a, b, c FROM kv WHERE id = $1 AND a > $2 ORDER BY a LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	params := []types.Value{types.Int(2), types.Int(5)}
	replay := testing.AllocsPerRun(100, func() {
		if _, err := s.ExecutePreparedStatement(context.Background(), ps, params); err != nil {
			t.Fatal(err)
		}
	})
	if hit > replay+5 {
		t.Errorf("a text hit allocates %.0f, the prepared replay %.0f: the hit still parses", hit, replay)
	}
	// 279 at the commit that still fingerprinted every replay, 254 after.
	if replay > 265 {
		t.Errorf("a prepared replay allocates %.0f, want <= 265: it lexes for a fingerprint again", replay)
	}
}

// TestRoutePreparedInsertAllocates pins, in allocations, what a prepared
// one-row INSERT costs end to end: its count comes back as
// Result.RowsAffected, with no table to carry it, its bound values are
// stored as they are, and its plan runs inline.
func TestRoutePreparedInsertAllocates(t *testing.T) {
	e := NewEngine(DefaultConfig(), nil)
	t.Cleanup(e.Close)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE kv (id INT NOT NULL, tag VARCHAR(20), val FLOAT)")
	ps, err := s.PrepareStatement("INSERT INTO kv VALUES ($1, $2, $3)")
	if err != nil {
		t.Fatal(err)
	}
	id := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		id++
		res, err := s.ExecutePreparedStatement(context.Background(), ps, []types.Value{types.Int(id), types.Str("load"), types.Float(1.5)})
		if err != nil || res.RowsAffected != 1 {
			t.Fatalf("insert %d: %v", id, err)
		}
	})
	// 49 while the count came back in a one-cell table, the plan ran as
	// scheduler tasks, each cell was evaluated into a vector and the wire
	// server's cancel context was the parent of the registry's; 14 while the
	// freeze queue boxed each block it pushed and popped and each statement
	// built its own wait observer; 11 now (the parameter slice above
	// included; an Insert has no input slice to build).
	if allocs > 11 {
		t.Errorf("a prepared one-row INSERT allocates %.0f, want <= 11", allocs)
	}
}

// TestRouteDropTableForgetsStatistics: the DDL hook releases the statistics (and
// with them the chunks) of tables that left the catalog.
func TestRouteDropTableForgetsStatistics(t *testing.T) {
	e := preparedTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "SELECT name FROM items WHERE id = 2 AND price > 1.0") // ordering predicates builds statistics
	old, err := e.StorageManager().GetTable("items")
	if err != nil {
		t.Fatal(err)
	}
	if e.Statistics().Peek(old) == nil {
		t.Fatal("planning built no statistics for items")
	}
	mustExec(t, s, "DROP TABLE items")
	if e.Statistics().Peek(old) != nil {
		t.Error("statistics of a dropped table are still cached")
	}
	mustExec(t, s, "CREATE TABLE items (id INT, name VARCHAR(20))")
	mustExec(t, s, "INSERT INTO items VALUES (1, 'only')")
	mustExec(t, s, "SELECT name FROM items WHERE id = 1 AND name > 'a'")
	fresh, err := e.StorageManager().GetTable("items")
	if err != nil {
		t.Fatal(err)
	}
	st := e.Statistics().Peek(fresh)
	if st == nil || st.RowCount != 1 {
		t.Errorf("re-created table's statistics = %+v, want fresh ones over 1 row", st)
	}
}

// TestRouteSharedStatementCacheConcurrent hammers the one engine-wide statement
// cache: eight sessions replay text and prepared statements while a ninth
// runs unrelated DDL and a tenth drops and re-creates the table the others
// read. Under -race this must be clean; every read must see a generation of
// the table at least as new as the one published before it started, or no
// table at all; and the cache must respect its bound.
func TestRouteSharedStatementCacheConcurrent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PlanCacheSize = 8
	e := NewEngine(cfg, nil)
	t.Cleanup(e.Close)
	var generation atomic.Int64 // of ref, published once its row is committed
	recreate := func(s *Session) error {
		gen := generation.Load() + 1
		for _, sql := range []string{
			"DROP TABLE ref",
			"CREATE TABLE ref (id INT NOT NULL, gen INT NOT NULL)",
			fmt.Sprintf("INSERT INTO ref VALUES (1, %d)", gen),
		} {
			if _, err := s.Execute(sql); err != nil {
				return fmt.Errorf("%s: %w", sql, err)
			}
		}
		generation.Store(gen)
		return nil
	}
	setup := e.NewSession()
	mustExec(t, setup, "CREATE TABLE ref (id INT NOT NULL, gen INT NOT NULL)")
	mustExec(t, setup, "INSERT INTO ref VALUES (1, 0)")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	ps, err := setup.PrepareStatement("SELECT gen FROM ref WHERE id = $1")
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.NewSession()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				published := generation.Load()
				var res *Result
				var err error
				if i%2 == 0 {
					// A handful of texts per worker: more than the cache holds.
					res, err = s.ExecuteOne(fmt.Sprintf("SELECT gen FROM ref WHERE id = 1 AND gen >= %d", -(w*3 + i%3)))
				} else {
					res, err = s.ExecutePreparedStatement(context.Background(), ps, []types.Value{types.Int(1)})
				}
				switch {
				case err != nil:
					if !strings.Contains(err.Error(), "ref") {
						t.Errorf("worker %d: %v", w, err)
						return
					}
				case res.Table.RowCount() == 1:
					if seen := res.Table.GetValue(0, types.RowID{}).I; seen < published {
						t.Errorf("worker %d read generation %d of ref after %d was published: a dropped table's chunks", w, seen, published)
						return
					}
					reads.Add(1)
				case res.Table.RowCount() > 1:
					t.Errorf("worker %d: %d rows", w, res.Table.RowCount())
					return
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		s := e.NewSession()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, sql := range []string{"CREATE TABLE x (a INT)", "DROP TABLE x"} {
				if _, err := s.Execute(sql); err != nil {
					t.Errorf("%s: %v", sql, err)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		s := e.NewSession()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := recreate(s); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Fifty generations can pass before a reader is scheduled on a small box:
	// run until some read has found the table, too.
	for deadline := time.Now().Add(10 * time.Second); (generation.Load() < 50 || reads.Load() == 0) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if reads.Load() == 0 {
		t.Error("no read ever found the table")
	}
	if size := metric(t, e, "plan_cache_size"); size > int64(cfg.PlanCacheSize) {
		t.Errorf("plan_cache_size = %d, bound %d", size, cfg.PlanCacheSize)
	}
}

// TestRoutesWithoutStatementCache: PlanCacheSize 0 retains nothing and every
// route still works.
func TestRoutesWithoutStatementCache(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PlanCacheSize = 0
	e := NewEngine(cfg, nil)
	t.Cleanup(e.Close)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE kv (id INT NOT NULL, v INT NOT NULL)")
	mustExec(t, s, "INSERT INTO kv VALUES (1, 10), (2, 20)")
	if err := e.Prepare("by_id", "SELECT v FROM kv WHERE id = ?"); err != nil {
		t.Fatal(err)
	}
	ps, err := s.PrepareStatement("SELECT v FROM kv WHERE id = $1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		text := mustExec(t, s, "SELECT v FROM kv WHERE id = 2")
		prepared, err := s.ExecutePreparedStatement(context.Background(), ps, []types.Value{types.Int(2)})
		if err != nil {
			t.Fatal(err)
		}
		named, err := s.ExecutePrepared("by_id", []types.Value{types.Int(2)})
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range []*Result{text, prepared, named} {
			if got := RowStrings(res.Table); len(got) != 1 || got[0][0] != "20" {
				t.Fatalf("rows = %v, want [[20]]", got)
			}
		}
		if text.Timing.CacheHit || !prepared.Timing.CacheHit {
			t.Errorf("CacheHit: text = %v (nothing is retained), prepared = %v (the handle carries its plan)", text.Timing.CacheHit, prepared.Timing.CacheHit)
		}
	}
	if ex, err := s.Explain("SELECT v FROM kv WHERE id = 1"); err != nil || !strings.Contains(ex.Text, "TableScan") {
		t.Errorf("Explain without a cache: %v", err)
	}
	if size := metric(t, e, "plan_cache_size"); size != 0 {
		t.Errorf("plan_cache_size = %d with PlanCacheSize 0", size)
	}
}

// TestRouteConvertsBoundValues: a bound value takes its slot's type when it is
// bound, by the assignment rule, on every entry point — a text handle
// (Statements, prepared inside its first execution), PrepareStatement and the
// named facade. FLOAT 2.5 in an INT slot is refused, never truncated (`$1 + 1`
// answered 3 and the CASE 2 before); FLOAT 2.0 binds as INT 2; an INT widens
// into a FLOAT slot; NULL keeps the value. A slot nothing types — `SELECT $1`,
// `$1 = $2`, a CASE of slots — is VARCHAR, and no prepared slot is untyped.
func TestRouteConvertsBoundValues(t *testing.T) {
	routes := map[string]func(e *Engine, s *Session, sql string, args []types.Value) (*Result, error){
		"text": func(_ *Engine, s *Session, sql string, args []types.Value) (*Result, error) {
			handles, err := s.Statements(sql)
			if err != nil {
				return nil, err
			}
			return s.ExecutePreparedStatement(context.Background(), handles[0], args)
		},
		"prepared": func(_ *Engine, s *Session, sql string, args []types.Value) (*Result, error) {
			ps, err := s.PrepareStatement(sql)
			if err != nil {
				return nil, err
			}
			return s.ExecutePreparedStatement(context.Background(), ps, args)
		},
		"named": func(e *Engine, s *Session, sql string, args []types.Value) (*Result, error) {
			if err := e.Prepare("stmt", sql); err != nil {
				return nil, err
			}
			return s.ExecutePrepared("stmt", args)
		},
	}
	const (
		plusOne = "SELECT $1 + 1 FROM t"
		caseArm = "SELECT CASE WHEN a > 0 THEN $1 ELSE 2 END FROM t"
		where   = "SELECT a FROM t WHERE a = $1"
		slots   = "SELECT CASE WHEN a > 0 THEN $1 ELSE $2 END FROM t"
	)
	refused := []types.Value(nil)
	cases := []struct {
		sql  string
		arg  types.Value   // bound to every slot
		want []types.Value // the first column; nil = refused
	}{
		{plusOne, types.Float(2.5), refused},
		{caseArm, types.Float(2.5), refused},
		{where, types.Float(2.5), refused},
		{where, types.Str("1"), refused},
		{plusOne, types.Float(2.0), []types.Value{types.Int(3)}},
		{caseArm, types.Float(7.0), []types.Value{types.Int(7)}},
		{where, types.Float(1.0), []types.Value{types.Int(1)}},
		{"SELECT f + $1 FROM t", types.Int(1), []types.Value{types.Float(2.5)}},
		{"SELECT s FROM t WHERE s = $1", types.Int(7), []types.Value{}}, // '7'
		{plusOne, types.NullValue, []types.Value{types.NullValue}},
		{"SELECT $1", types.Float(2.5), []types.Value{types.Str("2.5")}},
		{"SELECT $1", types.Str("x"), []types.Value{types.Str("x")}},
		{"SELECT $1 = $2 FROM t", types.Int(7), []types.Value{types.Bool(true)}},
		{slots, types.Float(2.5), []types.Value{types.Str("2.5")}},
		{"SELECT a FROM t WHERE $1", types.Bool(true), []types.Value{types.Int(1)}},
		{"SELECT a FROM t WHERE $1 AND a > 0", types.Bool(false), []types.Value{}},
		{"SELECT a FROM t WHERE $1 IN (NULL, 1)", types.Int(1), []types.Value{types.Int(1)}},
		{"SELECT a FROM t WHERE a > -$1", types.Int(1), []types.Value{types.Int(1)}},
		{"SELECT substring(NULL, $1, 2) FROM t", types.Int(1), []types.Value{types.NullValue}},
	}
	errs := map[int]string{} // case -> the error text of the first route
	for name, run := range routes {
		e := NewEngine(DefaultConfig(), storage.NewStorageManager())
		t.Cleanup(e.Close)
		s := e.NewSession()
		mustExec(t, s, "CREATE TABLE t (a INT, f FLOAT, s VARCHAR(10))")
		mustExec(t, s, "INSERT INTO t VALUES (1, 1.5, 'x')")
		for i, c := range cases {
			args := slices.Repeat([]types.Value{c.arg}, strings.Count(c.sql, "$"))
			res, err := run(e, s, c.sql, args)
			got := []types.Value{}
			if err == nil {
				for _, row := range ValueRows(res.Table) {
					got = append(got, row[0])
				}
			}
			if c.want == nil {
				if !errors.Is(err, expression.ErrInvalidValue) {
					t.Errorf("%s: %q with %v = %v, %v; want ErrInvalidValue", name, c.sql, c.arg, got, err)
				} else if first, ok := errs[i]; ok && err.Error() != first {
					t.Errorf("%s: %q with %v: error %q, another route %q", name, c.sql, c.arg, err, first)
				} else {
					errs[i] = err.Error()
				}
				continue
			}
			if err != nil {
				t.Errorf("%s: %q with %v: %v", name, c.sql, c.arg, err)
				continue
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("%s: %q with %v = %v, want %v", name, c.sql, args, got, c.want)
			}
			handles, err := s.Statements(c.sql) // the prepared handle, from the cache
			if err != nil {
				t.Fatal(err)
			}
			if pt := handles[0].ParamTypes; slices.Contains(pt, types.TypeNull) || len(pt) != len(args) {
				t.Errorf("%s: %q prepared with slot types %v", name, c.sql, pt)
			}
		}
	}

	// Binding converts once and only where a type differs: a value of its
	// slot's type allocates nothing.
	e := NewEngine(DefaultConfig(), storage.NewStorageManager())
	t.Cleanup(e.Close)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (a INT, f FLOAT, s VARCHAR(10))")
	ps, err := s.PrepareStatement("SELECT a FROM t WHERE a = $1 AND f < $2 AND s = $3")
	if err != nil {
		t.Fatal(err)
	}
	params := []types.Value{types.Int(1), types.Float(2), types.Str("x")}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = ps.Bind(params) }); allocs != 0 {
		t.Errorf("Bind of matching types: %.0f allocs, want 0", allocs)
	}
	bound, err := ps.Bind([]types.Value{types.Float(1), types.Int(2), types.Str("x")})
	if err != nil || bound[0] != types.Int(1) || bound[1] != types.Float(2) {
		t.Errorf("Bind(1.0, 2, 'x') = %v, %v; want INT 1, FLOAT 2", bound, err)
	}
}

// TestRouteRejectsMistypedAssignments: INSERT values and UPDATE SET
// expressions are typed against their columns, and a DELETE or UPDATE
// condition must be BOOL, when the statement is prepared, with PostgreSQL's
// errors, on an empty table and on a full one
// (UPDATE t SET a = s passed on an empty table and failed in storage on a
// full one before; a column named twice was accepted).
func TestRouteRejectsMistypedAssignments(t *testing.T) {
	s := NewEngine(DefaultConfig(), storage.NewStorageManager()).NewSession()
	mustExec(t, s, "CREATE TABLE t (a INT, b INT, f FLOAT, s VARCHAR(10))")
	cases := []struct {
		sql  string
		want error
	}{
		{"INSERT INTO t (a) VALUES ('z')", lqp.ErrAssignmentMismatch},
		{"INSERT INTO t (a) VALUES (1 > 0)", lqp.ErrAssignmentMismatch},
		{"UPDATE t SET a = s", lqp.ErrAssignmentMismatch},
		{"INSERT INTO t (a, a) VALUES (2, 3)", lqp.ErrDuplicateColumn},
		{"UPDATE t SET a = 1, a = 2", lqp.ErrMultipleAssignments},
		{"INSERT INTO t (zz) VALUES (1)", lqp.ErrColumnNotFound},
		{"UPDATE t SET zz = 1", lqp.ErrColumnNotFound},
		{"INSERT INTO t (a) VALUES (1, 2)", lqp.ErrInsertArity},
		{"INSERT INTO t (a, f) VALUES (1)", lqp.ErrInsertArity},
		{"INSERT INTO t VALUES (1, 2.5)", lqp.ErrInsertArity},
		{"DELETE FROM t WHERE a AND b > 0", expression.ErrNotBoolean},
		{"UPDATE t SET a = a WHERE s", expression.ErrNotBoolean},
	}
	for _, table := range []string{"empty", "full"} {
		if table == "full" {
			mustExec(t, s, "INSERT INTO t VALUES (1, 2, 1.5, 'x'), (NULL, NULL, NULL, NULL)")
		}
		for _, c := range cases {
			_, err := s.PrepareStatement(c.sql)
			if !errors.Is(err, c.want) {
				t.Errorf("prepare %q over the %s table: error %v, want %v", c.sql, table, err, c.want)
			}
		}
		if got := mustExec(t, s, "SELECT count(*) FROM t").Table.GetValue(0, types.RowID{}).I; got != map[string]int64{"empty": 0, "full": 2}[table] {
			t.Errorf("%s table holds %d rows after the refused statements", table, got)
		}
	}

	// Accepted as before, storing what was stored: INT into FLOAT, INT into
	// VARCHAR, integral FLOAT into INT. A FLOAT that is not integral is
	// refused when its row is written, never rounded or truncated.
	mustExec(t, s, "CREATE TABLE ok (a INT, f FLOAT, s VARCHAR(10))")
	mustExec(t, s, "INSERT INTO ok VALUES (2.0, 2, 1)")
	mustExec(t, s, "UPDATE ok SET f = a + 1, s = a * 2")
	want := []types.Value{types.Int(2), types.Float(3), types.Str("4")}
	if rows := ValueRows(mustExec(t, s, "SELECT a, f, s FROM ok").Table); len(rows) != 1 || !reflect.DeepEqual(rows[0], want) {
		t.Errorf("ok = %v, want %v", rows, want)
	}
	for _, sql := range []string{"INSERT INTO ok (a) VALUES (2.5)", "UPDATE ok SET a = f + 0.5"} {
		if _, err := s.PrepareStatement(sql); err != nil {
			t.Errorf("prepare %q: %v", sql, err)
		}
		if _, err := s.ExecuteOne(sql); !errors.Is(err, expression.ErrInvalidValue) {
			t.Errorf("%q: err = %v, want ErrInvalidValue", sql, err)
		}
	}
}
