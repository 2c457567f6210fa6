package server

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hyrise/internal/pgclient"
	"hyrise/internal/pipeline"
	"hyrise/internal/sqlparser"
	"hyrise/internal/storage"
	"hyrise/internal/tpch"
	"hyrise/internal/types"
)

// wireCase is one statement of the wire-level route corpus (the twin of
// internal/pipeline's routeCorpus): SQL with $n placeholders and the values
// each route binds; the simple protocol gets them rendered into the text.
type wireCase struct {
	sql  string
	args func(route int) []types.Value
}

func wireArgs(vals ...types.Value) func(int) []types.Value {
	return func(int) []types.Value { return vals }
}

func wireLiteralSQL(sql string, args []types.Value) string {
	for i := len(args) - 1; i >= 0; i-- {
		lit := args[i].String()
		switch args[i].Type {
		case types.TypeString:
			lit = "'" + strings.ReplaceAll(lit, "'", "''") + "'"
		case types.TypeFloat64:
			if lit = strconv.FormatFloat(args[i].F, 'f', -1, 64); !strings.Contains(lit, ".") {
				lit += ".0"
			}
		}
		sql = strings.ReplaceAll(sql, "$"+strconv.Itoa(i+1), lit)
	}
	return sql
}

func wireCorpus() []wireCase {
	id := func(route int) int64 { return 1000 + int64(route) }
	one := func(f func(r int) types.Value) func(int) []types.Value {
		return func(r int) []types.Value { return []types.Value{f(r)} }
	}
	corpus := []wireCase{
		{sql: "SELECT id, v, label FROM kv WHERE id = $1", args: wireArgs(types.Int(7))},
		{sql: "SELECT id, v FROM kv WHERE id BETWEEN $1 AND $2 ORDER BY id", args: wireArgs(types.Int(3), types.Int(6))},
		{sql: "SELECT id FROM kv WHERE label = $1 AND v > $2", args: wireArgs(types.Str("l4"), types.Float(1.5))},
		{sql: "SELECT id FROM kv WHERE id IN (SELECT id FROM kv WHERE v > $1) ORDER BY id", args: wireArgs(types.Float(7.0))},
		// Text '42' stays text wherever the plan compares it with a string.
		{sql: "SELECT id FROM kv_view WHERE label = $1", args: wireArgs(types.Str("42"))},
		{sql: "SELECT d.id FROM (SELECT id, label FROM kv) AS d WHERE d.label = $1", args: wireArgs(types.Str("42"))},
		{sql: "SELECT id FROM kv WHERE lower(label) = $1", args: wireArgs(types.Str("42"))},
		{sql: "SELECT id FROM kv WHERE EXISTS (SELECT 1 FROM kv_view w WHERE w.id = kv.id AND w.label = $1)", args: wireArgs(types.Str("42"))},
		{sql: "INSERT INTO kv VALUES ($1, $2, $3)", args: func(r int) []types.Value {
			return []types.Value{types.Int(id(r)), types.Float(0.5), types.Str("route")}
		}},
		{sql: "UPDATE kv SET v = $1 WHERE id = $2", args: func(r int) []types.Value {
			return []types.Value{types.Float(9.25), types.Int(id(r))}
		}},
		{sql: "SELECT v, label FROM kv WHERE id = $1", args: one(func(r int) types.Value { return types.Int(id(r)) })},
		{sql: "DELETE FROM kv WHERE id = $1", args: one(func(r int) types.Value { return types.Int(id(r)) })},
		{sql: "CREATE TABLE route_scratch (a INT NOT NULL)"},
		{sql: "INSERT INTO route_scratch VALUES (1), (2)"},
		{sql: "DROP TABLE route_scratch"},
		{sql: "BEGIN"},
		{sql: "INSERT INTO kv VALUES ($1, $2, $3)", args: wireArgs(types.Int(2000), types.Float(1.0), types.Str("rolled back"))},
		{sql: "ROLLBACK"},
		{sql: "BEGIN"},
		{sql: "COMMIT"},
		{sql: "SELECT count(*) FROM kv"},
		{sql: "SELECT cancel_query($1)", args: wireArgs(types.Int(0))},
		{sql: "SELECT promote_replica()"},
		{sql: "SELECT * FROM no_such_table"},
	}
	queries := tpch.Queries(0.01)
	for _, num := range tpch.QueryNumbers() {
		corpus = append(corpus, wireCase{sql: queries[num]})
	}
	return corpus
}

// wireOutcome is what a client sees of one execution, formats decoded.
type wireOutcome struct {
	Columns []string
	OIDs    []uint32
	Rows    [][]string
	Tag     string
	Empty   bool
	Failed  bool
}

func wireOutcomeOf(res *pgclient.Result, err error) wireOutcome {
	if err != nil {
		return wireOutcome{Failed: true}
	}
	out := wireOutcome{Tag: res.Tag, Empty: res.Empty}
	for _, f := range res.Fields {
		out.Columns = append(out.Columns, f.Name)
		out.OIDs = append(out.OIDs, f.OID)
	}
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, raw := range row {
			switch {
			case raw == nil:
				cells[i] = "NULL"
			case res.Fields[i].Format == 1 && res.Fields[i].OID == oidInt8:
				cells[i] = types.Int(pgclient.DecodeInt8(raw)).String()
			case res.Fields[i].Format == 1 && res.Fields[i].OID == oidFloat8:
				cells[i] = types.Float(pgclient.DecodeFloat8(raw)).String()
			default:
				cells[i] = string(raw)
			}
		}
		out.Rows = append(out.Rows, cells)
	}
	return out
}

// extendedRoute runs a case through Parse/Describe/Bind/Execute/Sync with
// text or binary parameters and results.
func extendedRoute(c *pgclient.Conn, binary bool) func(i int, sql string, args []types.Value) (*pgclient.Result, error) {
	return func(i int, sql string, args []types.Value) (*pgclient.Result, error) {
		name := fmt.Sprintf("s%d", i)
		var oids []uint32
		params := make([]pgclient.Param, len(args))
		for j, v := range args {
			params[j] = pgclient.Text(v.String())
			if binary {
				// Binary parameters declare their type in Parse.
				oids = append(oids, oidForType(v.Type))
				switch v.Type {
				case types.TypeInt64:
					params[j] = pgclient.BinaryInt8(v.I)
				case types.TypeFloat64:
					params[j] = pgclient.BinaryFloat8(v.F)
				}
			}
		}
		if _, err := c.Prepare(name, sql, oids); err != nil {
			return nil, err
		}
		defer func() { _ = c.CloseStmt(name) }()
		var resultFormats []int16
		if binary {
			resultFormats = []int16{1}
		}
		return c.Exec(name, params, resultFormats)
	}
}

// TestProtocolRoutesAgree is the wire half of internal/pipeline's test of
// the same name: the simple protocol with literals and the extended protocol
// with text and with binary parameters and results must show a client
// identical columns, types, rows and tags, and land in one
// statement-statistics row per fingerprint — both protocols execute handles
// through the same clientConn.execute and the same pipeline route.
func TestProtocolRoutesAgree(t *testing.T) {
	sm := storage.NewStorageManager()
	if err := tpch.Generate(sm, tpch.Config{ScaleFactor: 0.01, ChunkSize: 10000, UseMvcc: true, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	e := pipeline.NewEngine(pipeline.DefaultConfig(), sm)
	t.Cleanup(e.Close)
	_, addr := serveEngine(t, e)
	c := confClient(t, addr)
	mustSimple(t, c, "CREATE TABLE kv (id INT NOT NULL, v FLOAT NOT NULL, label VARCHAR(16) NOT NULL)")
	for i := 0; i < 10; i++ {
		mustSimple(t, c, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d.5, 'l%d')", i, i, i))
	}
	mustSimple(t, c, "INSERT INTO kv VALUES (10, 10.5, '42')")
	mustSimple(t, c, "CREATE VIEW kv_view AS SELECT id, v, label FROM kv")
	before := map[string]int64{}
	for _, r := range e.StatementStats() {
		before[r.Query] = r.Calls
	}

	routes := []struct {
		name string
		run  func(i int, sql string, args []types.Value) (*pgclient.Result, error)
	}{
		{"simple", func(_ int, sql string, args []types.Value) (*pgclient.Result, error) {
			results, err := c.SimpleQuery(wireLiteralSQL(sql, args))
			if err != nil {
				return nil, err
			}
			return results[0], nil
		}},
		{"extended/text", extendedRoute(c, false)},
		{"extended/binary", extendedRoute(c, true)},
	}
	corpus := wireCorpus()
	planned := map[string]int64{}
	outcomes := make([][]wireOutcome, len(routes))
	for r, route := range routes {
		for i, wc := range corpus {
			var args []types.Value
			if wc.args != nil {
				args = wc.args(r)
			}
			out := wireOutcomeOf(route.run(i, wc.sql, args))
			outcomes[r] = append(outcomes[r], out)
			// What reaches the planner is metered; a statement that fails to
			// plan does so at Parse time on the extended protocol, unmetered.
			kw := strings.ToUpper(strings.Fields(wc.sql)[0])
			isPlanned := (kw == "SELECT" || kw == "INSERT" || kw == "UPDATE" || kw == "DELETE") &&
				!strings.Contains(wc.sql, "cancel_query") && !strings.Contains(wc.sql, "promote_replica")
			if isPlanned && !(out.Failed && r > 0) {
				planned[sqlparser.Fingerprint(wc.sql)]++
			}
		}
	}
	for r := 1; r < len(routes); r++ {
		for i, wc := range corpus {
			if !reflect.DeepEqual(outcomes[0][i], outcomes[r][i]) {
				t.Errorf("%q:\n  %s = %+v\n  %s = %+v", wc.sql, routes[0].name, outcomes[0][i], routes[r].name, outcomes[r][i])
			}
		}
	}
	for i, wc := range corpus {
		if failed := outcomes[0][i].Failed; failed != strings.Contains(wc.sql, "no_such_table") {
			t.Errorf("%q: failed = %v", wc.sql, failed)
		}
	}
	after := map[string]int64{}
	for _, r := range e.StatementStats() {
		after[r.Query] = r.Calls
	}
	for fp, want := range planned {
		if got := after[fp] - before[fp]; got != want {
			t.Errorf("statement statistics for %q: calls = %d, want %d (all routes together)", fp, got, want)
		}
	}

	// The empty statement answers EmptyQueryResponse on both protocols.
	results, err := c.SimpleQuery(" ; ")
	if err != nil || len(results) != 1 || !results[0].Empty {
		t.Errorf("simple empty statement: %+v, %v", results, err)
	}
	if out := wireOutcomeOf(extendedRoute(c, false)(0, "", nil)); !out.Empty {
		t.Errorf("extended empty statement: %+v", out)
	}

	// A batch is simple-protocol only; members run in order, a later one sees
	// what an earlier one created, and results before a failure stand.
	batch := "CREATE TABLE dep (a INT NOT NULL); INSERT INTO dep VALUES (1), (2); SELECT a FROM dep ORDER BY a; DROP TABLE dep"
	results, err = c.SimpleQuery(batch)
	if err != nil || len(results) != 4 {
		t.Fatalf("batch: %d results, %v", len(results), err)
	}
	var tags []string
	for _, r := range results {
		tags = append(tags, r.Tag)
	}
	if want := []string{"CREATE TABLE", "INSERT 0 2", "SELECT 2", "DROP TABLE"}; !reflect.DeepEqual(tags, want) {
		t.Errorf("batch tags = %v, want %v", tags, want)
	}
	results, err = c.SimpleQuery("SELECT count(*) FROM kv; SELECT * FROM no_such_table; SELECT 1")
	if err == nil || len(results) != 1 {
		t.Errorf("failing batch: %d results, err = %v; want the first result and the error", len(results), err)
	}
	if _, err := c.Prepare("batch", batch, nil); err == nil {
		t.Error("a batch was accepted by Parse")
	}
}

// TestProtocolPreparedSurvivesDDL: a named statement held by one
// connection keeps replaying a cached plan after another connection ran DDL —
// the first execution re-prepares it through the engine's statement cache,
// the next ones hit that entry (it re-planned on every execution before).
func TestProtocolPreparedSurvivesDDL(t *testing.T) {
	addr, _, e := startServerWith(t, nil)
	c := confClient(t, addr)
	mustSimple(t, c, "CREATE TABLE conf (id INT NOT NULL, name VARCHAR(20), price FLOAT)")
	mustSimple(t, c, "INSERT INTO conf VALUES (1, 'apple', 1.5), (2, '123', 2.5), (3, 'cherry', 3.5)")
	if _, err := c.Prepare("s1", "SELECT name FROM conf WHERE id = $1", nil); err != nil {
		t.Fatal(err)
	}
	mustSimple(t, confClient(t, addr), "CREATE TABLE other (x INT)")
	hits, _ := e.Metrics().Get("plan_cache_hits")
	for i := 0; i < 3; i++ {
		res, err := c.Exec("s1", []pgclient.Param{pgclient.Text("3")}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || string(res.Rows[0][0]) != "cherry" {
			t.Fatalf("rows = %v, want cherry", res.Rows)
		}
	}
	if now, _ := e.Metrics().Get("plan_cache_hits"); now-hits < 2 {
		t.Errorf("plan_cache_hits advanced by %d over three executions after DDL, want >= 2", now-hits)
	}
	for _, r := range e.StatementStats() {
		if strings.Contains(r.Query, "FROM conf WHERE id") && r.CacheHits < 2 {
			t.Errorf("statement statistics: %d cache hits in %d calls", r.CacheHits, r.Calls)
		}
	}
}

// TestProtocolPointRoundTripAllocates pins, in allocations of the whole
// process — pgclient and the server on loopback — what one prepared point
// statement costs a round trip: an INSERT inside a transaction, and a
// SELECT by key with a binary parameter and binary results.
func TestProtocolPointRoundTripAllocates(t *testing.T) {
	addr, _, _ := startServerWith(t, nil)
	c := confClient(t, addr)
	mustSimple(t, c, "CREATE TABLE kv (id INT NOT NULL, tag VARCHAR(20), val FLOAT)")
	if _, err := c.Prepare("ins", "INSERT INTO kv VALUES ($1, $2, $3)", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Prepare("sel", "SELECT id, val FROM kv WHERE id = $1", nil); err != nil {
		t.Fatal(err)
	}
	mustSimple(t, c, "BEGIN")
	id := int64(0)
	insert := testing.AllocsPerRun(200, func() {
		id++
		res, err := c.Exec("ins", []pgclient.Param{pgclient.BinaryInt8(id), pgclient.Text("load"), pgclient.BinaryFloat8(1.5)}, nil)
		if err != nil || res.Tag != "INSERT 0 1" {
			t.Fatalf("insert %d: %+v, %v", id, res, err)
		}
	})
	mustSimple(t, c, "COMMIT")
	sel := testing.AllocsPerRun(200, func() {
		res, err := c.Exec("sel", []pgclient.Param{pgclient.BinaryInt8(7)}, []int16{1, 1})
		if err != nil || len(res.Rows) != 1 || pgclient.DecodeInt8(res.Rows[0][0]) != 7 || pgclient.DecodeFloat8(res.Rows[0][1]) != 1.5 {
			t.Fatalf("select: %+v, %v", res, err)
		}
	})
	// 92 and 156 while every message allocated its header and payload on
	// both sides, every Bind its portal and scratch, and every statement two
	// nested cancel contexts, a task DAG and a count table.
	if insert > 14 || sel > 71 {
		t.Errorf("allocations per round trip: INSERT in a transaction %.0f, want <= 14; binary point SELECT %.0f, want <= 71", insert, sel)
	}
}
