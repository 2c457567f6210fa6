package hyrise

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"hyrise/internal/observe"
	"hyrise/internal/pgclient"
)

// TestRouteDMLCounts: INSERT, UPDATE and DELETE report the rows they wrote —
// n of 0, 1 and 3 (an INSERT has at least one VALUES row) — on every route:
// Result.RowsAffected through a Session and the facade, the CommandComplete
// tag over the simple and the extended protocol, the DML line of EXPLAIN
// ANALYZE, and the rows of the statement's meta_active_queries entry, read
// while it is still registered.
func TestRouteDMLCounts(t *testing.T) {
	db := Open(DefaultConfig())
	defer db.Close()
	srv := db.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	defer srv.Close()
	c, err := pgclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustExecute(t, db, "CREATE TABLE t (id INT NOT NULL, v INT)")

	// The trace sink runs before a statement leaves the live-query
	// registry, whose snapshot meta_active_queries is built from.
	var mu sync.Mutex
	active := map[string]int64{}
	e := db.Engine()
	e.SetTraceSink(func(tr *observe.Trace) {
		for _, q := range e.ActiveQueries() {
			if q.SQL == tr.SQL {
				mu.Lock()
				active[q.SQL] = q.Rows
				mu.Unlock()
			}
		}
	})
	activeRows := func(sql string) int64 {
		mu.Lock()
		defer mu.Unlock()
		n, ok := active[sql]
		if !ok {
			t.Fatalf("%s: the trace sink saw no meta_active_queries row", sql)
		}
		delete(active, sql)
		return n
	}

	type dml struct {
		sql, kind, tag string
		n              int64
	}
	var cases []dml
	for _, n := range []int64{0, 1, 3} {
		cases = append(cases,
			dml{fmt.Sprintf("UPDATE t SET v = v + 1 WHERE id <= %d", n), "UPDATE", fmt.Sprintf("UPDATE %d", n), n},
			dml{fmt.Sprintf("DELETE FROM t WHERE id <= %d", n), "DELETE", fmt.Sprintf("DELETE %d", n), n})
		if n > 0 {
			rows := make([]string, n)
			for i := range rows {
				rows[i] = fmt.Sprintf("(%d, 0)", 10+i)
			}
			cases = append(cases, dml{"INSERT INTO t VALUES " + strings.Join(rows, ", "), "INSERT", fmt.Sprintf("INSERT 0 %d", n), n})
		}
	}
	statement := 0
	routes := []struct {
		name string
		run  func(sql string) (tag string, affected int64, err error)
	}{
		{"session", func(sql string) (string, int64, error) {
			res, err := db.Session().ExecuteOne(sql)
			if err != nil {
				return "", 0, err
			}
			return res.Tag, res.RowsAffected, nil
		}},
		{"facade", func(sql string) (string, int64, error) {
			res, err := db.Execute(sql)
			if err != nil {
				return "", 0, err
			}
			return res.Tag, res.RowsAffected, nil
		}},
		{"simple", func(sql string) (string, int64, error) {
			res, err := c.SimpleQuery(sql)
			if err != nil || len(res) != 1 {
				return "", 0, fmt.Errorf("%d results, %v", len(res), err)
			}
			return res[0].Tag, -1, nil
		}},
		{"extended", func(sql string) (string, int64, error) {
			statement++
			name := fmt.Sprintf("s%d", statement)
			if _, err := c.Prepare(name, sql, nil); err != nil {
				return "", 0, err
			}
			res, err := c.Exec(name, nil, nil)
			if err != nil {
				return "", 0, err
			}
			return res.Tag, -1, nil
		}},
		{"explain", func(sql string) (string, int64, error) {
			ex, err := db.Explain(sql)
			if err != nil {
				return "", 0, err
			}
			op := ex.Result.Tag[:1] + strings.ToLower(ex.Result.Tag[1:]) + "(" // Update(t)
			var line string
			for _, l := range strings.Split(ex.Text, "\n") {
				if strings.HasPrefix(l, op) {
					line = l
				}
			}
			if !strings.Contains(line, fmt.Sprintf("out=%d rows", ex.Result.RowsAffected)) {
				return "", 0, fmt.Errorf("the DML line %q does not show %d affected rows:\n%s", line, ex.Result.RowsAffected, ex.Text)
			}
			return ex.Result.Tag, ex.Result.RowsAffected, nil
		}},
	}
	for _, tc := range cases {
		for _, r := range routes {
			mustExecute(t, db, "DELETE FROM t")
			mustExecute(t, db, "INSERT INTO t VALUES (1, 0), (2, 0), (3, 0)")
			tag, affected, err := r.run(tc.sql)
			switch {
			case err != nil:
				t.Errorf("%s over %s: %v", tc.sql, r.name, err)
			case affected < 0 && tag != tc.tag:
				t.Errorf("%s over %s: tag %q, want %q", tc.sql, r.name, tag, tc.tag)
			case affected >= 0 && (tag != tc.kind || affected != tc.n):
				t.Errorf("%s over %s: %s %d, want %s %d", tc.sql, r.name, tag, affected, tc.kind, tc.n)
			}
			if got := activeRows(tc.sql); got != tc.n {
				t.Errorf("%s over %s: meta_active_queries rows %d, want %d", tc.sql, r.name, got, tc.n)
			}
		}
	}
}

func mustExecute(t *testing.T, db *Database, sql string) {
	t.Helper()
	if _, err := db.Execute(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}
