package main

import (
	"io"
	"os"
	"testing"

	"hyrise"
)

// TestVisualizePrintsPlans pins Engine.Plans and \visualize to their text:
// the unoptimized and optimized LQP and the PQP, one node a line, inputs
// indented below it, no measurements.
func TestVisualizePrintsPlans(t *testing.T) {
	db := hyrise.Open(hyrise.DefaultConfig())
	defer db.Close()
	if _, err := db.Execute("CREATE TABLE p (v INT NOT NULL, w VARCHAR(10)); CREATE TABLE q (v INT NOT NULL, x FLOAT)"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ sql, unopt, opt, pqp string }{
		{
			"SELECT w, count(*) FROM p, q WHERE p.v = q.v AND x > 1.5 GROUP BY w ORDER BY w LIMIT 3",
			"Limit(3)\n  Sort(w)\n    Projection(w, COUNT(*))\n      Aggregate(p.w, COUNT(*))\n        Predicate(((p.v = q.v) AND (q.x > 1.5)))\n          Join(Cross)\n            Validate\n              StoredTable(p)\n            Validate\n              StoredTable(q)\n",
			"Limit(3)\n  Sort(w)\n    Projection(w, COUNT(*))\n      Aggregate(p.w, COUNT(*))\n        Join(Inner, (p.v = q.v))\n          Validate\n            StoredTable(p)\n          Validate\n            Predicate((q.x > 1.5))\n              StoredTable(q)\n",
			"Limit(3)\n  Sort(w)\n    Projection(w, COUNT(*))\n      Aggregate(p.w, COUNT(*))\n        HashJoin(Inner, p.v = q.v)\n          TableScan(visible)\n            GetTable(p)\n          TableScan((q.x > 1.5) AND visible)\n            GetTable(q)\n",
		},
		{
			"SELECT v FROM p WHERE v IN (SELECT v FROM q)",
			"Projection(p.v)\n  Predicate((p.v IN (SUBQUERY[1])))\n    Validate\n      StoredTable(p)\n",
			"Projection(p.v)\n  Join(Semi, (p.v = #2))\n    Validate\n      StoredTable(p)\n    Projection(q.v)\n      Validate\n        StoredTable(q)\n",
			"Projection(p.v)\n  HashJoin(Semi, p.v = #0)\n    TableScan(visible)\n      GetTable(p)\n    Projection(q.v)\n      TableScan(visible)\n        GetTable(q)\n",
		},
		{"INSERT INTO p VALUES (4, 'a')", "Insert(p, 1 rows)\n", "Insert(p, 1 rows)\n", "Insert(p, 1 rows)\n"},
		{"SELECT 1", "Projection(1)\n  DummyTable\n", "Projection(1)\n  DummyTable\n", "Projection(1)\n  DummyTable\n"},
	} {
		unopt, opt, pqp, err := db.Engine().Plans(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if unopt != c.unopt || opt != c.opt || pqp != c.pqp {
			t.Errorf("Plans(%s) =\n%s\n%s\n%s", c.sql, unopt, opt, pqp)
		}
		want := "-- unoptimized LQP:\n" + c.unopt + "-- optimized LQP:\n" + c.opt + "-- PQP:\n" + c.pqp
		if got := consoleOutput(t, func() { metaCommand(`\visualize `+c.sql, db, nil, new(bool)) }); got != want {
			t.Errorf("\\visualize %s printed\n%s\nwant\n%s", c.sql, got, want)
		}
	}
}

// consoleOutput returns what fn prints to standard output.
func consoleOutput(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	fn()
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
