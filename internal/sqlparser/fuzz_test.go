package sqlparser_test

import (
	"testing"

	"hyrise/internal/expression"
	"hyrise/internal/sqlparser"
	"hyrise/internal/tpch"
	"hyrise/internal/types"
)

// FuzzParse feeds arbitrary byte strings to the SQL parser. The contract
// under test: Parse never panics and never loops forever — malformed input
// must surface as an error, not a crash — and whatever does parse can be
// walked: Rewrite, the one AST traversal, must not panic either, must reach
// every placeholder of the text exactly once, and must hand back a statement
// in which they are all replaced. The corpus is seeded with all 22 TPC-H
// queries (the dialect's full surface area) plus statements covering DDL,
// DML, transactions, placeholders in every clause, and tricky lexical shapes.
//
// CI runs a short fuzzing smoke (`-fuzz=FuzzParse -fuzztime=10s`); run it
// longer locally to hunt deeper.
func FuzzParse(f *testing.F) {
	for _, q := range tpch.Queries(0.1) {
		f.Add(q)
	}
	for _, s := range []string{
		"",
		";",
		"SELECT",
		"SELECT * FROM t WHERE a = 'unterminated",
		"SELECT 1e999, -9223372036854775808, .5 FROM t",
		"CREATE TABLE t (a INT NOT NULL, b VARCHAR(20))",
		"INSERT INTO t VALUES (1, 'x'), (2, NULL)",
		"UPDATE t SET a = a + 1 WHERE b LIKE '%x%'",
		"DELETE FROM t WHERE a IN (SELECT a FROM u)",
		"BEGIN; COMMIT; ROLLBACK;",
		"SELECT a, count(*) FROM t GROUP BY a HAVING count(*) > 1 ORDER BY a DESC LIMIT 10",
		"SELECT * FROM a JOIN b ON a.x = b.y JOIN c ON b.z = c.w",
		"SELECT CASE WHEN a > 0 THEN 'p' ELSE 'n' END FROM t",
		"SELECT * FROM t WHERE d BETWEEN '1994-01-01' AND '1995-01-01'",
		"PREPARE p AS SELECT * FROM t WHERE a = ?",
		"SELECT a FROM t WHERE a = $1 AND b IN (SELECT b FROM u WHERE c > ? AND d = $1)",
		"UPDATE t SET a = ?, b = b + $3 WHERE c BETWEEN $2 AND $3",
		"INSERT INTO t VALUES (?, ?), ($1, $2)",
		"SELECT ?, (SELECT max(x) FROM v WHERE y = ?) FROM (SELECT a FROM t WHERE a > ?) AS d JOIN u ON d.a = u.a AND u.b = ? WHERE EXISTS (SELECT 1 FROM v WHERE v.x = ?) GROUP BY a HAVING count(*) > ? ORDER BY ?",
		"DELETE FROM t WHERE a IN (?, ?, $9)",
		"select(((((((((1)))))))))",
		"SELECT /* comment */ 1 -- trailing",
		"\x00\xff\xfe",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		// Errors are fine; panics and hangs are the bugs we're hunting.
		stmts, err := sqlparser.Parse(sql)
		if err != nil {
			return
		}
		visits := map[*expression.Parameter]int{}
		left := 0
		for _, stmt := range stmts {
			if _, isView := stmt.(*sqlparser.CreateViewStatement); isView {
				return // a view body is kept as text; Rewrite does not enter it
			}
			bound := sqlparser.Rewrite(stmt, nil, func(x expression.Expression) expression.Expression {
				if p, ok := x.(*expression.Parameter); ok {
					visits[p]++
					return expression.NewLiteral(types.Int(int64(p.ID)))
				}
				return nil
			})
			sqlparser.Rewrite(bound, nil, func(x expression.Expression) expression.Expression {
				if _, ok := x.(*expression.Parameter); ok {
					left++
				}
				return nil
			})
		}
		for p, n := range visits {
			if n != 1 {
				t.Fatalf("Rewrite visited parameter $%d %d times in %q", p.ID+1, n, sql)
			}
		}
		if want := sqlparser.PlaceholderTokens(sql); len(visits) != want || left != 0 {
			t.Fatalf("Rewrite visited %d placeholders of %d and left %d unreplaced in %q", len(visits), want, left, sql)
		}
	})
}
