package sqlparser

import (
	"reflect"
	"testing"

	"hyrise/internal/expression"
	"hyrise/internal/types"
)

// TestRouteRewriteCoversEveryClause: one traversal reaches the expressions of
// every clause and every table reference, subqueries and derived tables
// included, replaces what the callback replaces, and leaves its input as
// parsed.
func TestRouteRewriteCoversEveryClause(t *testing.T) {
	const sql = `SELECT $1, (SELECT max(x) FROM v WHERE y = $2)
		FROM (SELECT a FROM t WHERE a > $3) AS d JOIN u AS uu ON d.a = uu.a AND uu.b = $4
		WHERE EXISTS (SELECT 1 FROM w WHERE w.x = $5) AND d.a IN ($6, $7)
		GROUP BY d.a HAVING count(*) > $8 ORDER BY $9`
	stmt, err := ParseOne(sql)
	if err != nil {
		t.Fatal(err)
	}
	var tables []string
	seen := map[int]int{}
	bound := Rewrite(stmt, func(name, alias string) {
		tables = append(tables, name+"/"+alias)
	}, func(x expression.Expression) expression.Expression {
		if p, ok := x.(*expression.Parameter); ok {
			seen[p.ID]++
			return expression.NewLiteral(types.Int(int64(p.ID)))
		}
		return nil
	})
	if want := []string{"t/", "u/uu", "v/", "w/"}; !reflect.DeepEqual(tables, want) {
		t.Errorf("tables = %v, want %v (FROM before the clauses that refer to it)", tables, want)
	}
	for id := 0; id < 9; id++ {
		if seen[id] != 1 {
			t.Errorf("parameter $%d visited %d times", id+1, seen[id])
		}
	}
	count := func(s Statement) (n int) {
		Rewrite(s, nil, func(x expression.Expression) expression.Expression {
			if _, ok := x.(*expression.Parameter); ok {
				n++
			}
			return nil
		})
		return n
	}
	if got := count(bound); got != 0 {
		t.Errorf("the rewritten statement still holds %d parameters", got)
	}
	if got := count(stmt); got != 9 {
		t.Errorf("the input holds %d parameters after Rewrite, want its 9", got)
	}

	for _, dml := range []string{
		"INSERT INTO t VALUES ($1, 2), (3, $2)",
		"UPDATE t SET a = $1, b = b + $2 WHERE c = $3",
		"DELETE FROM t WHERE a BETWEEN $1 AND $2",
	} {
		stmt, err := ParseOne(dml)
		if err != nil {
			t.Fatal(err)
		}
		target := ""
		Rewrite(stmt, func(name, _ string) { target = name }, nil)
		if want := PlaceholderTokens(dml); count(stmt) != want || target != "t" {
			t.Errorf("%s: %d parameters (want %d), target table %q", dml, count(stmt), want, target)
		}
	}
	if ddl, _ := ParseOne("CREATE TABLE t (a INT)"); Rewrite(ddl, nil, nil) != ddl {
		t.Error("a statement without expressions should come back as it is")
	}
}
