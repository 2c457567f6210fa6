package pipeline

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hyrise/internal/rowengine"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// TestRandomQueriesDifferential generates random (but valid) SQL queries
// and cross-checks the columnar engine against the independent row engine —
// a differential oracle over the whole stack: parser, translator,
// optimizer, and both executors.
func TestRandomQueriesDifferential(t *testing.T) {
	sm := storage.NewStorageManager()
	rng := rand.New(rand.NewSource(99))

	// Two joinable tables with nullable columns and duplicates.
	ta := storage.NewTable("ta", []storage.ColumnDefinition{
		{Name: "a_id", Type: types.TypeInt64},
		{Name: "a_grp", Type: types.TypeInt64},
		{Name: "a_val", Type: types.TypeFloat64, Nullable: true},
		{Name: "a_tag", Type: types.TypeString},
	}, 37, false)
	for i := 0; i < 500; i++ {
		val := types.Float(float64(rng.Intn(100)) / 4)
		if rng.Intn(10) == 0 {
			val = types.NullValue
		}
		_, _ = ta.AppendRow([]types.Value{
			types.Int(int64(i)),
			types.Int(int64(rng.Intn(20))),
			val,
			types.Str(fmt.Sprintf("tag%02d", rng.Intn(8))),
		})
	}
	ta.SealTail()
	_ = sm.AddTable(ta)

	tb := storage.NewTable("tb", []storage.ColumnDefinition{
		{Name: "b_grp", Type: types.TypeInt64},
		{Name: "b_name", Type: types.TypeString},
	}, 16, false)
	for i := 0; i < 25; i++ {
		_, _ = tb.AppendRow([]types.Value{
			types.Int(int64(rng.Intn(22))),
			types.Str(fmt.Sprintf("name%d", i%5)),
		})
	}
	tb.SealTail()
	_ = sm.AddTable(tb)

	cfg := DefaultConfig()
	cfg.UseMvcc = false
	columnar := NewEngine(cfg, sm)
	t.Cleanup(columnar.Close)
	session := columnar.NewSession()
	rows := rowengine.NewFromStorage(sm)

	preds := []string{
		"a_id < %d", "a_grp = %d", "a_val > %d.5", "a_val IS NULL",
		"a_tag = 'tag0%d'", "a_id BETWEEN %d AND 400", "a_grp <> %d",
		"a_tag LIKE 'tag0%%' AND a_id >= %d", "a_val IS NOT NULL AND a_grp < %d",
	}
	shapes := []string{
		"SELECT a_id, a_tag FROM ta WHERE %s",
		"SELECT a_grp, count(*), sum(a_val), min(a_tag) FROM ta WHERE %s GROUP BY a_grp",
		"SELECT a_tag, avg(a_val) FROM ta WHERE %s GROUP BY a_tag ORDER BY a_tag",
		"SELECT a_id, b_name FROM ta, tb WHERE a_grp = b_grp AND %s",
		"SELECT b_name, count(*) FROM ta JOIN tb ON a_grp = b_grp WHERE %s GROUP BY b_name",
		"SELECT DISTINCT a_grp FROM ta WHERE %s ORDER BY a_grp LIMIT 7",
		"SELECT a_id FROM ta WHERE a_grp IN (SELECT b_grp FROM tb) AND %s",
		"SELECT a_id FROM ta WHERE %s AND a_val > (SELECT avg(a_val) FROM ta)",
		// Correlated subqueries the optimizer keeps, run once per outer tuple.
		"SELECT a_id FROM ta WHERE %s AND a_grp = (SELECT count(*) FROM tb WHERE b_grp = a_grp)",
		"SELECT a_id, (SELECT count(*) FROM ta t2 WHERE t2.a_grp = ta.a_grp AND t2.a_tag = ta.a_tag) FROM ta WHERE %s",
	}

	const trials = 60
	for trial := 0; trial < trials; trial++ {
		template := preds[rng.Intn(len(preds))]
		var pred string
		if strings.Contains(template, "%d") {
			pred = fmt.Sprintf(template, rng.Intn(9))
		} else {
			pred = strings.ReplaceAll(template, "%%", "%")
		}
		sql := fmt.Sprintf(shapes[rng.Intn(len(shapes))], pred)

		colRes, err := session.ExecuteOne(sql)
		if err != nil {
			t.Fatalf("columnar %q: %v", sql, err)
		}
		rowRes, _, err := rows.Query(sql)
		if err != nil {
			t.Fatalf("rowengine %q: %v", sql, err)
		}
		got := canonical(ValueRows(colRes.Table))
		want := canonical(rowRes)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("divergence on %q:\n  columnar %d rows, rowengine %d rows", sql, len(got), len(want))
			if len(got) < 8 && len(want) < 8 {
				t.Errorf("  columnar:  %v\n  rowengine: %v", got, want)
			}
		}
	}
}

func canonical(rows [][]types.Value) []string {
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		cells := make([]string, len(r))
		for i, v := range r {
			s := v.String()
			if v.Type == types.TypeFloat64 {
				s = fmt.Sprintf("%.6g", v.F)
			}
			cells[i] = s
		}
		out = append(out, strings.Join(cells, "|"))
	}
	sort.Strings(out)
	return out
}

// TestDiffSubqueryMemo: a subquery's memoized result belongs to that
// subquery and that tuple of correlated values only. A view's subqueries are
// parsed again at translation and number themselves from 1 like the
// statement's own, and correlated strings may hold any byte; the row engine
// is the oracle. Four workers evaluate the projections of w's 25 chunks at
// once, so nested invocations share the statement's one memo concurrently.
func TestDiffSubqueryMemo(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseScheduler, cfg.SchedulerWorkers = true, 4
	e := NewEngine(cfg, nil)
	t.Cleanup(e.Close)
	w := storage.NewTable("w", []storage.ColumnDefinition{
		{Name: "g", Type: types.TypeInt64},
		{Name: "s", Type: types.TypeString},
	}, 8, false)
	for i := 0; i < 200; i++ {
		if _, err := w.AppendRow([]types.Value{types.Int(int64(i % 7)), types.Str(fmt.Sprintf("%d|%d", i%3, i%5))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.StorageManager().AddTable(w); err != nil {
		t.Fatal(err)
	}
	s := e.NewSession()
	for _, sql := range []string{
		"CREATE TABLE a (x INT NOT NULL)",
		"INSERT INTO a VALUES (1), (2), (3)",
		"CREATE TABLE b (z INT NOT NULL)",
		"INSERT INTO b VALUES (10), (20)",
		"CREATE VIEW v AS SELECT z, (SELECT min(z) FROM b) AS m FROM b",
		"CREATE TABLE t (a VARCHAR(8) NOT NULL, b VARCHAR(8) NOT NULL)",
		"INSERT INTO t VALUES ('x|3y', 'z'), ('x|3y', 'z'), ('x', 'y|3z')",
	} {
		mustExec(t, s, sql)
	}
	rows := rowengine.NewFromStorage(e.StorageManager())
	for _, sql := range []string{
		"SELECT (SELECT max(x) FROM a) AS mx, m FROM v",
		"SELECT z FROM v WHERE m = (SELECT max(x) FROM a)",
		"SELECT a, b, (SELECT count(*) FROM t t2 WHERE t2.a = t.a AND t2.b = t.b) FROM t",
		"SELECT g, s, (SELECT count(*) FROM w w2 WHERE w2.g = w.g AND w2.s = w.s AND w2.s IN (SELECT w3.s FROM w w3 WHERE w3.g <> w2.g)) FROM w",
	} {
		want, _, err := rows.Query(sql)
		if err != nil {
			t.Fatalf("rowengine %q: %v", sql, err)
		}
		if got := canonical(ValueRows(mustExec(t, s, sql).Table)); !reflect.DeepEqual(got, canonical(want)) {
			t.Errorf("%s:\n  columnar  %v\n  rowengine %v", sql, got, canonical(want))
		}
	}
}
