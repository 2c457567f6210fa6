package pipeline

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"hyrise/internal/expression"
	"hyrise/internal/rowengine"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// TestDiffIntOverflow: INT arithmetic and SUM over INT are exact or fail with
// expression.ErrOutOfRange (22003 on the wire), in every engine configuration
// and in the row engine. `+`, `-`, `*`, INT_MIN / -1 and unary minus of
// INT_MIN fail; a SUM fails only when its total is no INT, whatever its
// running sum passes through, and is exact beyond 2^53. AVG over INT divides
// that exact sum, and answers where the SUM fails. Only rows that count
// fail: a CASE branch runs on the rows that take it, and a scan evaluates no
// expression on a row its transaction cannot see (deleted, an updated row's
// old version, another transaction's uncommitted insert).
func TestDiffIntOverflow(t *testing.T) {
	big := int64(1)<<53 + 1
	sm := storage.NewStorageManager()
	table := storage.NewTable("o", []storage.ColumnDefinition{
		{Name: "a", Type: types.TypeInt64},
		{Name: "b", Type: types.TypeInt64, Nullable: true},
	}, 2, false) // two rows a chunk: SUMs merge partials
	for _, row := range [][]types.Value{
		{types.Int(1), types.Int(math.MaxInt64)},
		{types.Int(2), types.Int(1)},
		{types.Int(3), types.Int(-math.MaxInt64)},
		{types.Int(4), types.Int(big)},
		{types.Int(5), types.Int(big)},
		{types.Int(6), types.NullValue},
		{types.Int(7), types.Int(math.MinInt64)},
	} {
		if _, err := table.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	table.SealTail()
	if err := sm.AddTable(table); err != nil {
		t.Fatal(err)
	}
	means := storage.NewTable("m", []storage.ColumnDefinition{{Name: "k", Type: types.TypeInt64}, {Name: "a", Type: types.TypeInt64}}, 2, false)
	for k, a := range []int64{1 << 62, 1, -1 << 62, math.MaxInt64, math.MaxInt64} {
		if _, err := means.AppendRow([]types.Value{types.Int(int64(k)), types.Int(a)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sm.AddTable(means); err != nil {
		t.Fatal(err)
	}
	engines := comparisonEngines(t, sm)
	oracle := rowengine.NewFromStorage(sm)

	for _, sql := range []string{
		"SELECT -9223372036854775807 - a - a FROM o WHERE a = 1",
		"SELECT sum(a * 4611686018427387904) FROM o WHERE a <= 2",
		"SELECT a + 9223372036854775807 FROM o",
		"SELECT b * 2 FROM o WHERE a = 4 OR a = 1",
		"SELECT -b FROM o WHERE a >= 6",
		"SELECT b / -1 FROM o WHERE a = 7",
		"SELECT sum(b) FROM o WHERE a <= 2",
		"SELECT a <= 2, sum(b) FROM o WHERE a <= 5 GROUP BY a <= 2",
		"SELECT - (-9223372036854775808)",
	} {
		if _, _, err := oracle.Query(sql); !errors.Is(err, expression.ErrOutOfRange) {
			t.Errorf("row engine, %s: err = %v, want %v", sql, err, expression.ErrOutOfRange)
		}
		for name, e := range engines {
			if _, err := e.NewSession().ExecuteOne(sql); !errors.Is(err, expression.ErrOutOfRange) {
				t.Errorf("%s engine, %s: err = %v, want %v", name, sql, err, expression.ErrOutOfRange)
			}
		}
	}

	for sql, want := range map[string]string{
		"SELECT 9223372036854775806 + 1, -9223372036854775807 - 1, 3037000499 * 3037000499, -9223372036854775807 / -1": "[9223372036854775807|-9223372036854775808|9223372030926249001|9223372036854775807]",
		"SELECT -b FROM o WHERE a = 6 OR a = 3":                                                 "[9223372036854775807 NULL]",
		"SELECT b / -1, b % -1 FROM o WHERE a = 1":                                              "[-9223372036854775807|0]",
		"SELECT sum(b) FROM o WHERE a <= 3":                                                     "[1]",
		"SELECT sum(b) FROM o WHERE a >= 4":                                                     "[-9205357638345293822]",
		"SELECT sum(b), avg(b) FROM o WHERE a = 4 OR a = 5":                                     "[18014398509481986|9.0072e+15]",
		"SELECT avg(a) FROM m WHERE k < 3":                                                      "[0.333333]",
		"SELECT avg(a) FROM m WHERE k >= 3":                                                     "[9.22337e+18]",
		"SELECT a % 2, sum(b) FROM o WHERE a < 7 GROUP BY a % 2":                                "[0|9007199254740994 1|9007199254740993]",
		"SELECT CASE WHEN a = 1 THEN a * 4611686018427387904 ELSE 0 END FROM o WHERE a <= 2":    "[0 4611686018427387904]",
		"SELECT CASE WHEN b <> -9223372036854775808 THEN -b END FROM o":                         "[-1 -9007199254740993 -9007199254740993 -9223372036854775807 9223372036854775807 NULL NULL]",
		"SELECT CASE WHEN b = -9223372036854775808 THEN 0 WHEN -b < 0 THEN 1 ELSE 2 END FROM o": "[0 1 1 1 1 2 2]",
	} {
		if got := agree(t, engines, oracle, sql); got != want {
			t.Errorf("%s: got %s, want %s", sql, got, want)
		}
	}

	for name, set := range engineConfigs {
		cfg := DefaultConfig()
		set(&cfg)
		e := NewEngine(cfg, nil)
		t.Cleanup(e.Close)
		writer, other, reader := e.NewSession(), e.NewSession(), e.NewSession()
		mustExec(t, writer, "CREATE TABLE v (a INT NOT NULL, b INT)")
		mustExec(t, writer, "INSERT INTO v VALUES (1, 9223372036854775807), (2, 1), (3, NULL), (4, 9223372036854775807)")
		mustExec(t, writer, "DELETE FROM v WHERE a = 1")
		mustExec(t, writer, "UPDATE v SET b = 0 WHERE a = 4")
		mustExec(t, other, "BEGIN")
		mustExec(t, other, "INSERT INTO v VALUES (5, 9223372036854775807)")
		for sql, want := range map[string]string{
			"SELECT count(*) FROM v WHERE b + 1 > 0":           "[[2]]",
			"SELECT count(*) FROM v WHERE a > 0 AND b + 1 > 0": "[[2]]",
			"SELECT sum(b) FROM v":                             "[[1]]",
		} {
			if got := fmt.Sprint(rows(t, reader, sql)); got != want {
				t.Errorf("%s engine, %s: got %s, want %s", name, sql, got, want)
			}
		}
		mustExec(t, other, "ROLLBACK")
	}
}
