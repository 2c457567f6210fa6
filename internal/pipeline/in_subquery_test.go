package pipeline

import (
	"fmt"
	"math"
	"testing"

	"hyrise/internal/encoding"
	"hyrise/internal/filter"
	"hyrise/internal/rowengine"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// TestDiffInSubquery: `x IN (SELECT s …)` answers what its EXISTS form
// answers — TRUE where some row has x = s, else NULL where some x = s is
// NULL, else FALSE (so FALSE over an empty subquery, even for a NULL x) —
// and, where the set is constant, what its IN list answers. That holds in the
// select list, in WHERE, under OR and negated, uncorrelated and correlated,
// and with x an outer reference whose first row is NULL (the set's type must
// not come from a probe), in every engine configuration and in the row
// engine. The values are INT
// extremes, ±2^53±1 as INT against FLOAT, NaN, ±0, NULL on either side, the
// empty string and strings with a NUL byte, a subquery column the plan types
// NULL (stored as INT), and a derived BOOL that reaches the subquery through
// a filtered derived table, as a reference segment.
func TestDiffInSubquery(t *testing.T) {
	const p53 = 1 << 53
	nan, negZero := types.Float(math.NaN()), types.Float(math.Copysign(0, -1))
	null, i, f, s := types.NullValue, types.Int, types.Float, types.Str
	probes := [][]types.Value{ // k, i, f, s
		{i(1), null, null, null},
		{i(1), i(p53 + 1), f(p53), s("")},
		{i(2), i(-p53 - 1), f(-p53), s("a\x00b")},
		{i(2), i(math.MaxInt64), nan, s("a")},
		{i(3), i(math.MinInt64), negZero, s("b")},
		{i(3), i(0), f(0), s("a\x00")},
		{i(1), i(2), f(2), s("x")},
		{i(4), i(1), f(p53 + 2), s("c")},
		{i(4), i(p53 - 1), f(p53 - 1), null},
	}
	set := [][]types.Value{ // uk, ui, uf, us
		{i(1), i(p53 + 1), f(p53), s("a\x00b")},
		{i(1), i(-p53 - 1), nan, s("")},
		{i(2), i(math.MaxInt64), f(0), s("a")},
		{i(2), i(math.MinInt64), negZero, null},
		{i(1), null, null, s("c")},
		{i(1), i(2), f(2), s("x")},
		{i(3), i(p53 - 1), f(-p53 - 2), s("a\x00")},
	}
	sm := storage.NewStorageManager()
	for _, tbl := range []struct {
		name string
		cols []string
		rows [][]types.Value
	}{{"t", []string{"k", "i", "f", "s"}, probes}, {"u", []string{"uk", "ui", "uf", "us"}, set}} {
		defs := []storage.ColumnDefinition{{Name: "id", Type: types.TypeInt64}, {Name: tbl.cols[0], Type: types.TypeInt64}}
		for c, dt := range []types.DataType{types.TypeInt64, types.TypeFloat64, types.TypeString} {
			defs = append(defs, storage.ColumnDefinition{Name: tbl.cols[c+1], Type: dt, Nullable: true})
		}
		table := storage.NewTable(tbl.name, defs, 4, false)
		for id, row := range tbl.rows {
			if _, err := table.AppendRow(append([]types.Value{i(int64(id))}, row...)); err != nil {
				t.Fatal(err)
			}
		}
		filter.Seal(table.GetChunk(0), &encoding.Spec{Encoding: encoding.Dictionary, Compression: encoding.BitPacked128})
		if err := sm.AddTable(table); err != nil {
			t.Fatal(err)
		}
	}
	engines := comparisonEngines(t, sm)
	oracle := rowengine.NewFromStorage(sm)

	// Each case is x IN (SELECT col FROM from WHERE cond), and the IN list
	// of that subquery's rows where it has one.
	for _, c := range []struct{ x, col, from, cond, list string }{
		{"t.f", "ui", "u", "ui IS NOT NULL", "9007199254740993, -9007199254740993, 9223372036854775807, -9223372036854775807 - 1, 2, 9007199254740991"},
		{"t.f", "ui", "u", "true", ""},
		{"t.i", "uf", "u", "uf IS NOT NULL", ""},
		{"t.i", "uf", "u", "true", ""},
		{"t.f", "uf", "u", "uf > -1", ""},
		{"t.f", "uf", "u", "uf IS NOT NULL", ""},
		{"t.f", "uf", "u", "true", ""},
		{"t.i", "ui", "u", "ui > 0 OR ui < 0", "9007199254740993, -9007199254740993, 9223372036854775807, -9223372036854775807 - 1, 2, 9007199254740991"},
		{"t.i", "ui", "u", "true", ""},
		{"t.s", "us", "u", "true", ""},
		{"t.s", "us", "u", "us IS NOT NULL", ""},
		{"t.s", "us", "u", "us = 'a' OR us = 'x'", "'a', 'x'"},
		{"t.i", "ui", "u", "false", ""},
		{"t.f", "uf", "u", "uf > 100", ""},
		{"t.s", "us", "u", "us = 'zz'", ""},
		{"NULL", "ui", "u", "false", ""},
		{"NULL", "ui", "u", "ui = 2", "2"},
		{"t.i", "NULL", "u", "uk = 1", "NULL"},
		{"(t.i > 0)", "p", "(SELECT i > 0 AS p FROM t t2) d", "p", "true"},
		{"(t.i > 0)", "p", "(SELECT i > 0 AS p FROM t t2) d", "NOT p", "false"},
		{"(t.i > 0)", "p", "(SELECT i > 0 AS p FROM t t2) d", "p IS NULL OR p", "NULL, true"},
		{"t.f", "ui", "u", "u.uk = t.k", ""},
		{"t.i", "uf", "u", "u.uk = t.k", ""},
		{"t.s", "us", "u", "u.uk = t.k AND u.id > 0", ""},
		{"t.f", "ui + 0", "u", "u.uk = t.k + 1", ""},
		{"t.s", "NULL", "u", "uk = 1", "NULL"},
		{"(t.i > 0)", "NULL", "u", "true", "NULL"},
	} {
		sub := fmt.Sprintf("SELECT %s FROM %s WHERE %s", c.col, c.from, c.cond)
		ex := fmt.Sprintf("CASE WHEN EXISTS (SELECT 1 FROM %[1]s WHERE (%[2]s) AND %[3]s = %[4]s) THEN true "+
			"WHEN EXISTS (SELECT 1 FROM %[1]s WHERE (%[2]s) AND (%[3]s = %[4]s) IS NULL) THEN NULL ELSE false END",
			c.from, c.cond, c.x, c.col)
		exists := [2]string{ex, "NOT (" + ex + ")"}
		forms := [][2]string{{c.x + " IN (" + sub + ")", c.x + " NOT IN (" + sub + ")"}}
		if c.list != "" {
			forms = append(forms, [2]string{c.x + " IN (" + c.list + ")", c.x + " NOT IN (" + c.list + ")"})
		}
		for _, pos := range []string{
			"SELECT id, %s FROM t",
			"SELECT id FROM t WHERE %s",
			"SELECT id FROM t WHERE %s OR t.id = 4",
			"SELECT id, (SELECT %s FROM u v WHERE v.id = 0) FROM t", // x is an outer reference
		} {
			for neg := range 2 {
				want := agree(t, engines, oracle, fmt.Sprintf(pos, exists[neg]))
				for _, form := range forms {
					sql := fmt.Sprintf(pos, form[neg])
					if got := agree(t, engines, oracle, sql); got != want {
						t.Errorf("%s\n reads %s\n its EXISTS form reads %s", sql, got, want)
					}
				}
			}
		}
	}
}
