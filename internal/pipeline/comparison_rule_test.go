package pipeline

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"hyrise/internal/encoding"
	"hyrise/internal/filter"
	"hyrise/internal/operators"
	"hyrise/internal/rowengine"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// comparisonEngines serves one catalog under every configuration that takes
// a different route to a comparison: the default engine (scan kernels, hash
// join, typed aggregates), DynamicAccess (the evaluator scans every chunk),
// no optimizer (joins are predicates over cross products) and ParallelForce
// (radix-partitioned joins, sharded aggregate merges, run sorts).
func comparisonEngines(t *testing.T, sm *storage.StorageManager) map[string]*Engine {
	t.Helper()
	engines := map[string]*Engine{}
	for name, set := range map[string]func(*Config){
		"default":     func(*Config) {},
		"dynamic":     func(cfg *Config) { cfg.DynamicAccess = true },
		"unoptimized": func(cfg *Config) { cfg.UseOptimizer = false },
		"parallel": func(cfg *Config) {
			cfg.parallel, cfg.UseScheduler, cfg.SchedulerWorkers = operators.ParallelForce, true, 4
		},
	} {
		cfg := DefaultConfig()
		cfg.UseMvcc = false
		set(&cfg)
		engines[name] = NewEngine(cfg, sm)
		t.Cleanup(engines[name].Close)
	}
	return engines
}

// agree runs sql on every engine and the row engine and returns the row
// engine's answer, failing when an engine differs from it. Without ORDER BY
// rows compare as a multiset.
func agree(t *testing.T, engines map[string]*Engine, oracle *rowengine.Engine, sql string) string {
	t.Helper()
	render := func(rows [][]types.Value) string {
		if strings.Contains(sql, "ORDER BY") {
			return fmt.Sprint(rows)
		}
		return fmt.Sprint(canonical(rows))
	}
	rows, _, err := oracle.Query(sql)
	if err != nil {
		t.Fatalf("rowengine %q: %v", sql, err)
	}
	want := render(rows)
	for name, e := range engines {
		res, err := e.NewSession().ExecuteOne(sql)
		if err != nil {
			t.Fatalf("%s engine %q: %v", name, sql, err)
		}
		if got := render(ValueRows(res.Table)); got != want {
			t.Errorf("%s engine, %s:\n got %s\nrow engine %s", name, sql, got, want)
		}
	}
	return want
}

// TestDiffComparisonRule: predicates and join keys compare by IEEE 754 (NaN
// matches nothing but <>, -0 = +0); ORDER BY, GROUP BY, DISTINCT,
// COUNT(DISTINCT), MIN and MAX by the total order (NaN first and one value,
// -0 = +0, NULL last). Over a FLOAT column of two NaN payloads, both zeros,
// both infinities, 0.5, 1 and NULL, and an INT column of ±(2^53+1), ±2^53
// and small ints probed with integral floats — sealed under every layout,
// plus a mutable tail — every engine configuration returns what the row
// engine does.
func TestDiffComparisonRule(t *testing.T) {
	values := []types.Value{
		types.Float(math.NaN()), types.Float(1), types.Float(math.Copysign(0, -1)), types.Float(math.Inf(1)), types.NullValue,
		types.Float(0.5), types.Float(math.Float64frombits(0x7FF8000000000123)), types.Float(math.Inf(-1)), types.Float(0),
	}
	// a holds ints past 2^53, which the evaluator compares with a float
	// through float64: 2^53+1 equals 2^53.0.
	ints := []int64{1<<53 + 1, 5, -(1<<53 + 1), 0, 1 << 53, 5, 1<<53 + 1, -7, -(1 << 53)}
	layouts := []*encoding.Spec{
		{Encoding: encoding.Unencoded},
		{Encoding: encoding.Dictionary, Compression: encoding.FixedSizeByteAligned},
		{Encoding: encoding.Dictionary, Compression: encoding.BitPacked128},
		{Encoding: encoding.RunLength},
		{Encoding: encoding.FrameOfReference, Compression: encoding.FixedSizeByteAligned},
		nil, // the size model's pick
	}
	defs := []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64},
		{Name: "f", Type: types.TypeFloat64, Nullable: true},
		{Name: "h", Type: types.TypeFloat64}, // f with NULL as 2: NOT IN may become an anti join
		{Name: "a", Type: types.TypeInt64},
	}
	table := storage.NewTable("c", defs, len(values), false)
	id := int64(0)
	appendRotated := func(by, n int) {
		for k := 0; k < n; k++ {
			f, a := values[(by+k)%len(values)], ints[(by+k)%len(ints)]
			h := f
			if f.IsNull() {
				h = types.Float(2)
			}
			if _, err := table.AppendRow([]types.Value{types.Int(id), f, h, types.Int(a)}); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	for ci, spec := range layouts {
		appendRotated(ci, len(values)) // fills, and so closes, chunk ci
		filter.Seal(table.GetChunk(types.ChunkID(ci)), spec)
	}
	appendRotated(len(layouts), len(values)-1) // the mutable tail
	probe := storage.NewTable("p", []storage.ColumnDefinition{{Name: "g", Type: types.TypeFloat64}}, 8, false)
	for _, g := range []float64{math.NaN(), 0, 1, math.Inf(-1)} {
		if _, err := probe.AppendRow([]types.Value{types.Float(g)}); err != nil {
			t.Fatal(err)
		}
	}
	probe.SealTail()
	sm := storage.NewStorageManager()
	for _, tbl := range []*storage.Table{table, probe} {
		if err := sm.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	if last := table.GetChunk(types.ChunkID(len(layouts))); last.IsImmutable() {
		t.Fatal("the tail was sealed")
	}
	engines := comparisonEngines(t, sm)
	oracle := rowengine.NewFromStorage(sm)

	for _, sql := range []string{
		"SELECT id FROM c WHERE f = 0.5",
		"SELECT id FROM c WHERE f = 0",
		"SELECT id FROM c WHERE f = -0.0",
		"SELECT id FROM c WHERE f <> 0.5",
		"SELECT id FROM c WHERE f <> 0",
		"SELECT id FROM c WHERE f < 1",
		"SELECT id FROM c WHERE f <= 0.5",
		"SELECT id FROM c WHERE f > -1",
		"SELECT id FROM c WHERE f >= 0",
		"SELECT id FROM c WHERE f + 0 = 0.5",
		"SELECT id FROM c WHERE f BETWEEN 0 AND 1",
		"SELECT id FROM c WHERE a = 9007199254740992.0",
		"SELECT id FROM c WHERE a <= 9007199254740992.0",
		"SELECT id FROM c WHERE a <> 9007199254740992.0",
		"SELECT id FROM c WHERE a = -9007199254740992.0",
		"SELECT id FROM c WHERE a >= -9007199254740992.0",
		"SELECT id FROM c WHERE a BETWEEN 5.0 AND 9007199254740992.0",
		"SELECT id FROM c WHERE f IN (0.5, 1.0, 7.0)",
		"SELECT id FROM c WHERE f NOT IN (0.5, 1.0)",
		"SELECT id FROM c WHERE f IN (SELECT g FROM p)",
		"SELECT id FROM c WHERE f NOT IN (SELECT g FROM p)",
		"SELECT id FROM c WHERE h NOT IN (SELECT g FROM p)",
		"SELECT a.id, b.id FROM c a, c b WHERE a.f = b.f",
		"SELECT c.id, p.g FROM c, p WHERE c.f = p.g",
		"SELECT c.id FROM c LEFT JOIN p ON c.h = p.g",
		"SELECT f, count(*) FROM c GROUP BY f",
		"SELECT DISTINCT f FROM c",
		"SELECT count(DISTINCT f), count(f), count(*) FROM c",
		"SELECT id % 3, count(DISTINCT f) FROM c GROUP BY id % 3",
		"SELECT min(f), max(f), min(h), max(h) FROM c",
		"SELECT id % 4, min(f), max(f) FROM c GROUP BY id % 4",
		"SELECT id, f FROM c ORDER BY f, id",
		"SELECT id, f FROM c ORDER BY f DESC, id",
	} {
		agree(t, engines, oracle, sql)
	}
}

// TestComparisonRuleOnLoadedFloats pins the two rules on columns loaded from
// CSV, whichever row comes first: every engine configuration and the row
// engine give these answers.
func TestComparisonRuleOnLoadedFloats(t *testing.T) {
	for _, csv := range []string{"NaN\n1\n0.5\n", "0.5\n1\nNaN\n"} {
		sm := storage.NewStorageManager()
		defs := []storage.ColumnDefinition{{Name: "f", Type: types.TypeFloat64}}
		for name, data := range map[string]string{"t": csv, "z": "-0\n0\nNaN\nNaN\n1.5\n"} {
			if _, err := sm.LoadCSV(name, defs, strings.NewReader(data), ',', 100, false); err != nil {
				t.Fatal(err)
			}
		}
		engines := comparisonEngines(t, sm)
		oracle := rowengine.NewFromStorage(sm)
		for sql, want := range map[string]string{
			"SELECT count(*) FROM t WHERE f = 0.5":          "[1]",
			"SELECT count(*) FROM t WHERE f + 0 = 0.5":      "[1]",
			"SELECT count(*) FROM t WHERE f <> 0.5":         "[2]",
			"SELECT count(*) FROM t WHERE f <= 0.5":         "[1]",
			"SELECT count(*) FROM t WHERE f IN (0.5, 7.0)":  "[1]",
			"SELECT min(f), max(f) FROM t":                  "[NaN|1]",
			"SELECT count(*) FROM z a, z b WHERE a.f = b.f": "[5]",
			"SELECT count(DISTINCT f) FROM z":               "[3]",
			// FALSE < TRUE; NaN < 0.7 is FALSE.
			"SELECT f FROM t ORDER BY f < 0.7 DESC, f": "[[0.5] [NaN] [1]]",
		} {
			if got := agree(t, engines, oracle, sql); got != want {
				t.Errorf("over %q, %s = %s, want %s", csv, sql, got, want)
			}
		}
	}
}

// TestDiffAggregateBoolArguments: aggregates over a BOOL argument or key —
// MIN, MAX, COUNT, GROUP BY, DISTINCT and COUNT(DISTINCT) of `a > 0` — return
// on every engine configuration what the same query returns with CASE WHEN
// a > 0 THEN 1 ELSE 0 END in its place (a BOOL reads 0/1 in the columnar
// engine), and that CASE form agrees with the row engine. Beside them, over
// sealed layouts and a mutable tail: MIN/MAX of strings with NULLs, COUNT of
// the NULL-extended column of a LEFT JOIN, and MIN/MAX of floats where -0
// comes before +0 (the first row wins a tie). SUM and AVG of a BOOL or
// VARCHAR fail with the row engine's error.
func TestDiffAggregateBoolArguments(t *testing.T) {
	defs := []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64},
		{Name: "a", Type: types.TypeInt64},
		{Name: "s", Type: types.TypeString, Nullable: true},
		{Name: "f", Type: types.TypeFloat64, Nullable: true},
	}
	as := []int64{3, -2, 0, 7, -5, 1, 0}
	ss := []types.Value{types.Str("m"), types.NullValue, types.Str("b"), types.Str("z"), types.NullValue, types.Str("a")}
	fs := []types.Value{types.Float(math.Copysign(0, -1)), types.Float(2.5), types.NullValue, types.Float(0), types.Float(-1.5)}
	layouts := []*encoding.Spec{
		{Encoding: encoding.Unencoded},
		{Encoding: encoding.Dictionary, Compression: encoding.FixedSizeByteAligned},
		{Encoding: encoding.Dictionary, Compression: encoding.BitPacked128},
		{Encoding: encoding.RunLength},
		nil, // the size model's pick
	}
	const chunk = 8
	table := storage.NewTable("t", defs, chunk, false)
	for id := 0; id < chunk*len(layouts)+5; id++ {
		row := []types.Value{types.Int(int64(id)), types.Int(as[id%len(as)]), ss[id%len(ss)], fs[id%len(fs)]}
		if _, err := table.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	for ci, spec := range layouts {
		filter.Seal(table.GetChunk(types.ChunkID(ci)), spec)
	}
	probe := storage.NewTable("p", []storage.ColumnDefinition{
		{Name: "pid", Type: types.TypeInt64},
		{Name: "x", Type: types.TypeInt64},
	}, chunk, false)
	for id := 0; id < 20; id += 3 {
		if _, err := probe.AppendRow([]types.Value{types.Int(int64(id)), types.Int(int64(id * 10))}); err != nil {
			t.Fatal(err)
		}
	}
	sm := storage.NewStorageManager()
	for _, tbl := range []*storage.Table{table, probe} {
		if err := sm.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	engines := comparisonEngines(t, sm)
	oracle := rowengine.NewFromStorage(sm)

	for _, sql := range []string{
		"SELECT min(%s), max(%s), count(%s) FROM t",
		"SELECT id % 3, min(%s), max(%s) FROM t GROUP BY id % 3",
		"SELECT %s, count(*) FROM t GROUP BY %s",
		"SELECT DISTINCT %s FROM t",
		"SELECT count(DISTINCT %s) FROM t",
		"SELECT id % 4, count(DISTINCT %s) FROM t GROUP BY id % 4",
	} {
		want := agree(t, engines, oracle, strings.ReplaceAll(sql, "%s", "CASE WHEN a > 0 THEN 1 ELSE 0 END"))
		boolSQL := strings.ReplaceAll(sql, "%s", "a > 0")
		for name, e := range engines {
			res, err := e.NewSession().ExecuteOne(boolSQL)
			if err != nil {
				t.Fatalf("%s engine %q: %v", name, boolSQL, err)
			}
			if got := fmt.Sprint(canonical(ValueRows(res.Table))); got != want {
				t.Errorf("%s engine, %s:\n got %s\nwant %s", name, boolSQL, got, want)
			}
		}
	}
	for sql, want := range map[string]string{
		"SELECT min(s), max(s), count(s) FROM t":                         "[a|z|30]",
		"SELECT count(p.x), count(*) FROM t LEFT JOIN p ON t.id = p.pid": "[7|45]",
		"SELECT min(f) FROM t WHERE f >= 0":                              "[-0]",
		"SELECT max(f) FROM t WHERE f <= 0":                              "[-0]",
		"SELECT min(f), max(f) FROM t WHERE f = 0":                       "[-0|-0]",
	} {
		if got := agree(t, engines, oracle, sql); got != want {
			t.Errorf("%s = %s, want %s", sql, got, want)
		}
	}
	for _, sql := range []string{
		"SELECT id % 3, min(s), max(s) FROM t GROUP BY id % 3",
		"SELECT t.id % 5, count(p.x) FROM t LEFT JOIN p ON t.id = p.pid GROUP BY t.id % 5",
		"SELECT id % 4, min(f), max(f) FROM t WHERE f = 0 GROUP BY id % 4",
	} {
		agree(t, engines, oracle, sql)
	}
	for _, sql := range []string{"SELECT sum(a > 0) FROM t", "SELECT avg(s) FROM t GROUP BY a"} {
		_, _, want := oracle.Query(sql)
		if want == nil {
			t.Fatalf("row engine %q: no error", sql)
		}
		for name, e := range engines {
			if _, err := e.NewSession().ExecuteOne(sql); err == nil || err.Error() != want.Error() {
				t.Errorf("%s engine %q: error %v, want %v", name, sql, err, want)
			}
		}
	}
}

// TestDiffExpressionTypes: expressions take the types the plan gives them.
// BOOL meets BOOL in comparisons, IN lists and IN subqueries, in WHERE and
// inside EXISTS; a CASE takes the common type of its branches (NULL yields);
// IN is `=`, so a list holding NULL, NaN (g), -0 or ints beside floats answers
// what its OR form answers. Every engine configuration returns what the row
// engine does, over sealed layouts and a mutable tail. A BOOL result reads 0/1
// in the columnar engine, so BOOL outputs go through a CASE WHEN twin.
func TestDiffExpressionTypes(t *testing.T) {
	defs := []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64},
		{Name: "a", Type: types.TypeInt64, Nullable: true},
		{Name: "b", Type: types.TypeInt64},
		{Name: "f", Type: types.TypeFloat64, Nullable: true},
		{Name: "g", Type: types.TypeFloat64},
		{Name: "s", Type: types.TypeString, Nullable: true},
	}
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	rows := [][]types.Value{
		{types.Int(1), types.Int(2), types.Float(1.5), types.Float(nan), types.Str("x")},
		{types.Int(-1), types.Int(3), types.Float(0), types.Float(1), types.Str("y")},
		{types.NullValue, types.Int(4), types.NullValue, types.Float(negZero), types.NullValue},
		{types.Int(0), types.Int(1), types.Float(nan), types.Float(nan), types.Str("z")},
		{types.Int(2), types.Int(0), types.Float(negZero), types.Float(0), types.Str("x")},
		{types.Int(3), types.Int(5), types.Float(2), types.Float(1.5), types.Str("w")},
		{types.Int(-2), types.Int(7), types.Float(math.Inf(1)), types.Float(2), types.Str("y")},
	}
	layouts := []*encoding.Spec{
		{Encoding: encoding.Unencoded},
		{Encoding: encoding.Dictionary, Compression: encoding.BitPacked128},
		nil, // the size model's pick
	}
	const chunk = 5
	table := storage.NewTable("t", defs, chunk, false)
	for id := 0; id < chunk*len(layouts)+3; id++ {
		row := append([]types.Value{types.Int(int64(id))}, rows[id%len(rows)]...)
		if _, err := table.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	for ci, spec := range layouts {
		filter.Seal(table.GetChunk(types.ChunkID(ci)), spec)
	}
	sm := storage.NewStorageManager()
	if err := sm.AddTable(table); err != nil {
		t.Fatal(err)
	}
	engines := comparisonEngines(t, sm)
	oracle := rowengine.NewFromStorage(sm)

	for _, sql := range []string{
		"SELECT id FROM t WHERE (a > 0) IN (SELECT b > 2 FROM t)",
		"SELECT id FROM t WHERE (a > 0) NOT IN (SELECT b > 10 FROM t)",
		"SELECT id FROM t WHERE (b > 2) NOT IN (SELECT b > 10 FROM t)",
		"SELECT id FROM t WHERE (a > 0) = (b > 0)",
		"SELECT id FROM t WHERE (a > 0) = (b > 2)",
		"SELECT id FROM t WHERE (a > 0) <> (b > 2)",
		"SELECT id FROM t WHERE (a > 0) < (b > 2)",
		"SELECT id FROM t WHERE EXISTS (SELECT 1 FROM t u WHERE (u.a > 0) = (t.b > 2) AND u.id = t.id + 1)",
		"SELECT id FROM t WHERE NOT EXISTS (SELECT 1 FROM t u WHERE (u.a > 0) <> (t.a > 0) AND u.id = t.id + 1)",
		"SELECT x.id FROM (SELECT id, a > 0 AS p FROM t) x WHERE EXISTS (SELECT 1 FROM t u WHERE (u.b > 2) = x.p)",
		"SELECT x.id FROM (SELECT id, a > 0 AS p FROM t) x WHERE x.p IN (SELECT b > 2 FROM t)",
		"SELECT x.id FROM (SELECT id, a > 0 AS p FROM t) x WHERE x.p = true",
		"SELECT x.id FROM (SELECT id, a > 0 AS p FROM t) x WHERE x.p IN (true, NULL)",
		"SELECT x.id FROM (SELECT id, a > 0 AS p FROM t) x WHERE x.p < (x.id > 3)",
		"SELECT x.id, y.id FROM (SELECT id, a > 0 AS p FROM t) x, (SELECT id, b > 2 AS q FROM t) y WHERE x.p = y.q AND y.id < 4",
		"SELECT x.id FROM (SELECT id, a > 0 AS p FROM t) x ORDER BY x.p, x.id",
		"SELECT id FROM t WHERE (a > 0) IN (true)",
		"SELECT id, CASE WHEN a > 0 THEN NULL ELSE 2 END FROM t",
		"SELECT id, CASE WHEN a > 0 THEN b ELSE f END FROM t",
		"SELECT id, CASE WHEN (a > 0) IN (SELECT b > 2 FROM t) THEN 1 WHEN NOT ((a > 0) IN (SELECT b > 2 FROM t)) THEN 0 END FROM t",
	} {
		agree(t, engines, oracle, sql)
	}

	// A BOOL-branch CASE under GROUP BY and DISTINCT reads as its twin.
	boolCase := "CASE WHEN a > 0 THEN b > 2 ELSE f > 1 END"
	twin := "CASE WHEN " + boolCase + " THEN 1 WHEN NOT (" + boolCase + ") THEN 0 END"
	for _, sql := range []string{"SELECT %s, count(*) FROM t GROUP BY %s", "SELECT DISTINCT %s FROM t"} {
		want := agree(t, engines, oracle, strings.ReplaceAll(sql, "%s", twin))
		boolSQL := strings.ReplaceAll(sql, "%s", boolCase)
		for name, e := range engines {
			res, err := e.NewSession().ExecuteOne(boolSQL)
			if err != nil {
				t.Fatalf("%s engine %q: %v", name, boolSQL, err)
			}
			if got := fmt.Sprint(canonical(ValueRows(res.Table))); got != want {
				t.Errorf("%s engine, %s:\n got %s\nwant %s", name, boolSQL, got, want)
			}
		}
	}

	// IN is its OR form, in WHERE and, through the twin, in the select list.
	for _, list := range [][2]string{
		{"f", "0, 1.5, NULL"},
		{"f", "-0.0, 2"},
		{"f", "g, 1"},
		{"g", "f, -0.0"},
		{"a", "1.0, 2.5, NULL"},
		{"f", "1, 2"},
		{"a", "b, 3"},
		{"s", "'x', NULL"},
	} {
		child, elems := list[0], strings.Split(list[1], ", ")
		ors := make([]string, len(elems))
		for i, e := range elems {
			ors[i] = child + " = " + e
		}
		in, or := child+" IN ("+list[1]+")", "("+strings.Join(ors, " OR ")+")"
		for _, pair := range [][2]string{{in, or}, {"NOT (" + in + ")", "NOT " + or}, {child + " NOT IN (" + list[1] + ")", "NOT " + or}} {
			if got, want := agree(t, engines, oracle, "SELECT id FROM t WHERE "+pair[0]), agree(t, engines, oracle, "SELECT id FROM t WHERE "+pair[1]); got != want {
				t.Errorf("WHERE %s = %s, its OR form %s", pair[0], got, want)
			}
			tw := "SELECT id, CASE WHEN %s THEN 1 WHEN NOT (%s) THEN 0 END FROM t"
			if got, want := agree(t, engines, oracle, fmt.Sprintf(tw, pair[0], pair[0])), agree(t, engines, oracle, fmt.Sprintf(tw, pair[1], pair[1])); got != want {
				t.Errorf("%s reads %s, its OR form %s", pair[0], got, want)
			}
		}
	}
}
