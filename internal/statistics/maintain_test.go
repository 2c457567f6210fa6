package statistics

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// foldColumns is one column per append pattern the fold must survive. q is
// the most a folded histogram's row estimate may differ from a fresh build's
// (the largest factor seen over 10 seeds x 200 probes per step, with
// headroom). The two differ because a folded histogram keeps the bins of the
// last full build — at most half the rows ago — and does not see a new
// distinct value that lands inside one of them, so a bin's rows/distinct can
// be up to twice a fresh build's, and because a fresh build lays its bins out
// over more rows, so a value can sit in a different bin.
var foldColumns = []struct {
	def storage.ColumnDefinition
	q   float64
	gen func(r *rand.Rand, row int) types.Value
}{
	{storage.ColumnDefinition{Name: "monotone", Type: types.TypeInt64}, 2,
		func(_ *rand.Rand, row int) types.Value { return types.Int(int64(row)) }},
	{storage.ColumnDefinition{Name: "uniform", Type: types.TypeInt64}, 4,
		func(r *rand.Rand, _ int) types.Value { return types.Int(r.Int63n(1000)) }},
	{storage.ColumnDefinition{Name: "skewed", Type: types.TypeInt64}, 8,
		func(r *rand.Rand, _ int) types.Value { return types.Int(int64(math.Pow(r.Float64(), 4) * 5000)) }},
	{storage.ColumnDefinition{Name: "floats", Type: types.TypeFloat64}, 4,
		func(r *rand.Rand, _ int) types.Value { return types.Float(r.NormFloat64() * 100) }},
	// Two 7-byte prefixes collapse to two domain values holding two thirds of
	// the rows, next to 300 rare ones. An equal-distinct-count bin mixes them,
	// and a rare value that shares a bin with a frequent one in one layout and
	// not in the other is estimated at that bin's rows/distinct (171x seen):
	// the histogram's own error there, which a fold inherits from its build.
	{storage.ColumnDefinition{Name: "prefixed", Type: types.TypeString}, 256,
		func(r *rand.Rand, _ int) types.Value {
			switch r.Intn(3) {
			case 0:
				return types.Str(fmt.Sprintf("Customer#%05d", r.Intn(400)))
			case 1:
				return types.Str(fmt.Sprintf("Supplier#%05d", r.Intn(400)))
			default:
				return types.Str(fmt.Sprintf("k%03d", r.Intn(300)))
			}
		}},
	{storage.ColumnDefinition{Name: "nullruns", Type: types.TypeInt64, Nullable: true}, 4,
		func(r *rand.Rand, row int) types.Value {
			if (row/37)%3 == 0 {
				return types.NullValue
			}
			return types.Int(r.Int63n(200))
		}},
}

func newFoldTable(t testing.TB, r *rand.Rand, rows int) *storage.Table {
	t.Helper()
	defs := make([]storage.ColumnDefinition, len(foldColumns))
	for i, c := range foldColumns {
		defs[i] = c.def
	}
	table := storage.NewTable("t", defs, 256, false)
	appendFoldRows(t, table, r, rows)
	return table
}

func appendFoldRows(t testing.TB, table *storage.Table, r *rand.Rand, n int) {
	t.Helper()
	row := table.RowCount()
	vals := make([]types.Value, len(foldColumns))
	for i := 0; i < n; i++ {
		for c := range foldColumns {
			vals[c] = foldColumns[c].gen(r, row+i)
		}
		if _, err := table.AppendRow(vals); err != nil {
			t.Fatal(err)
		}
	}
}

// qError is the factor by which two row estimates differ, each floored at
// one row (an estimate below one row is as good as one row).
func qError(a, b float64) float64 {
	a, b = math.Max(a, 1), math.Max(b, 1)
	return math.Max(a/b, b/a)
}

// TestStatsFoldMatchesRebuild folds seeded random append sequences batch by batch
// and compares every intermediate result with a fresh build of the same rows.
func TestStatsFoldMatchesRebuild(t *testing.T) {
	for _, kind := range []HistogramType{EqualHeight, EqualWidth} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", kind, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				table := newFoldTable(t, r, 1500)
				parts, at, rows := rowsSince(table, mark{})
				folded := buildStatistics(table.ColumnDefinitions(), parts, rows, kind)
				// Fold until the rows folded equal the rows built from — as far
				// as the cache lets a fold go before it rebuilds.
				for table.RowCount() < 3000 {
					appendFoldRows(t, table, r, 1+r.Intn(200))
					parts, to, n := rowsSince(table, at)
					folded, at = folded.fold(parts, n), to
					compareWithFresh(t, table, folded, BuildTableStatistics(table, kind), r)
				}
			})
		}
	}
}

func compareWithFresh(t *testing.T, table *storage.Table, folded, fresh *TableStatistics, r *rand.Rand) {
	t.Helper()
	if folded.RowCount != fresh.RowCount || folded.RowCount != float64(table.RowCount()) {
		t.Fatalf("RowCount folded %v fresh %v table %d", folded.RowCount, fresh.RowCount, table.RowCount())
	}
	for col, f := range allColumns(folded) {
		name, bound := foldColumns[col].def.Name, foldColumns[col].q
		g := fresh.Column(types.ColumnID(col))
		if f.RowCount != g.RowCount || f.NullCount != g.NullCount || f.Min != g.Min || f.Max != g.Max ||
			f.Hist.total != g.Hist.total {
			t.Fatalf("%s: folded rows=%v nulls=%v min=%v max=%v total=%v, fresh rows=%v nulls=%v min=%v max=%v total=%v",
				name, f.RowCount, f.NullCount, f.Min, f.Max, f.Hist.total,
				g.RowCount, g.NullCount, g.Min, g.Max, g.Hist.total)
		}
		if err := consistent(f); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Probe values that occur, and ranges between two of them.
		for probe := 0; probe < 20; probe++ {
			a := table.GetValue(types.ColumnID(col), randomRow(table, r))
			b := table.GetValue(types.ColumnID(col), randomRow(table, r))
			da, okA := ValueToDomain(a)
			db, okB := ValueToDomain(b)
			if !okA || !okB {
				continue
			}
			if q := qError(f.Hist.EstimateEquals(da), g.Hist.EstimateEquals(da)); q > bound {
				t.Errorf("%s = %v: folded %v rows, fresh %v rows (q-error %.1f)",
					name, a, f.Hist.EstimateEquals(da), g.Hist.EstimateEquals(da), q)
			}
			lo, hi := math.Min(da, db), math.Max(da, db)
			if q := qError(f.Hist.EstimateRange(lo, hi), g.Hist.EstimateRange(lo, hi)); q > bound {
				t.Errorf("%s in [%v, %v]: folded %v rows, fresh %v rows (q-error %.1f)",
					name, lo, hi, f.Hist.EstimateRange(lo, hi), g.Hist.EstimateRange(lo, hi), q)
			}
		}
	}
}

// allColumns returns the statistics of every column of ts, building the
// missing ones.
func allColumns(ts *TableStatistics) []*ColumnStatistics {
	out := make([]*ColumnStatistics, len(ts.columns))
	for col := range out {
		out[col] = ts.Column(types.ColumnID(col))
	}
	return out
}

func randomRow(table *storage.Table, r *rand.Rand) types.RowID {
	c := r.Intn(table.ChunkCount())
	return types.RowID{Chunk: types.ChunkID(c), Offset: types.ChunkOffset(r.Intn(table.GetChunk(types.ChunkID(c)).Size()))}
}

// consistent checks that a column's histogram accounts for every row the
// statistics claim to cover: bin rows + NULLs == rows.
func consistent(cs *ColumnStatistics) error {
	sum := 0.0
	for _, rows := range cs.Hist.binRows {
		sum += rows
	}
	if sum != cs.Hist.total || sum+cs.NullCount != cs.RowCount {
		return fmt.Errorf("bin rows %v + nulls %v != rows %v (histogram total %v)", sum, cs.NullCount, cs.RowCount, cs.Hist.total)
	}
	return nil
}

// TestStatsCacheStalenessRule pins the one rule of Cache.lookup: nothing below a
// bin's worth of new rows, a fold from there on, a rebuild at double the rows.
// Builds are counted per column: each of the table's columns is asked for.
func TestStatsCacheStalenessRule(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	table := newFoldTable(t, r, 6400)
	columns := int64(len(foldColumns))
	cache := NewCache(EqualHeight)
	if cache.Peek(table) != nil {
		t.Fatal("Peek built statistics for a table never planned")
	}
	s1 := cache.Get(table)
	if !reflect.DeepEqual(allColumns(s1), allColumns(BuildTableStatistics(table, EqualHeight))) {
		t.Fatal("first lookup differs from BuildTableStatistics")
	}
	if cache.Get(table) != s1 || cache.Peek(table) != s1 {
		t.Error("lookup of an unwritten table must return the stored statistics")
	}

	appendFoldRows(t, table, r, 99) // 99*64 < 6400: less than one bin's worth
	if cache.Get(table) != s1 || cache.Peek(table) != s1 {
		t.Error("lookup maintained statistics for less than one bin's worth of rows")
	}
	appendFoldRows(t, table, r, 1)
	s2 := cache.Peek(table)
	if s2 == s1 || s2.RowCount != 6500 || s1.RowCount != 6400 {
		t.Errorf("after 100 rows: RowCount %v (stored one now %v), want a new 6500-row entry", s2.RowCount, s1.RowCount)
	}
	if b, f := cache.fullBuilds.Value(), cache.foldedRows.Value(); b != columns || f != 100 {
		t.Errorf("after the fold: full builds %d folded rows %d, want %d (one per column) and 100", b, f, columns)
	}

	appendFoldRows(t, table, r, 6300) // 12800 rows: folded == built, still a fold
	if s := cache.Get(table); s.RowCount != 12800 || cache.fullBuilds.Value() != columns {
		t.Errorf("at double the rows: RowCount %v full builds %d, want 12800 and %d", s.RowCount, cache.fullBuilds.Value(), columns)
	}
	appendFoldRows(t, table, r, 200) // one bin's worth past double
	s3 := allColumns(cache.Get(table))
	if cache.fullBuilds.Value() != 2*columns || !reflect.DeepEqual(s3, allColumns(BuildTableStatistics(table, EqualHeight))) {
		t.Errorf("past double the rows: full builds %d, want a second build of each column equal to a fresh one", cache.fullBuilds.Value())
	}
	if got, want := cache.maintainNS.Count(), 2*columns+2; got != want {
		t.Errorf("maintain_ns observations = %d, want %d (two builds of each column, two folds)", got, want)
	}
}

// TestStatsEmptyColumnRange: a column without a value — empty table, all NULL —
// has the range 0..0, not +Inf..-Inf, and the first value folded in sets it.
func TestStatsEmptyColumnRange(t *testing.T) {
	defs := []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64},
		{Name: "gone", Type: types.TypeInt64, Nullable: true},
	}
	table := storage.NewTable("t", defs, 100, false)
	for _, cs := range allColumns(BuildTableStatistics(table, EqualHeight)) {
		if cs.Min != 0 || cs.Max != 0 || !cs.Empty() {
			t.Errorf("empty table: Min %v Max %v Empty %v", cs.Min, cs.Max, cs.Empty())
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := table.AppendRow([]types.Value{types.Int(int64(i + 10)), types.NullValue}); err != nil {
			t.Fatal(err)
		}
	}
	parts, at, rows := rowsSince(table, mark{})
	ts := buildStatistics(defs, parts, rows, EqualHeight)
	if gone := ts.Column(1); gone.Min != 0 || gone.Max != 0 || !gone.Empty() || gone.NullCount != 50 {
		t.Errorf("all-NULL column: %+v", gone)
	}
	if id := ts.Column(0); id.Min != 10 || id.Max != 59 || id.Empty() {
		t.Errorf("id column: %+v", id)
	}
	if _, err := table.AppendRow([]types.Value{types.Int(5), types.Int(-3)}); err != nil {
		t.Fatal(err)
	}
	parts, _, rows = rowsSince(table, at)
	ts = ts.fold(parts, rows)
	if gone := ts.Column(1); gone.Min != -3 || gone.Max != -3 || gone.Empty() || gone.DistinctCount != 1 {
		t.Errorf("all-NULL column after its first value: %+v", gone)
	}
	if !reflect.DeepEqual(ts.Column(1).Hist.binRows, []float64{1}) {
		t.Errorf("first value must open a bin: %+v", ts.Column(1).Hist)
	}
}

// TestStatsLookupUnderConcurrentAppends: with appenders running, every lookup
// returns statistics whose row count is the number of rows it counted. Get
// used to read RowCount() first and the chunks later, so the two disagreed.
func TestStatsLookupUnderConcurrentAppends(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	table := newFoldTable(t, r, 500)
	cache := NewCache(EqualHeight)
	stop := make(chan struct{})
	var appenders, planners sync.WaitGroup
	for a := 0; a < 2; a++ {
		appenders.Add(1)
		go func(seed int64) {
			defer appenders.Done()
			r := rand.New(rand.NewSource(seed))
			vals := make([]types.Value, len(foldColumns))
			for i := 0; i < 4000; i++ {
				for c := range foldColumns {
					vals[c] = foldColumns[c].gen(r, i)
				}
				if _, err := table.AppendRow(vals); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(100 + a))
	}
	for p := 0; p < 4; p++ {
		planners.Add(1)
		go func(peek bool) {
			defer planners.Done()
			for {
				ts := cache.Get(table)
				if peek {
					ts = cache.Peek(table)
				}
				if ts.RowCount > float64(table.RowCount()) {
					t.Errorf("statistics cover %v rows, table has %d", ts.RowCount, table.RowCount())
				}
				for col, cs := range allColumns(ts) {
					if cs.RowCount != ts.RowCount {
						t.Errorf("%s: column rows %v, table rows %v", foldColumns[col].def.Name, cs.RowCount, ts.RowCount)
					}
					if err := consistent(cs); err != nil {
						t.Errorf("%s: %v", foldColumns[col].def.Name, err)
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(p%2 == 1)
	}
	appenders.Wait()
	close(stop)
	planners.Wait()
	if ts := cache.Get(table); ts.RowCount < 8500-8500/DefaultHistogramBins {
		t.Errorf("final statistics cover %v of 8500 rows", ts.RowCount)
	}
}
