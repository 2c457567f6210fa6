package statistics_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"hyrise/internal/pipeline"
	"hyrise/internal/statistics"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

var onDemandDefs = []storage.ColumnDefinition{
	{Name: "id", Type: types.TypeInt64}, {Name: "k", Type: types.TypeInt64},
	{Name: "grp", Type: types.TypeString}, {Name: "v", Type: types.TypeFloat64, Nullable: true},
}

func appendOnDemandRows(t testing.TB, table *storage.Table, r *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := int64(table.RowCount())
		v := types.Float(float64(r.Intn(100_000)) / 100)
		if id%17 == 0 {
			v = types.NullValue
		}
		row := []types.Value{types.Int(id), types.Int(id % 100), types.Str(fmt.Sprintf("g%02d", r.Intn(64))), v}
		if _, err := table.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStatsOnDemand: a plan builds the statistics of the columns it
// estimates and of no other column; a column built at the table's first plan
// equals the eager build, and one first asked for after appends equals a
// fresh build of the rows then present. Lookups, first builds and appends
// may race.
func TestStatsOnDemand(t *testing.T) {
	t.Run("plan", func(t *testing.T) {
		e := pipeline.NewEngine(pipeline.DefaultConfig(), nil)
		defer e.Close()
		s := e.NewSession()
		if _, err := s.ExecuteOne("CREATE TABLE ev (id INT, k INT, grp VARCHAR(8), v FLOAT)"); err != nil {
			t.Fatal(err)
		}
		table, err := e.StorageManager().GetTable("ev")
		if err != nil {
			t.Fatal(err)
		}
		appendOnDemandRows(t, table, rand.New(rand.NewSource(1)), 5000)
		builds := func() int64 {
			n, _ := e.Metrics().Get("statistics.full_builds")
			return n
		}
		// Two conjuncts over id: ordering them consults the estimator.
		if _, err := s.ExecuteOne("SELECT count(*) FROM ev WHERE id >= 5 AND id < 15"); err != nil {
			t.Fatal(err)
		}
		if got := builds(); got != 1 {
			t.Fatalf("statistics.full_builds = %d after a plan that estimates id, want 1", got)
		}
		ts := e.Statistics().Peek(table)
		eager := statistics.BuildTableStatistics(table, e.Config().HistogramType)
		if !reflect.DeepEqual(ts.Column(0), eager.Column(0)) || builds() != 1 {
			t.Errorf("id: %+v, eager build %+v (full builds %d, want 1)", ts.Column(0), eager.Column(0), builds())
		}
		for col := types.ColumnID(1); col < 4; col++ {
			if !reflect.DeepEqual(ts.Column(col), eager.Column(col)) {
				t.Errorf("%s built on demand differs from the eager build", onDemandDefs[col].Name)
			}
		}
		if got := builds(); got != 4 {
			t.Errorf("statistics.full_builds = %d once every column was asked for, want 4", got)
		}
	})

	t.Run("after appends", func(t *testing.T) {
		r := rand.New(rand.NewSource(2))
		table := storage.NewTable("ev", onDemandDefs, 1000, false)
		appendOnDemandRows(t, table, r, 6400)
		cache := statistics.NewCache(statistics.EqualHeight)
		first := cache.Get(table)
		id := first.Column(0)
		appendOnDemandRows(t, table, r, 3000) // past a bin's worth: folded
		ts := cache.Get(table)
		if ts == first || ts.RowCount != 9400 {
			t.Fatalf("after the appends: RowCount %v, want a new entry of 9400 rows", ts.RowCount)
		}
		fresh := statistics.BuildTableStatistics(table, statistics.EqualHeight)
		for col := types.ColumnID(1); col < 4; col++ {
			if !reflect.DeepEqual(ts.Column(col), fresh.Column(col)) {
				t.Errorf("%s first asked for after the appends differs from a fresh build", onDemandDefs[col].Name)
			}
		}
		if folded := ts.Column(0); folded.RowCount != 9400 || folded.Max != 9399 || id.Max != 6399 {
			t.Errorf("id folded to %v rows, max %v (built max %v), want 9400 rows up to 9399", folded.RowCount, folded.Max, id.Max)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		r := rand.New(rand.NewSource(3))
		table := storage.NewTable("ev", onDemandDefs, 256, false)
		appendOnDemandRows(t, table, r, 500)
		cache := statistics.NewCache(statistics.EqualHeight)
		if cache.Peek(table) != nil {
			t.Fatal("Peek made an entry for a table never planned")
		}
		var mu sync.Mutex // appendOnDemandRows numbers rows by the row count
		stop := make(chan struct{})
		var appenders, planners sync.WaitGroup
		for a := 0; a < 2; a++ {
			appenders.Add(1)
			go func(seed int64) {
				defer appenders.Done()
				r := rand.New(rand.NewSource(seed))
				for i := 0; i < 40; i++ {
					mu.Lock()
					appendOnDemandRows(t, table, r, 100)
					mu.Unlock()
				}
			}(int64(10 + a))
		}
		for p := 0; p < 4; p++ {
			planners.Add(1)
			go func(seed int64) {
				defer planners.Done()
				r := rand.New(rand.NewSource(seed))
				for {
					ts := cache.Get(table)
					if r.Intn(2) == 0 {
						ts = cache.Peek(table)
					}
					col := types.ColumnID(r.Intn(len(onDemandDefs)))
					cs := ts.Column(col)
					if cs.RowCount != ts.RowCount || ts.RowCount > float64(table.RowCount()) {
						t.Errorf("%s: column rows %v, statistics rows %v, table rows %d",
							onDemandDefs[col].Name, cs.RowCount, ts.RowCount, table.RowCount())
					}
					if ts.Column(col) != cs {
						t.Errorf("%s: a second lookup of one entry's column returned other statistics", onDemandDefs[col].Name)
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}(int64(20 + p))
		}
		appenders.Wait()
		close(stop)
		planners.Wait()
		if ts := cache.Get(table); ts.RowCount < 8500-8500/statistics.DefaultHistogramBins || ts.Column(2).DistinctCount > 64 {
			t.Errorf("final statistics: %v of 8500 rows, %v distinct grp values (at most 64)", ts.RowCount, ts.Column(2).DistinctCount)
		}
	})
}
