package pipeline

import (
	"fmt"
	"math"
	"testing"

	"hyrise/internal/statistics"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// TestStatsBuildsAreLogarithmic: 10 000 single-row INSERTs, each followed
// by a SELECT that is planned against the table's statistics (two predicates:
// ordering them is what consults the estimator), rescan the table O(log rows)
// times. Before statistics were folded every one of the SELECTs rebuilt them.
func TestStatsBuildsAreLogarithmic(t *testing.T) {
	const inserts = 10000
	e := NewEngine(DefaultConfig(), nil)
	defer e.Close()
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE kv (id INT, v INT)")
	for i := 0; i < inserts; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i%97))
		res := mustExec(t, s, fmt.Sprintf("SELECT v FROM kv WHERE id = %d AND v >= 0", i))
		if res.Table.RowCount() != 1 {
			t.Fatalf("SELECT after INSERT %d returned %d rows", i, res.Table.RowCount())
		}
	}
	metric := func(name string) int64 {
		v, ok := e.Metrics().Get(name)
		if !ok {
			t.Fatalf("metric %s is not registered", name)
		}
		return v
	}
	// Builds are counted per column, and the SELECT estimates both columns.
	const columns = 2
	builds, folded, passes := metric("statistics.full_builds"), metric("statistics.folded_rows"), metric("statistics.maintain_ns_count")
	if limit := int64(math.Ceil(math.Log2(inserts))); builds%columns != 0 || builds/columns < 2 || builds/columns > limit {
		t.Errorf("statistics.full_builds = %d after %d INSERT+SELECT pairs, want 2..%d per column of %d", builds, inserts, limit, columns)
	}
	if folded == 0 || folded > inserts {
		t.Errorf("statistics.folded_rows = %d, want 1..%d: a row is folded at most once", folded, inserts)
	}
	// Between two builds the covered rows at most double and each fold takes
	// at least 1/DefaultHistogramBins of them, so folds per build are bounded.
	if folds := passes - builds; folds <= 0 || folds > builds/columns*statistics.DefaultHistogramBins {
		t.Errorf("statistics.maintain_ns_count = %d with %d builds: %d folds, want 1..%d",
			passes, builds, folds, builds/columns*statistics.DefaultHistogramBins)
	}
	table, err := e.StorageManager().GetTable("kv")
	if err != nil {
		t.Fatal(err)
	}
	if ts := e.Statistics().Peek(table); ts == nil || ts.RowCount < inserts-inserts/statistics.DefaultHistogramBins {
		t.Errorf("statistics after the run = %+v, want at most one bin's worth of %d rows behind", ts, inserts)
	}
}

// TestStatsSharedByEnginesOnOneCatalog: engines over one catalog and histogram
// kind share one statistics cache, so a column one of them built is not built
// again for the other, and the builds show in each engine's metrics. An
// engine with another histogram kind keeps a cache of its own.
func TestStatsSharedByEnginesOnOneCatalog(t *testing.T) {
	serial := NewEngine(DefaultConfig(), nil)
	defer serial.Close()
	cfg := DefaultConfig()
	cfg.UseScheduler, cfg.SchedulerWorkers = true, 2
	sched := NewEngine(cfg, serial.StorageManager())
	defer sched.Close()
	if serial.Statistics() != sched.Statistics() {
		t.Fatal("two engines over one catalog hold two statistics caches")
	}
	kv := storage.NewTable("kv", []storage.ColumnDefinition{{Name: "id", Type: types.TypeInt64}, {Name: "v", Type: types.TypeInt64}}, 0, false)
	for i := range int64(3) {
		if _, err := kv.AppendRow([]types.Value{types.Int(i + 1), types.Int(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := serial.StorageManager().AddTable(kv); err != nil {
		t.Fatal(err)
	}
	const query = "SELECT v FROM kv WHERE id >= 2 AND v >= 0" // two predicates: both columns are estimated
	for _, e := range []*Engine{serial, sched, serial} {
		if res := mustExec(t, e.NewSession(), query); res.Table.RowCount() != 2 {
			t.Fatalf("%s: %d rows, want 2", query, res.Table.RowCount())
		}
	}
	for name, e := range map[string]*Engine{"serial": serial, "scheduler": sched} {
		if builds, _ := e.Metrics().Get("statistics.full_builds"); builds != 2 {
			t.Errorf("%s engine: statistics.full_builds = %d, want 2: each column once", name, builds)
		}
	}
	cfg = DefaultConfig()
	cfg.HistogramType = statistics.EqualWidth
	other := NewEngine(cfg, serial.StorageManager())
	defer other.Close()
	if other.Statistics() == serial.Statistics() {
		t.Error("engines with different histogram kinds share a statistics cache")
	}
}
