package pipeline

import (
	"fmt"
	"math"
	"testing"

	"hyrise/internal/statistics"
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
