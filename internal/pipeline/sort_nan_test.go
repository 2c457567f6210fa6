package pipeline

import (
	"fmt"
	"math"
	"testing"

	"hyrise/internal/operators"
	"hyrise/internal/rowengine"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// TestDiffSortNaN: ORDER BY over a FLOAT key that holds NaN, both zeros, both
// infinities and NULL is one order — NaN first, -0 = +0, NULL last ascending,
// ties in input order — whichever algorithm sorts: the serial stable sort, the
// run sort + k-way merge (forced, on runs of a few rows) and the row engine.
func TestDiffSortNaN(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	keys := []types.Value{
		types.Float(5), types.Float(nan), types.Float(1), types.NullValue, types.Float(math.Copysign(0, -1)),
		types.Float(inf), types.Float(0), types.Float(nan), types.Float(-inf), types.Float(5),
		types.NullValue, types.Float(1), types.Float(math.Copysign(0, -1)), types.Float(nan), types.Float(3),
		types.Float(-2), types.Float(inf), types.Float(0), types.Float(1), types.Float(nan), types.Float(-inf),
	}
	sm := storage.NewStorageManager()
	table := storage.NewTable("f", []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64},
		{Name: "k", Type: types.TypeFloat64, Nullable: true},
	}, 4, false)
	for i, k := range keys {
		if _, err := table.AppendRow([]types.Value{types.Int(int64(i)), k}); err != nil {
			t.Fatal(err)
		}
	}
	table.SealTail()
	if err := sm.AddTable(table); err != nil {
		t.Fatal(err)
	}
	engines := map[string]*Engine{}
	for name, mode := range map[string]operators.ParallelMode{"serial": operators.ParallelSerial, "forced": operators.ParallelForce} {
		cfg := DefaultConfig()
		cfg.UseMvcc, cfg.ParallelMode = false, mode
		cfg.UseScheduler, cfg.SchedulerWorkers = mode == operators.ParallelForce, 4
		engines[name] = NewEngine(cfg, sm)
		t.Cleanup(engines[name].Close)
	}
	oracle := rowengine.NewFromStorage(sm)

	pinned := map[string]string{
		"SELECT id FROM f ORDER BY k":      "[[1] [7] [13] [19] [8] [20] [15] [4] [6] [12] [17] [2] [11] [18] [14] [0] [9] [5] [16] [3] [10]]",
		"SELECT id FROM f ORDER BY k DESC": "[[3] [10] [5] [16] [0] [9] [14] [2] [11] [18] [4] [6] [12] [17] [15] [8] [20] [1] [7] [13] [19]]",
	}
	for _, sql := range []string{
		"SELECT id FROM f ORDER BY k", "SELECT id FROM f ORDER BY k DESC",
		"SELECT id, k FROM f ORDER BY k, id DESC", "SELECT id FROM f WHERE id <> 6 ORDER BY k DESC, id",
	} {
		rows, _, err := oracle.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprint(rows)
		if pin, ok := pinned[sql]; ok && want != pin {
			t.Errorf("%s: row engine\n%s\nwant\n%s", sql, want, pin)
		}
		for name, e := range engines {
			res, err := e.NewSession().ExecuteOne(sql)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(ValueRows(res.Table)); got != want {
				t.Errorf("%s, %s engine:\n%s\nrow engine:\n%s", sql, name, got, want)
			}
		}
	}
}
