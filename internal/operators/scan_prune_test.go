package operators

import (
	"math"
	"testing"

	"hyrise/internal/encoding"
	"hyrise/internal/expression"
	"hyrise/internal/filter"
	"hyrise/internal/observe"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// prunableTable builds an encoded table whose chunks hold disjoint id
// ranges (chunk c covers [c*100, c*100+99], descending inside the chunk so
// that no chunk can be binary-searched): the zones the rows left behind when
// they were appended can prove most chunks irrelevant.
func prunableTable(t *testing.T, sm *storage.StorageManager, chunks int) *storage.Table {
	t.Helper()
	defs := []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64},
		{Name: "grp", Type: types.TypeInt64},
	}
	rows := make([][]types.Value, 0, chunks*100)
	for i := 0; i < chunks*100; i++ {
		id := i/100*100 + 99 - i%100
		rows = append(rows, []types.Value{types.Int(int64(id)), types.Int(int64(i % 5))})
	}
	table := makeTable(t, sm, "pruned", defs, 100, rows)
	spec := encoding.Spec{Encoding: encoding.Dictionary, Compression: encoding.FixedSizeByteAligned}
	if err := encoding.EncodeTable(table, &spec, nil); err != nil {
		t.Fatal(err)
	}
	return table
}

func meteredCtx(t *testing.T, sm *storage.StorageManager) (*ExecContext, *observe.ExecMetrics, *observe.ScanStats) {
	t.Helper()
	ctx := newCtx(t, sm)
	m := observe.NewExecMetrics(observe.NewRegistry())
	s := observe.NewScanStats()
	ctx.Metrics = m
	ctx.Scans = s
	return ctx, m, s
}

// TestDiffTableScanMinMaxPrune is the regression test for the decode-despite-
// zero-matches bug: when a chunk's zone proves a segment holds no match,
// the scan must not touch it — pruned segments record scan.segments_pruned
// and never increment scan.segments_decoded.
func TestDiffTableScanMinMaxPrune(t *testing.T) {
	sm := storage.NewStorageManager()
	prunableTable(t, sm, 10)

	t.Run("one chunk survives", func(t *testing.T) {
		ctx, m, _ := meteredCtx(t, sm)
		pred := eq(col(0, types.TypeInt64), lit(types.Int(555)))
		out, err := Execute(NewTableScan(&GetTable{TableName: "pruned"}, pred), ctx)
		if err != nil {
			t.Fatal(err)
		}
		if out.RowCount() != 1 {
			t.Fatalf("got %d rows, want 1", out.RowCount())
		}
		if got := m.ScanSegmentsPruned.Value(); got != 9 {
			t.Errorf("scan.segments_pruned = %d, want 9", got)
		}
		if got := m.ScanSegmentsDecoded.Value(); got != 0 {
			t.Errorf("scan.segments_decoded = %d, want 0 (pruned scan must not materialize)", got)
		}
		if got := m.ScanEncodedDictionary.Value(); got != 1 {
			t.Errorf("scan.encoded_dictionary = %d, want 1", got)
		}
	})

	t.Run("statistics prove zero matches", func(t *testing.T) {
		ctx, m, s := meteredCtx(t, sm)
		pred := &expression.Between{Child: col(0, types.TypeInt64), Lo: lit(types.Int(5000)), Hi: lit(types.Int(9000))}
		out, err := Execute(NewTableScan(&GetTable{TableName: "pruned"}, pred), ctx)
		if err != nil {
			t.Fatal(err)
		}
		if out.RowCount() != 0 {
			t.Fatalf("got %d rows, want 0", out.RowCount())
		}
		if got := m.ScanSegmentsPruned.Value(); got != 10 {
			t.Errorf("scan.segments_pruned = %d, want 10", got)
		}
		if got := m.ScanSegmentsDecoded.Value(); got != 0 {
			t.Errorf("scan.segments_decoded = %d, want 0", got)
		}
		snaps := s.Snapshot()
		if len(snaps) != 1 || snaps[0].Table != "pruned" || snaps[0].Column != "id" {
			t.Fatalf("scan stats snapshot = %+v, want one pruned.id row", snaps)
		}
		if snaps[0].Pruned != 10 || snaps[0].Ranges != 10 || snaps[0].RowsOut != 0 {
			t.Errorf("snapshot %+v: want pruned=10 ranges=10 rowsOut=0", snaps[0])
		}
	})

	t.Run("fallback predicate still decodes", func(t *testing.T) {
		// Sanity check of the counter itself: a predicate the specialized
		// paths cannot handle (id % arithmetic) materializes every encoded
		// segment it reads, so segments_decoded must now move.
		ctx, m, _ := meteredCtx(t, sm)
		pred := eq(
			&expression.Arithmetic{Op: expression.Mod, Left: col(0, types.TypeInt64), Right: lit(types.Int(100))},
			lit(types.Int(55)),
		)
		out, err := Execute(NewTableScan(&GetTable{TableName: "pruned"}, pred), ctx)
		if err != nil {
			t.Fatal(err)
		}
		if out.RowCount() != 10 {
			t.Fatalf("got %d rows, want 10", out.RowCount())
		}
		if got := m.ScanSegmentsDecoded.Value(); got != 10 {
			t.Errorf("scan.segments_decoded = %d, want 10", got)
		}
		if got := m.ScanSegmentsPruned.Value(); got != 0 {
			t.Errorf("scan.segments_pruned = %d, want 0", got)
		}
	})
}

// TestDiffPruningWithNaN: a float chunk holding a NaN beside more distinct values
// than the range filter has bins used to get NaN as its first bin edge, and
// `= 0`, `< 1` and `BETWEEN 0 AND 1` then pruned the chunk although it holds
// such rows. With and without bins, encoded and not, a scan returns the
// same rows — the numbers the predicate selects, never the NaN.
func TestDiffPruningWithNaN(t *testing.T) {
	defs := []storage.ColumnDefinition{{Name: "f", Type: types.TypeFloat64}}
	rows := [][]types.Value{{types.Float(math.NaN())}}
	for i := 0; i < 70; i++ {
		rows = append(rows, []types.Value{types.Float(float64(i))})
	}
	preds := map[string]expression.Expression{
		"= 0":             eq(col(0, types.TypeFloat64), lit(types.Float(0))),
		"< 1":             &expression.Comparison{Op: expression.Lt, Left: col(0, types.TypeFloat64), Right: lit(types.Float(1))},
		"BETWEEN 0 AND 1": &expression.Between{Child: col(0, types.TypeFloat64), Lo: lit(types.Float(0)), Hi: lit(types.Float(1))},
		">= 69":           &expression.Comparison{Op: expression.Ge, Left: col(0, types.TypeFloat64), Right: lit(types.Float(69))},
		"= 1000":          eq(col(0, types.TypeFloat64), lit(types.Float(1000))),
	}
	want := map[string]int{"= 0": 1, "< 1": 1, "BETWEEN 0 AND 1": 2, ">= 69": 1, "= 1000": 0}
	for _, enc := range []encoding.EncodingType{encoding.Unencoded, encoding.Dictionary} {
		for _, filtered := range []bool{false, true} {
			sm := storage.NewStorageManager()
			table := makeTable(t, sm, "nan", defs, 100, rows)
			if err := encoding.EncodeTable(table, &encoding.Spec{Encoding: enc}, nil); err != nil {
				t.Fatal(err)
			}
			if filtered {
				if err := filter.AttachDefaultFilters(table); err != nil {
					t.Fatal(err)
				}
			}
			for name, pred := range preds {
				ctx, m, _ := meteredCtx(t, sm)
				out, err := Execute(NewTableScan(&GetTable{TableName: "nan"}, pred), ctx)
				if err != nil {
					t.Fatal(err)
				}
				if out.RowCount() != want[name] {
					t.Errorf("%s, bins %v: f %s returned %d rows, want %d", enc, filtered, name, out.RowCount(), want[name])
				}
				if pruned := m.ScanSegmentsPruned.Value(); pruned != 0 && want[name] > 0 {
					t.Errorf("%s: f %s pruned a chunk that holds matching rows", enc, name)
				} else if filtered && name == "= 1000" && pruned != 1 {
					t.Errorf("%s: f = 1000 was not pruned: the NaN must not widen the bounds", enc)
				}
			}
		}
	}
}
