package persistence

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hyrise/internal/concurrency"
	"hyrise/internal/filter"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

func testDefs() []storage.ColumnDefinition {
	return []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64},
		{Name: "name", Type: types.TypeString, Nullable: true},
		{Name: "score", Type: types.TypeFloat64, Nullable: true},
	}
}

func openTestManager(t testing.TB, dir string, mode SyncMode) (*storage.StorageManager, *concurrency.TransactionManager, *Manager) {
	t.Helper()
	sm := storage.NewStorageManager()
	tm := concurrency.NewTransactionManager()
	m, err := Open(sm, tm, Options{Dir: dir, Mode: mode})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return sm, tm, m
}

// encodeSnapshot is the image writeSnapshot streams, collected in memory.
func encodeSnapshot(sm *storage.StorageManager, lsn int64, lastCID types.CommitID) ([]byte, error) {
	var buf bytes.Buffer
	err := writeSnapshot(&buf, sm, lsn, lastCID)
	return buf.Bytes(), err
}

// insertTx appends rows in one transaction through the MVCC+WAL path,
// mirroring what the Insert operator does.
func insertTx(t testing.TB, tm *concurrency.TransactionManager, table *storage.Table, rows [][]types.Value) {
	t.Helper()
	tx := tm.New()
	for _, vals := range rows {
		rid, err := table.AppendRow(vals)
		if err != nil {
			t.Fatalf("AppendRow: %v", err)
		}
		tx.RegisterInsert(table.GetChunk(rid.Chunk), rid.Offset)
		tx.LogInsert(table.Name(), rid, vals)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

// visibleRows returns the rows of a table visible to a fresh transaction.
func visibleRows(tm *concurrency.TransactionManager, table *storage.Table) [][]types.Value {
	snapshot := tm.LastCommitID()
	var out [][]types.Value
	for _, c := range table.Chunks() {
		mvcc := c.MvccData()
		for o := 0; o < c.Size(); o++ {
			off := types.ChunkOffset(o)
			if mvcc != nil && !concurrency.Visible(mvcc, off, 0, snapshot) {
				continue
			}
			row := make([]types.Value, c.ColumnCount())
			for col := range row {
				row[col] = c.GetSegment(types.ColumnID(col)).ValueAt(off)
			}
			out = append(out, row)
		}
	}
	return out
}

func rowsEqual(a, b [][]types.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if x.IsNull() != y.IsNull() {
				return false
			}
			if !x.IsNull() && x != y {
				return false
			}
		}
	}
	return true
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sm, tm, m := openTestManager(t, dir, SyncCommit)

	table := storage.NewTable("t", testDefs(), 4, true)
	if err := sm.AddTable(table); err != nil {
		t.Fatal(err)
	}
	if err := m.LogCreateTable(table); err != nil {
		t.Fatal(err)
	}

	insertTx(t, tm, table, [][]types.Value{
		{types.Int(1), types.Str("a"), types.Float(1.5)},
		{types.Int(2), types.NullValue, types.NullValue},
	})
	// Spill into a second chunk (capacity 4) and delete a row.
	insertTx(t, tm, table, [][]types.Value{
		{types.Int(3), types.Str("c"), types.Float(3.5)},
		{types.Int(4), types.Str("d"), types.Float(4.5)},
		{types.Int(5), types.Str("e"), types.Float(5.5)},
	})
	tx := tm.New()
	if err := tx.TryInvalidate(table.GetChunk(0), 1); err != nil {
		t.Fatal(err)
	}
	tx.LogDelete("t", types.RowID{Chunk: 0, Offset: 1})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := visibleRows(tm, table)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	sm2, tm2, m2 := openTestManager(t, dir, SyncCommit)
	defer m2.Close()
	got, err := sm2.GetTable("t")
	if err != nil {
		t.Fatalf("table not recovered: %v", err)
	}
	if !rowsEqual(visibleRows(tm2, got), want) {
		t.Fatalf("recovered rows = %v, want %v", visibleRows(tm2, got), want)
	}
	if got.TargetChunkSize() != 4 || !got.UsesMvcc() {
		t.Fatalf("table shape not recovered: chunkSize=%d mvcc=%v", got.TargetChunkSize(), got.UsesMvcc())
	}
}

func TestUncommittedInvisibleAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	sm, tm, m := openTestManager(t, dir, SyncOff)

	table := storage.NewTable("t", testDefs(), 0, true)
	if err := sm.AddTable(table); err != nil {
		t.Fatal(err)
	}
	if err := m.LogCreateTable(table); err != nil {
		t.Fatal(err)
	}
	insertTx(t, tm, table, [][]types.Value{{types.Int(1), types.Str("a"), types.Float(0)}})

	// A transaction that never commits: its rows hit the table but not the
	// WAL (the redo batch is only written at commit).
	tx := tm.New()
	rid, err := table.AppendRow([]types.Value{types.Int(99), types.Str("ghost"), types.Float(0)})
	if err != nil {
		t.Fatal(err)
	}
	tx.RegisterInsert(table.GetChunk(rid.Chunk), rid.Offset)
	tx.LogInsert("t", rid, []types.Value{types.Int(99), types.Str("ghost"), types.Float(0)})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	sm2, tm2, m2 := openTestManager(t, dir, SyncOff)
	defer m2.Close()
	got, err := sm2.GetTable("t")
	if err != nil {
		t.Fatal(err)
	}
	rows := visibleRows(tm2, got)
	if len(rows) != 1 || rows[0][0].I != 1 {
		t.Fatalf("uncommitted row leaked into recovery: %v", rows)
	}
}

func TestSnapshotRoundTripWithViewsAndDDL(t *testing.T) {
	dir := t.TempDir()
	sm, tm, m := openTestManager(t, dir, SyncCommit)

	table := storage.NewTable("t", testDefs(), 0, true)
	if err := sm.AddTable(table); err != nil {
		t.Fatal(err)
	}
	if err := m.LogCreateTable(table); err != nil {
		t.Fatal(err)
	}
	if err := sm.AddView("v", "SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}
	if err := m.LogCreateView("v", "SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}
	insertTx(t, tm, table, [][]types.Value{{types.Int(7), types.Str("x"), types.Float(7)}})

	if err := m.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// After truncation the WAL holds no records; state must come from the
	// snapshot alone. Drop the view *after* the checkpoint so the replayed
	// suffix carries the drop.
	if err := sm.DropView("v"); err != nil {
		t.Fatal(err)
	}
	if err := m.LogDropView("v"); err != nil {
		t.Fatal(err)
	}
	insertTx(t, tm, table, [][]types.Value{{types.Int(8), types.Str("y"), types.Float(8)}})
	want := visibleRows(tm, table)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	sm2, tm2, m2 := openTestManager(t, dir, SyncCommit)
	defer m2.Close()
	got, err := sm2.GetTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(visibleRows(tm2, got), want) {
		t.Fatalf("recovered rows = %v, want %v", visibleRows(tm2, got), want)
	}
	if _, ok := sm2.GetView("v"); ok {
		t.Fatal("dropped view resurrected by recovery")
	}
}

func TestTornTailTruncatedCleanly(t *testing.T) {
	dir := t.TempDir()
	sm, tm, m := openTestManager(t, dir, SyncOff)
	table := storage.NewTable("t", testDefs(), 0, true)
	if err := sm.AddTable(table); err != nil {
		t.Fatal(err)
	}
	if err := m.LogCreateTable(table); err != nil {
		t.Fatal(err)
	}
	insertTx(t, tm, table, [][]types.Value{{types.Int(1), types.Str("a"), types.Float(1)}})
	insertTx(t, tm, table, [][]types.Value{{types.Int(2), types.Str("b"), types.Float(2)}})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the last byte (simulates a torn write caught by the CRC).
	walPath := filepath.Join(dir, WALFileName)
	buf, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xFF
	if err := os.WriteFile(walPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	sm2, tm2, m2 := openTestManager(t, dir, SyncOff)
	got, err := sm2.GetTable("t")
	if err != nil {
		t.Fatal(err)
	}
	rows := visibleRows(tm2, got)
	if len(rows) != 1 || rows[0][0].I != 1 {
		t.Fatalf("want exactly the first committed row after torn tail, got %v", rows)
	}
	// The torn suffix must be gone so appending resumes from a valid tail.
	insertTx(t, tm2, got, [][]types.Value{{types.Int(3), types.Str("c"), types.Float(3)}})
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	sm3, tm3, m3 := openTestManager(t, dir, SyncOff)
	defer m3.Close()
	got3, err := sm3.GetTable("t")
	if err != nil {
		t.Fatal(err)
	}
	rows3 := visibleRows(tm3, got3)
	if len(rows3) != 2 {
		t.Fatalf("want rows 1 and 3 after re-append, got %v", rows3)
	}
}

func TestSyncModes(t *testing.T) {
	for _, mode := range []SyncMode{SyncOff, SyncCommit, SyncBatch} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			sm, tm, m := openTestManager(t, dir, mode)
			table := storage.NewTable("t", testDefs(), 0, true)
			if err := sm.AddTable(table); err != nil {
				t.Fatal(err)
			}
			if err := m.LogCreateTable(table); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				insertTx(t, tm, table, [][]types.Value{
					{types.Int(int64(i)), types.Str("r"), types.Float(float64(i))},
				})
			}
			if got := len(visibleRows(tm, table)); got != 10 {
				t.Fatalf("visible rows before close = %d, want 10", got)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			sm2, tm2, m2 := openTestManager(t, dir, mode)
			defer m2.Close()
			got, err := sm2.GetTable("t")
			if err != nil {
				t.Fatal(err)
			}
			if n := len(visibleRows(tm2, got)); n != 10 {
				t.Fatalf("recovered %d rows, want 10", n)
			}
		})
	}
}

func TestParseSyncMode(t *testing.T) {
	for name, want := range map[string]SyncMode{"off": SyncOff, "commit": SyncCommit, "batch": SyncBatch, "": SyncCommit} {
		got, err := ParseSyncMode(name)
		if err != nil || got != want {
			t.Fatalf("ParseSyncMode(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseSyncMode("bogus"); err == nil {
		t.Fatal("ParseSyncMode accepted garbage")
	}
}

// TestCrashRestoredTailGrowsWithinCapacity: the mutable tail a snapshot
// restores grows like a fresh chunk — appends after the restart grow its
// arrays toward the chunk size, so the chunk they fill holds no slack, and
// its nullable columns, which hold no NULL, carry no NULL flags.
func TestCrashRestoredTailGrowsWithinCapacity(t *testing.T) {
	const capacity = 64
	row := func(i int) []types.Value {
		return []types.Value{types.Int(int64(i)), types.Str("r"), types.Float(float64(i))}
	}
	sm := storage.NewStorageManager()
	table := storage.NewTable("t", testDefs(), capacity, true)
	if err := sm.AddTable(table); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := table.AppendRow(row(i)); err != nil {
			t.Fatal(err)
		}
	}
	img, err := encodeSnapshot(sm, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	restoredSM := storage.NewStorageManager()
	if _, _, err := DecodeSnapshot(img, restoredSM); err != nil {
		t.Fatal(err)
	}
	restored, err := restoredSM.GetTable("t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 3; i < capacity; i++ {
		if _, err := restored.AppendRow(row(i)); err != nil {
			t.Fatal(err)
		}
	}
	c := restored.GetChunk(0)
	if restored.ChunkCount() != 1 || c.Size() != capacity || !c.IsImmutable() {
		t.Fatalf("%d chunks, the first of %d rows (immutable=%v), want one full chunk", restored.ChunkCount(), c.Size(), c.IsImmutable())
	}
	for col, def := range restored.ColumnDefinitions() {
		var values, nulls int
		switch s := c.GetSegment(types.ColumnID(col)).(type) {
		case *storage.ValueSegment[int64]:
			values, nulls = cap(s.Values()), cap(s.Nulls())
		case *storage.ValueSegment[float64]:
			values, nulls = cap(s.Values()), cap(s.Nulls())
		case *storage.StringSegment:
			values, nulls = cap(s.Offsets()), cap(s.Nulls())
		}
		if values != capacity || nulls != 0 {
			t.Errorf("column %s (nullable=%v) holds room for %d values and %d null flags, want %d and 0", def.Name, def.Nullable, values, nulls, capacity)
		}
	}
}

// TestSealedColumnWithoutNullKeepsNoFlags: a sealed nullable column that holds
// no NULL keeps no NULL flags — 8 B a row of floats, not 9 — and comes back
// from a snapshot that way, still nullable; a column with one NULL keeps them.
// The values are thirds, which no exponent makes exact decimals.
func TestSealedColumnWithoutNullKeepsNoFlags(t *testing.T) {
	const rows = 1000
	sm := storage.NewStorageManager()
	table := storage.NewTable("t", []storage.ColumnDefinition{
		{Name: "clean", Type: types.TypeFloat64, Nullable: true}, {Name: "one_null", Type: types.TypeFloat64, Nullable: true},
	}, rows, false)
	if err := sm.AddTable(table); err != nil {
		t.Fatal(err)
	}
	value := func(i int) float64 { return float64(i) + 1.0/3 }
	for i := 0; i < rows; i++ {
		v := types.Float(value(i))
		second := v
		if i == 500 {
			second = types.NullValue
		}
		if _, err := table.AppendRow([]types.Value{v, second}); err != nil {
			t.Fatal(err)
		}
	}
	filter.Seal(table.GetChunk(0), nil)
	check := func(when string, c *storage.Chunk) {
		t.Helper()
		for col, want := range []int64{8 * rows, 9 * rows} {
			seg, ok := c.GetSegment(types.ColumnID(col)).(*storage.ValueSegment[float64])
			if !ok || !seg.Nullable() || seg.MemoryUsage() != want {
				t.Fatalf("%s: column %d is %T using %d bytes, want a nullable value segment of %d", when, col, c.GetSegment(types.ColumnID(col)), c.GetSegment(types.ColumnID(col)).MemoryUsage(), want)
			}
		}
		if v := c.GetSegment(1).ValueAt(500); !v.IsNull() {
			t.Errorf("%s: row 500 of one_null reads %v, want NULL", when, v)
		}
		if v := c.GetSegment(0).ValueAt(500); v.IsNull() || v.F != value(500) {
			t.Errorf("%s: row 500 of clean reads %v, want %v", when, v, value(500))
		}
	}
	check("sealed", table.GetChunk(0))
	img, err := encodeSnapshot(sm, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	restoredSM := storage.NewStorageManager()
	if _, _, err := DecodeSnapshot(img, restoredSM); err != nil {
		t.Fatal(err)
	}
	restored, err := restoredSM.GetTable("t")
	if err != nil {
		t.Fatal(err)
	}
	check("restored", restored.GetChunk(0))
}

// TestCrashRestoredChunkKeepsGaps: a chunk snapshotted with its bins (state 2)
// comes back with the zone it had, bins included — restore derives them before
// the table takes the chunk in, and that pass keeps them — so `c = 481`, which
// every chunk's bounds admit, prunes the chunks whose bins leave a gap there,
// the same ones on both sides: chunks 2, 4, 5, 7 and 9, as the equals-gap case
// of pipeline's pruning_parity.json, whose column c this is.
func TestCrashRestoredChunkKeepsGaps(t *testing.T) {
	sm := storage.NewStorageManager()
	table := storage.NewTable("t", []storage.ColumnDefinition{{Name: "c", Type: types.TypeInt64}}, 100, false)
	for i := int64(0); i < 1200; i++ {
		if _, err := table.AppendRow([]types.Value{types.Int(i * 37 % 1000)}); err != nil {
			t.Fatal(err)
		}
	}
	table.SealTail()
	if err := filter.AttachDefaultFilters(table); err != nil {
		t.Fatal(err)
	}
	if err := sm.AddTable(table); err != nil {
		t.Fatal(err)
	}
	img, err := encodeSnapshot(sm, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	restoredSM := storage.NewStorageManager()
	if _, _, err := DecodeSnapshot(img, restoredSM); err != nil {
		t.Fatal(err)
	}
	restored, err := restoredSM.GetTable("t")
	if err != nil {
		t.Fatal(err)
	}
	v := types.Int(481)
	var pruned, restoredPruned []int
	for ci, c := range table.Chunks() {
		z, _ := c.Zone(0)
		rz, ok := restored.GetChunk(types.ChunkID(ci)).Zone(0)
		if !ok || !reflect.DeepEqual(rz, z) {
			t.Fatalf("chunk %d: restored zone %+v, the primary's %+v", ci, rz, z)
		}
		if bounds := (storage.Zone{Min: z.Min, Max: z.Max}); bounds.Excludes(&v, &v) {
			t.Fatalf("chunk %d: the bounds %v..%v exclude c = 481 by themselves", ci, z.Min, z.Max)
		}
		if z.Excludes(&v, &v) {
			pruned = append(pruned, ci)
		}
		if rz.Excludes(&v, &v) {
			restoredPruned = append(restoredPruned, ci)
		}
	}
	if want := []int{2, 4, 5, 7, 9}; !reflect.DeepEqual(pruned, want) || !reflect.DeepEqual(restoredPruned, want) {
		t.Errorf("c = 481 prunes chunks %v restored, %v on the primary; want %v on both", restoredPruned, pruned, want)
	}
}
