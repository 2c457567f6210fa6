package storage

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"hyrise/internal/types"
)

func testDefs() []ColumnDefinition {
	return []ColumnDefinition{
		{Name: "id", Type: types.TypeInt64},
		{Name: "price", Type: types.TypeFloat64, Nullable: true},
		{Name: "name", Type: types.TypeString},
	}
}

func TestValueSegmentAppendAndAccess(t *testing.T) {
	s := NewValueSegment[int64](4, true)
	s.Append(10, false)
	s.Append(0, true)
	s.Append(30, false)

	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if v := s.ValueAt(0); v.I != 10 {
		t.Errorf("ValueAt(0) = %v", v)
	}
	if !s.IsNullAt(1) || !s.ValueAt(1).IsNull() {
		t.Error("row 1 should be NULL")
	}
	if v, null := s.Get(2); null || v != 30 {
		t.Errorf("Get(2) = (%d, %v)", v, null)
	}
	if s.DataType() != types.TypeInt64 {
		t.Errorf("DataType = %v", s.DataType())
	}
}

func TestValueSegmentNonNullablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic appending NULL to non-nullable segment")
		}
	}()
	s := NewValueSegment[string](1, false)
	s.Append("", true)
}

func TestValueSegmentFromSliceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched nulls length")
		}
	}()
	ValueSegmentFromSlice([]int64{1, 2}, []bool{false})
}

func TestValueSegmentMemoryUsage(t *testing.T) {
	s := ValueSegmentFromSlice([]int64{1, 2, 3}, nil)
	if s.MemoryUsage() < 24 {
		t.Errorf("MemoryUsage = %d, want >= 24", s.MemoryUsage())
	}
	str := ValueSegmentFromSlice([]string{"abc", "de"}, nil)
	if got := str.MemoryUsage(); got < 16*2+5 {
		t.Errorf("string MemoryUsage = %d, want >= 37", got)
	}
}

func TestTableAppendCreatesChunks(t *testing.T) {
	table := NewTable("t", testDefs(), 2, false)
	for i := 0; i < 5; i++ {
		rid, err := table.AppendRow([]types.Value{types.Int(int64(i)), types.Float(float64(i) / 2), types.Str("row")})
		if err != nil {
			t.Fatal(err)
		}
		wantChunk := types.ChunkID(i / 2)
		wantOffset := types.ChunkOffset(i % 2)
		if rid.Chunk != wantChunk || rid.Offset != wantOffset {
			t.Errorf("row %d: RowID = %+v, want chunk %d offset %d", i, rid, wantChunk, wantOffset)
		}
	}
	if table.ChunkCount() != 3 {
		t.Fatalf("ChunkCount = %d, want 3", table.ChunkCount())
	}
	if table.RowCount() != 5 {
		t.Fatalf("RowCount = %d, want 5", table.RowCount())
	}
	// Full chunks must be immutable; the trailing chunk mutable.
	if !table.GetChunk(0).IsImmutable() || !table.GetChunk(1).IsImmutable() {
		t.Error("full chunks should be immutable")
	}
	if table.GetChunk(2).IsImmutable() {
		t.Error("trailing chunk should be mutable")
	}
}

func TestTableAppendValidation(t *testing.T) {
	table := NewTable("t", testDefs(), 0, false)
	if _, err := table.AppendRow([]types.Value{types.Int(1)}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := table.AppendRow([]types.Value{types.NullValue, types.Float(1), types.Str("x")}); err == nil {
		t.Error("NULL in non-nullable column should fail")
	}
	if _, err := table.AppendRow([]types.Value{types.Str("no"), types.Float(1), types.Str("x")}); err == nil {
		t.Error("type mismatch should fail")
	}
	if _, err := table.AppendRow([]types.Value{types.Int(1), types.NullValue, types.Str("x")}); err != nil {
		t.Errorf("NULL in nullable column should succeed: %v", err)
	}
}

func TestTableColumnLookup(t *testing.T) {
	table := NewTable("t", testDefs(), 0, false)
	id, err := table.ColumnID("PRICE")
	if err != nil || id != 1 {
		t.Errorf("ColumnID(PRICE) = (%d, %v)", id, err)
	}
	if _, err := table.ColumnID("nope"); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestTableGetValueAndRowAsValues(t *testing.T) {
	table := NewTable("t", testDefs(), 2, false)
	rid, _ := table.AppendRow([]types.Value{types.Int(7), types.NullValue, types.Str("seven")})
	if v := table.GetValue(0, rid); v.I != 7 {
		t.Errorf("GetValue = %v", v)
	}
	row := table.RowAsValues(rid)
	if row[0].I != 7 || !row[1].IsNull() || row[2].S != "seven" {
		t.Errorf("RowAsValues = %v", row)
	}
}

func TestReferenceSegment(t *testing.T) {
	table := NewTable("base", testDefs(), 2, false)
	for i := 0; i < 4; i++ {
		_, err := table.AppendRow([]types.Value{types.Int(int64(i * 10)), types.Float(0), types.Str("s")})
		if err != nil {
			t.Fatal(err)
		}
	}
	pos := types.PosList{
		{Chunk: 1, Offset: 1},
		{Chunk: 0, Offset: 0},
		types.NullRowID,
	}
	rs := NewReferenceSegment(NewPositions(table, pos), 0)
	if rs.Len() != 3 {
		t.Fatalf("Len = %d", rs.Len())
	}
	if v := rs.ValueAt(0); v.I != 30 {
		t.Errorf("ValueAt(0) = %v, want 30", v)
	}
	if v := rs.ValueAt(1); v.I != 0 {
		t.Errorf("ValueAt(1) = %v, want 0", v)
	}
	if !rs.IsNullAt(2) {
		t.Error("NullRowID should read as NULL")
	}
	if rs.DataType() != types.TypeInt64 {
		t.Error("DataType wrong")
	}
	if rs.Positions().Table() != table || rs.ReferencedColumn() != 0 {
		t.Error("referenced table/column wrong")
	}
}

func TestTableView(t *testing.T) {
	table := NewTable("base", testDefs(), 2, false)
	for i := 0; i < 6; i++ {
		_, _ = table.AppendRow([]types.Value{types.Int(int64(i)), types.Float(0), types.Str("s")})
	}
	renamed := NewTableView(table, []ColumnDefinition{
		{Name: "a", Type: types.TypeInt64},
		{Name: "b", Type: types.TypeFloat64, Nullable: true},
		{Name: "c", Type: types.TypeString},
	})
	// A view keeps every chunk under its own id: row ids mean the same in both.
	if renamed.ChunkCount() != 3 || renamed.GetChunk(2) != table.GetChunk(2) {
		t.Errorf("view has %d chunks, want the table's 3 in order", renamed.ChunkCount())
	}
	if id, err := renamed.ColumnID("b"); err != nil || id != 1 {
		t.Errorf("renamed lookup = (%d, %v)", id, err)
	}
}

func TestChunkImmutabilityRules(t *testing.T) {
	table := NewTable("t", testDefs(), 4, false)
	_, _ = table.AppendRow([]types.Value{types.Int(1), types.Float(1), types.Str("a")})
	c := table.GetChunk(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ReplaceSegment on mutable chunk should panic")
			}
		}()
		c.ReplaceSegment(0, NewValueSegment[int64](0, false))
	}()
	c.Finalize()
	if !c.IsImmutable() {
		t.Error("chunk should be immutable after Finalize")
	}
	// Replacement of wrong length panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong-length replacement should panic")
			}
		}()
		c.ReplaceSegment(0, NewValueSegment[int64](0, false))
	}()
	// Correct replacement works.
	c.ReplaceSegment(0, ValueSegmentFromSlice([]int64{42}, nil))
	if got := c.GetSegment(0).ValueAt(0); got.I != 42 {
		t.Errorf("after replacement ValueAt = %v", got)
	}
}

func TestMvccDataClaims(t *testing.T) {
	m := NewMvccData(4)
	if m.Begin(0) != types.MaxCommitID || m.End(0) != types.MaxCommitID {
		t.Error("fresh rows must have MaxCommitID begin/end")
	}
	if _, ok := m.Claim(1, 77); !ok {
		t.Error("first claim should succeed")
	}
	if _, ok := m.Claim(1, 77); !ok {
		t.Error("re-claim by owner should succeed")
	}
	if end, ok := m.Claim(1, 88); ok || end.Owner() != 77 {
		t.Errorf("claim by other transaction should fail and name the holder: %v, holder %d", ok, end.Owner())
	}
	m.Release(1, 88) // wrong owner: no-op
	if m.End(1) != types.HeldBy(77) {
		t.Error("release by non-owner must not clear the claim")
	}
	m.Release(1, 77)
	if m.End(1) != types.MaxCommitID {
		t.Error("release by owner must clear the claim")
	}
	m.SetBegin(2, 5)
	m.SetEnd(2, 9)
	if m.Begin(2) != 5 || m.End(2) != 9 {
		t.Error("begin/end roundtrip failed")
	}
	if end, ok := m.Claim(2, 77); ok || end != 9 {
		t.Errorf("claim of an invalidated row = %d, %v; want its end 9, refused", end, ok)
	}
}

func TestChunkIndexFilterAttachment(t *testing.T) {
	table := NewTable("t", testDefs(), 1, false)
	_, _ = table.AppendRow([]types.Value{types.Int(1), types.Float(1), types.Str("a")})
	_, _ = table.AppendRow([]types.Value{types.Int(2), types.Float(2), types.Str("b")})
	c := table.GetChunk(0) // immutable (capacity 1)
	if !c.IsImmutable() {
		t.Fatal("chunk 0 should be immutable")
	}
	fi := fakeIndex{col: 2}
	c.AddIndex(fi)
	if got := c.GetIndex(2); got != fi {
		t.Error("GetIndex(2) did not return the attached index")
	}
	if c.GetIndex(0) != nil {
		t.Error("GetIndex(0) should be nil")
	}
	_, before := c.MemoryUsage()
	c.SetBins(0, [][2]float64{{1, 1}})
	if z, _ := c.Zone(0); len(z.Bins) != 1 {
		t.Errorf("zone 0 holds bins %v, want the one set", z.Bins)
	}
	if z, _ := c.Zone(1); z.Bins != nil {
		t.Error("zone 1 should hold no bins")
	}
	if _, meta := c.MemoryUsage(); meta != before+16 {
		t.Errorf("metadata usage = %d with one bin, %d without", meta, before)
	}
}

type fakeIndex struct{ col types.ColumnID }

func (f fakeIndex) ColumnID() types.ColumnID                                 { return f.col }
func (f fakeIndex) Range(lo, hi *types.Value, _, _ bool) []types.ChunkOffset { return nil }
func (f fakeIndex) MemoryUsage() int64                                       { return 10 }

func TestStorageManagerCatalog(t *testing.T) {
	sm := NewStorageManager()
	table := NewTable("orders", testDefs(), 0, false)
	if err := sm.AddTable(table); err != nil {
		t.Fatal(err)
	}
	if err := sm.AddTable(table); err == nil {
		t.Error("duplicate AddTable should fail")
	}
	if err := sm.AddTable(NewTable("", testDefs(), 0, false)); err == nil {
		t.Error("unnamed table should fail")
	}
	got, err := sm.GetTable("ORDERS")
	if err != nil || got != table {
		t.Error("case-insensitive lookup failed")
	}
	if !sm.HasTable("orders") || sm.HasTable("nope") {
		t.Error("HasTable wrong")
	}
	if names := sm.TableNames(); len(names) != 1 || names[0] != "orders" {
		t.Errorf("TableNames = %v", names)
	}
	if err := sm.DropTable("orders"); err != nil {
		t.Error(err)
	}
	if err := sm.DropTable("orders"); err == nil {
		t.Error("double drop should fail")
	}
}

func TestStorageManagerViews(t *testing.T) {
	sm := NewStorageManager()
	if err := sm.AddView("v", "SELECT 1"); err != nil {
		t.Fatal(err)
	}
	if err := sm.AddView("V", "SELECT 2"); err == nil {
		t.Error("duplicate view should fail")
	}
	sql, ok := sm.GetView("V")
	if !ok || sql != "SELECT 1" {
		t.Errorf("GetView = (%q, %v)", sql, ok)
	}
	if err := sm.DropView("v"); err != nil {
		t.Error(err)
	}
	if err := sm.DropView("v"); err == nil {
		t.Error("double view drop should fail")
	}
}

func TestLoadCSV(t *testing.T) {
	sm := NewStorageManager()
	var sealed []*Chunk
	sm.SetSealer(func(c *Chunk) { sealed = append(sealed, c) })
	data := "1,2.5,alpha\n2,,beta\n3,7.25,gamma\n"
	table, err := sm.LoadCSV("csvtab", testDefs(), strings.NewReader(data), ',', 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if table.RowCount() != 3 {
		t.Fatalf("RowCount = %d", table.RowCount())
	}
	if v := table.GetValue(1, types.RowID{Chunk: 0, Offset: 1}); !v.IsNull() {
		t.Error("empty nullable field should be NULL")
	}
	if v := table.GetValue(2, types.RowID{Chunk: 1, Offset: 0}); v.S != "gamma" {
		t.Errorf("cell = %v", v)
	}
	if !table.GetChunk(1).IsImmutable() {
		t.Error("LoadCSV should finalize the last chunk")
	}
	if len(sealed) != 2 || sealed[0] != table.GetChunk(0) || sealed[1] != table.GetChunk(1) {
		t.Errorf("LoadCSV sealed %d chunks, want both, the tail included", len(sealed))
	}
	// Bad rows fail.
	if _, err := sm.LoadCSV("bad", testDefs(), strings.NewReader("x,y\n"), ',', 2, false); err == nil {
		t.Error("short row should fail")
	}
	if _, err := sm.LoadCSV("bad2", testDefs(), strings.NewReader("oops,1.0,z\n"), ',', 2, false); err == nil {
		t.Error("unparsable int should fail")
	}
	if sm.HasTable("bad") || sm.HasTable("bad2") {
		t.Error("a failed load stays registered")
	}
}

// TestSealedSnapshotWaitsForSeal: a snapshot of a chunk whose seal is under
// way captures it as the seal leaves it. It used to capture the chunk already
// immutable but with columns the Sealer had not replaced yet, and a restore of
// that snapshot never sealed them.
func TestSealedSnapshotWaitsForSeal(t *testing.T) {
	sm := NewStorageManager()
	started, release := make(chan struct{}), make(chan struct{})
	encoded := ValueSegmentFromSlice([]int64{1, 2}, nil) // what the Sealer puts in place
	sm.SetSealer(func(c *Chunk) {
		close(started)
		<-release
		c.ReplaceSegment(0, encoded)
	})
	table := NewTable("t", []ColumnDefinition{{Name: "v", Type: types.TypeInt64}}, 2, false)
	if err := sm.AddTable(table); err != nil {
		t.Fatal(err)
	}
	if _, err := table.AppendRow([]types.Value{types.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if _, rows, immutable := table.GetChunk(0).SealedSnapshot(); rows != 1 || immutable {
		t.Fatalf("half-full chunk captured with %d rows, immutable %v", rows, immutable)
	}
	filled := make(chan error, 1)
	go func() {
		_, err := table.AppendRow([]types.Value{types.Int(2)})
		filled <- err
	}()
	<-started
	time.AfterFunc(10*time.Millisecond, func() { close(release) })
	segs, rows, immutable := table.GetChunk(0).SealedSnapshot()
	if segs[0] != Segment(encoded) || rows != 2 || !immutable {
		t.Errorf("snapshot during the seal: %T, %d rows, immutable %v; want the sealed segment", segs[0], rows, immutable)
	}
	if err := <-filled; err != nil {
		t.Fatal(err)
	}
}

// Property: appending any sequence of int64 values and reading them back via
// RowIDs preserves order and content, regardless of chunk size.
func TestTableAppendReadbackProperty(t *testing.T) {
	f := func(vals []int64, chunkSizeSeed uint8) bool {
		chunkSize := int(chunkSizeSeed)%7 + 1
		table := NewTable("p", []ColumnDefinition{{Name: "v", Type: types.TypeInt64}}, chunkSize, false)
		rids := make([]types.RowID, len(vals))
		for i, v := range vals {
			rid, err := table.AppendRow([]types.Value{types.Int(v)})
			if err != nil {
				return false
			}
			rids[i] = rid
		}
		for i, v := range vals {
			if got := table.GetValue(0, rids[i]); got.I != v {
				return false
			}
		}
		return table.RowCount() == len(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	table := NewTable("c", []ColumnDefinition{{Name: "v", Type: types.TypeInt64}}, 16, true)
	const workers, per = 8, 200
	done := make(chan bool)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < per; i++ {
				if _, err := table.AppendRow([]types.Value{types.Int(int64(w*per + i))}); err != nil {
					t.Error(err)
				}
			}
			done <- true
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if table.RowCount() != workers*per {
		t.Fatalf("RowCount = %d, want %d", table.RowCount(), workers*per)
	}
	// Every value 0..workers*per-1 must be present exactly once.
	seen := make(map[int64]int)
	for ci := 0; ci < table.ChunkCount(); ci++ {
		c := table.GetChunk(types.ChunkID(ci))
		for o := 0; o < c.Size(); o++ {
			seen[c.GetSegment(0).ValueAt(types.ChunkOffset(o)).I]++
		}
	}
	for i := 0; i < workers*per; i++ {
		if seen[int64(i)] != 1 {
			t.Fatalf("value %d seen %d times", i, seen[int64(i)])
		}
	}
}

// TestDiffRestoreRowAtFillsPlaceholdersUnderReaders replays rows in descending
// offset order — the first call pads every lower offset with a placeholder,
// every later call overwrites one — while readers scan the segment views they
// were handed without a lock. Under -race this fails if an overwrite ever
// lands in memory a reader can see; afterwards every row must hold its
// values, across the sealed first chunk and the mutable second one.
func TestDiffRestoreRowAtFillsPlaceholdersUnderReaders(t *testing.T) {
	const chunkSize, rows = 32, 48
	table := NewTable("r", testDefs(), chunkSize, true)
	rowOf := func(i int) []types.Value {
		price := types.Value(types.Float(float64(i) / 4))
		if i%5 == 0 {
			price = types.NullValue
		}
		return []types.Value{types.Int(int64(i)), price, types.Str(strings.Repeat("x", i%7+1))}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, c := range table.Chunks() {
					for col := 0; col < c.ColumnCount(); col++ {
						seg := c.GetSegment(types.ColumnID(col))
						for o := 0; o < seg.Len(); o++ {
							_ = seg.ValueAt(types.ChunkOffset(o))
						}
					}
				}
			}
		}()
	}
	for i := rows - 1; i >= 0; i-- {
		rid := types.RowID{Chunk: types.ChunkID(i / chunkSize), Offset: types.ChunkOffset(i % chunkSize)}
		existed, err := table.RestoreRowAt(rid, rowOf(i))
		if err != nil {
			t.Fatalf("RestoreRowAt(%v): %v", rid, err)
		}
		if want := i != rows-1; existed != want {
			// Only the first call appends; it pads all of chunk 0 on the way.
			t.Fatalf("RestoreRowAt(%v): existed = %v, want %v", rid, existed, want)
		}
		mvcc := table.GetChunk(rid.Chunk).MvccData()
		mvcc.SetBegin(rid.Offset, 1)
		mvcc.SetEnd(rid.Offset, types.MaxCommitID)
	}
	close(stop)
	wg.Wait()

	if !table.GetChunk(0).IsImmutable() || table.GetChunk(1).IsImmutable() {
		t.Fatal("chunk 0 must be sealed and chunk 1 still mutable")
	}
	for i := 0; i < rows; i++ {
		rid := types.RowID{Chunk: types.ChunkID(i / chunkSize), Offset: types.ChunkOffset(i % chunkSize)}
		got, want := table.RowAsValues(rid), rowOf(i)
		for col := range want {
			if got[col] != want[col] {
				t.Fatalf("row %d column %d = %v, want %v", i, col, got[col], want[col])
			}
		}
		// A stamped row is real: replaying its frame again must not touch it.
		if existed, err := table.RestoreRowAt(rid, rowOf(i+1)); err != nil || !existed {
			t.Fatalf("re-apply at %v: existed = %v, err = %v", rid, existed, err)
		}
		if got := table.RowAsValues(rid)[0]; got != want[0] {
			t.Fatalf("re-apply at %v overwrote a restored row: id = %v", rid, got)
		}
	}
}
