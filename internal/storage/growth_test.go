package storage

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"hyrise/internal/types"
)

// TestMutableChunkBytesFollowRows: a mutable chunk costs the rows it holds, not
// its capacity: at every row count its arrays hold room for at most two thirds
// more rows plus 256, and a nullable column carries no NULL flags until its
// first NULL. A full chunk's value segment holds its rows without slack —
// beyond the 65 536 rows that used to be reserved up front too.
func TestMutableChunkBytesFollowRows(t *testing.T) {
	defs := append(testDefs(), ColumnDefinition{Name: "qty", Type: types.TypeInt64})
	small := NewTable("warehouse", defs, 25_000, true)
	for i := 0; i < 2; i++ {
		if _, err := small.AppendRow([]types.Value{types.Int(int64(i)), types.Float(0.5), types.Str("wh"), types.Int(7)}); err != nil {
			t.Fatal(err)
		}
	}
	if data, _ := small.MemoryUsage(); data >= 2048 {
		t.Errorf("a 2-row chunk of 4 columns uses %d bytes of segment data, want < 2 KiB", data)
	}

	// An INT and a nullable FLOAT: 16 B a row, plus a flag byte from the first
	// NULL on.
	const capacity, firstNull = 10_000, 7_000
	tail := NewTable("tail", []ColumnDefinition{
		{Name: "id", Type: types.TypeInt64}, {Name: "v", Type: types.TypeFloat64, Nullable: true},
	}, capacity, false)
	for n := 1; n <= capacity; n++ {
		v := types.Float(float64(n))
		if n > firstNull && n%2 == 1 {
			v = types.NullValue
		}
		if _, err := tail.AppendRow([]types.Value{types.Int(int64(n)), v}); err != nil {
			t.Fatal(err)
		}
		rowBytes := int64(16)
		if n > firstNull {
			rowBytes = 17
		}
		data, _ := tail.MemoryUsage()
		if bound := rowBytes * int64(n+2*n/3+256); data > bound {
			t.Fatalf("%d rows hold %d bytes of segment data, want <= %d (rows + two thirds + 256 rows)", n, data, bound)
		}
		if flags := tail.GetChunk(0).segments[1].(*ValueSegment[float64]).nulls; (flags != nil) != (n > firstNull) {
			t.Fatalf("%d rows, first NULL at row %d: NULL flags present = %v", n, firstNull+1, flags != nil)
		}
		if n == capacity && data != rowBytes*capacity {
			t.Errorf("full chunk holds %d bytes of segment data, want %d (its rows exactly)", data, rowBytes*capacity)
		}
	}

	const rows = 100_000
	big := NewTable("kv", testDefs(), rows, false)
	for i := 0; i < rows; i++ {
		price := types.Float(float64(i))
		if i%10 == 0 {
			price = types.NullValue
		}
		if _, err := big.AppendRow([]types.Value{types.Int(int64(i)), price, types.Str("")}); err != nil {
			t.Fatal(err)
		}
	}
	c := big.GetChunk(0)
	if !c.IsImmutable() || big.ChunkCount() != 1 {
		t.Fatalf("%d rows into %d-row chunks: %d chunks, first immutable=%v", rows, rows, big.ChunkCount(), c.IsImmutable())
	}
	if got := c.GetSegment(1).MemoryUsage(); got != rows*(8+1) {
		t.Errorf("full chunk's nullable float column uses %d bytes, want %d (8 B a row plus its null flag)", got, rows*(8+1))
	}
}

// TestTailGrowthAllocatesWhatItHolds: every growth of a tail's arrays
// allocates the capacity the segment then reports, no more, so MemoryUsage,
// meta_segments and data_mb count what the heap holds. The last growth of a
// 10 000-row chunk, 9 125 to 10 000 rows, is a clamp to the chunk size below
// what append would pick; an extension through append there takes 11 598.
func TestTailGrowthAllocatesWhatItHolds(t *testing.T) {
	const capacity = 10_000
	seg := NewValueSegment[int64](capacity, false)
	var before, after runtime.MemStats
	for i := 0; i < capacity; i++ {
		grows := len(seg.values) == cap(seg.values)
		if grows {
			runtime.ReadMemStats(&before)
		}
		seg.Append(int64(i), false)
		if !grows {
			continue
		}
		runtime.ReadMemStats(&after)
		// The heap rounds an object up to its size class (at most an eighth)
		// or, past 32 KiB, to whole 8 KiB pages.
		held := uint64(cap(seg.values)) * 8
		if got := after.TotalAlloc - before.TotalAlloc; got > held+max(held/8, 8192) {
			t.Errorf("growing to %d rows allocated %d bytes for %d bytes of values", cap(seg.values), got, held)
		}
	}
	if cap(seg.values) != capacity {
		t.Errorf("full segment holds %d values, want %d", cap(seg.values), capacity)
	}
}

// TestDiffMutableGrowthReaders: readers take views of a mutable chunk while one
// appender crosses every growth of its arrays up to the chunk size, and the
// first NULL that gives the nullable column its flags; every view, concurrent
// or kept across later growth, holds exactly the prefix of rows that was
// appended when it was taken.
func TestDiffMutableGrowthReaders(t *testing.T) {
	const capacity = 5000  // doublings from 16 up to 256, two thirds more from there, then the clamp at 5000
	const firstNull = 1000 // inside an array of 1183 rows: the flags come between two growths
	table := NewTable("g", testDefs(), capacity, true)
	row := func(i int) []types.Value {
		price := types.Float(float64(i) / 2)
		if i >= firstNull && i%3 == 1 {
			price = types.NullValue
		}
		return []types.Value{types.Int(int64(i)), price, types.Str(fmt.Sprint("r", i))}
	}
	checkColumn := func(what string, col int, seg Segment, n int) error {
		if seg.Len() != n {
			return fmt.Errorf("%s: column %d holds %d rows, want %d", what, col, seg.Len(), n)
		}
		for i := 0; i < n; i++ {
			if got, want := seg.ValueAt(types.ChunkOffset(i)), row(i)[col]; types.Order(got, want) != 0 {
				return fmt.Errorf("%s: column %d row %d = %v, want %v", what, col, i, got, want)
			}
		}
		return nil
	}
	check := func(what string, segs []Segment, n int) error {
		for col, seg := range segs {
			if err := checkColumn(what, col, seg, n); err != nil {
				return err
			}
		}
		return nil
	}

	if _, err := table.AppendRow(row(0)); err != nil {
		t.Fatal(err)
	}
	c := table.GetChunk(0)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				segs, n := c.SnapshotSegments()
				if err := check("SnapshotSegments", segs, n); err != nil {
					t.Error(err)
					return
				}
				for col := range segs {
					seg := c.GetSegment(types.ColumnID(col))
					if err := checkColumn("GetSegment", col, seg, seg.Len()); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}

	type kept struct {
		segs []Segment
		n    int
	}
	var views []kept
	var growths []int // the row counts whose next append reallocated the arrays
	prices := c.segments[1].(*ValueSegment[float64])
	for i := 1; i < capacity; i++ {
		// Only this goroutine appends, so it reads the stored arrays' capacity
		// without the chunk lock.
		n, room := c.Size(), cap(prices.values)
		if grows := n == room; grows || n == room-1 || len(growths) > 0 && n == growths[len(growths)-1]+1 ||
			n == firstNull || n == firstNull+1 || n == capacity-1 {
			if grows {
				growths = append(growths, n)
			}
			segs, n := c.SnapshotSegments()
			views = append(views, kept{segs, n})
		}
		if _, err := table.AppendRow(row(i)); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	if want := []int{16, 32, 64, 128, 256, 426, 710, 1183, 1971, 3285}; fmt.Sprint(growths) != fmt.Sprint(want) {
		t.Errorf("the arrays grew at %v rows, want %v", growths, want)
	}
	for _, v := range views {
		if err := check(fmt.Sprintf("view of %d rows kept across growth", v.n), v.segs, v.n); err != nil {
			t.Fatal(err)
		}
		if flags := v.segs[1].(*ValueSegment[float64]).Nulls(); (flags != nil) != (v.n > firstNull) {
			t.Errorf("view of %d rows, first NULL at row %d: NULL flags present = %v", v.n, firstNull, flags != nil)
		}
	}
	segs, n := c.SnapshotSegments()
	if err := check("full chunk", segs, n); err != nil || n != capacity {
		t.Fatalf("%v (%d rows)", err, n)
	}
	if vs := segs[1].(*ValueSegment[float64]); cap(vs.Values()) != capacity || cap(vs.Nulls()) != capacity {
		t.Errorf("full chunk's arrays hold %d values and %d null flags, want %d", cap(vs.Values()), cap(vs.Nulls()), capacity)
	}
}

// TestCrashReplayedNullGetsFlags: log replay that overwrites a placeholder
// with a NULL in a column that has no NULL flags yet gives the column its
// flags — in place while no reader holds a view, in the fresh copy otherwise,
// where the view taken before keeps reading the placeholder.
func TestCrashReplayedNullGetsFlags(t *testing.T) {
	defs := append(testDefs(), ColumnDefinition{Name: "note", Type: types.TypeString, Nullable: true})
	table := NewTable("r", defs, 64, true)
	row := func(i int, price, note types.Value) []types.Value {
		return []types.Value{types.Int(int64(i)), price, types.Str("n"), note}
	}
	// Row 3 arrives first: rows 0 to 2 become placeholders, no column holds a NULL.
	if _, err := table.RestoreRowAt(types.RowID{Offset: 3}, row(3, types.Float(3), types.Str("x"))); err != nil {
		t.Fatal(err)
	}
	c := table.GetChunk(0)
	nullsOf := func(col int) []bool {
		switch s := c.segments[col].(type) {
		case *ValueSegment[float64]:
			return s.nulls
		case *StringSegment:
			return s.nulls
		}
		return nil
	}
	if nullsOf(1) != nil || nullsOf(3) != nil {
		t.Fatal("placeholders gave a nullable column NULL flags")
	}
	unviewed := c.segments[1]
	if _, err := table.RestoreRowAt(types.RowID{Offset: 1}, row(1, types.NullValue, types.Str("y"))); err != nil {
		t.Fatal(err)
	}
	if c.segments[1] != unviewed || nullsOf(1) == nil {
		t.Fatal("the NULL that replaced an unviewed placeholder was not written in place, with new flags")
	}
	view := c.GetSegment(3)
	if _, err := table.RestoreRowAt(types.RowID{Offset: 2}, row(2, types.Float(2), types.NullValue)); err != nil {
		t.Fatal(err)
	}
	if view.IsNullAt(2) || nullsOf(3) == nil {
		t.Fatal("the NULL that replaced a viewed placeholder went into the view's arrays, or gave the column no flags")
	}
	want := [][2]types.Value{{types.Float(0), types.Str("")}, {types.NullValue, types.Str("y")}, {types.Float(2), types.NullValue}, {types.Float(3), types.Str("x")}}
	for off, w := range want {
		got := table.RowAsValues(types.RowID{Offset: types.ChunkOffset(off)})
		if types.Order(got[1], w[0]) != 0 || types.Order(got[3], w[1]) != 0 {
			t.Errorf("row %d reads price %v, note %v; want %v, %v", off, got[1], got[3], w[0], w[1])
		}
	}
}
