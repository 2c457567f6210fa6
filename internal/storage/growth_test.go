package storage

import (
	"fmt"
	"sync"
	"testing"

	"hyrise/internal/types"
)

// TestMutableChunkBytesFollowRows: a mutable chunk costs the rows it holds, not
// its capacity, and a full chunk's value segment holds its rows without slack —
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

// TestDiffMutableGrowthReaders: readers take views of a mutable chunk while one
// appender crosses every doubling of its arrays up to the chunk size; every
// view, concurrent or kept across later growth, holds exactly the prefix of
// rows that was appended when it was taken.
func TestDiffMutableGrowthReaders(t *testing.T) {
	const capacity = 5000 // doublings from 16 up to 4096, then the clamp at 5000
	table := NewTable("g", testDefs(), capacity, true)
	row := func(i int) []types.Value {
		price := types.Float(float64(i) / 2)
		if i%3 == 0 {
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
	for i := 1; i < capacity; i++ {
		if n := c.Size(); n&(n-1) == 0 || (n-1)&(n-2) == 0 || n == capacity-1 { // around every doubling
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
	for _, v := range views {
		if err := check(fmt.Sprintf("view of %d rows kept across growth", v.n), v.segs, v.n); err != nil {
			t.Fatal(err)
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
