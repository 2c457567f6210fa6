package storage

import (
	"reflect"
	"testing"

	"hyrise/internal/types"
)

func positionsTable(t *testing.T) *Table {
	t.Helper()
	table := NewTable("base", testDefs(), 4, false)
	for i := 0; i < 10; i++ {
		if _, err := table.AppendRow([]types.Value{types.Int(int64(i)), types.Float(0), types.Str("s")}); err != nil {
			t.Fatal(err)
		}
	}
	return table
}

func rid(c, o int) types.RowID {
	return types.RowID{Chunk: types.ChunkID(c), Offset: types.ChunkOffset(o)}
}

// TestPositionsSplit pins the three shapes of a split: one chunk's offsets as
// given, chunk-wise blocks without slots, scattered rows with them; NULL rows
// are listed aside in every one.
func TestPositionsSplit(t *testing.T) {
	table := positionsTable(t)
	offsets := []types.ChunkOffset{3, 1}
	cases := []struct {
		name  string
		pos   *Positions
		runs  []PosRun
		nulls []int32
	}{
		{"scanned", ChunkPositions(table, 1, offsets), []PosRun{{Chunk: 1, Offsets: offsets}}, nil},
		{"blocks", NewPositions(table, types.PosList{rid(2, 1), rid(2, 0), types.NullRowID, rid(0, 3)}),
			[]PosRun{{Chunk: 0, Offsets: []types.ChunkOffset{3}, Start: 3}, {Chunk: 2, Offsets: []types.ChunkOffset{1, 0}}}, []int32{2}},
		{"scattered", NewPositions(table, types.PosList{rid(1, 2), rid(0, 0), types.NullRowID, rid(1, 0)}),
			[]PosRun{{Chunk: 0, Offsets: []types.ChunkOffset{0}, Slots: []int32{1}}, {Chunk: 1, Offsets: []types.ChunkOffset{2, 0}, Slots: []int32{0, 3}}}, []int32{2}},
		{"split by a NULL", NewPositions(table, types.PosList{rid(1, 2), types.NullRowID, rid(1, 0)}),
			[]PosRun{{Chunk: 1, Offsets: []types.ChunkOffset{2, 0}, Slots: []int32{0, 2}}}, []int32{1}},
		{"empty", NewPositions(table, nil), nil, nil},
	}
	for _, tc := range cases {
		runs, nulls := tc.pos.Split()
		if !reflect.DeepEqual(runs, tc.runs) || !reflect.DeepEqual(nulls, tc.nulls) {
			t.Errorf("%s: split = %+v, nulls %v; want %+v, nulls %v", tc.name, runs, nulls, tc.runs, tc.nulls)
		}
	}
	if got, want := ChunkPositions(table, 1, offsets).Rows(), (types.PosList{rid(1, 3), rid(1, 1)}); !reflect.DeepEqual(got, want) {
		t.Errorf("rows of a scanned list = %v, want %v", got, want)
	}
	if got := Select(NewPositions(table, types.PosList{rid(2, 1), rid(0, 0)}), []int32{1, -1, 0, 1}).Rows(); !reflect.DeepEqual(got,
		types.PosList{rid(0, 0), types.NullRowID, rid(2, 1), rid(0, 0)}) {
		t.Errorf("Select = %v", got)
	}
}

// TestReferenceTableGroups: outputs selected from a reference table share one
// composed list per list of the input and point at the storing table; what
// NewReferenceTable checks once per table panics when a chunk breaks it.
func TestReferenceTableGroups(t *testing.T) {
	table := positionsTable(t)
	scan := NewReferenceTable(table.ColumnDefinitions(), []*Chunk{
		NewChunk(table.SelectChunk(0, []types.ChunkOffset{1, 3}), nil),
		NewChunk(table.SelectChunk(2, []types.ChunkOffset{0}), nil),
	})
	segs := scan.AllRows().Select([]int32{2, -1, 0})
	first := segs[0].(*ReferenceSegment)
	for col, seg := range segs {
		ref := seg.(*ReferenceSegment)
		if ref.Positions() != first.Positions() || ref.Positions().Table() != table || ref.ReferencedColumn() != types.ColumnID(col) {
			t.Fatalf("column %d: positions %p into %q column %d", col, ref.Positions(), ref.Positions().Table().Name(), ref.ReferencedColumn())
		}
	}
	if got, want := first.Positions().Rows(), (types.PosList{rid(2, 0), types.NullRowID, rid(0, 1)}); !reflect.DeepEqual(got, want) {
		t.Errorf("composed rows = %v, want %v", got, want)
	}
	var total int64
	for _, seg := range segs {
		total += seg.MemoryUsage()
	}
	if total != 3*8 {
		t.Errorf("three segments over one 3-row list report %d bytes, want the list once (24)", total)
	}
	chunks := scan.Chunks()
	if n := testing.AllocsPerRun(100, func() { groupColumns(3, chunks) }); n != 2 {
		t.Errorf("columns over one list: grouping them allocates %.0f times, want 2 (the group, one array of column ids)", n)
	}
	left, right := ChunkPositions(table, 0, []types.ChunkOffset{0}), ChunkPositions(table, 0, []types.ChunkOffset{1})
	selfJoin := []*Chunk{NewChunk([]Segment{NewReferenceSegment(left, 0), NewReferenceSegment(right, 2), NewReferenceSegment(left, 1)}, nil)}
	want := []posGroup{{table, []types.ColumnID{0, 2}, []types.ColumnID{0, 1}}, {table, []types.ColumnID{1}, []types.ColumnID{2}}}
	if got := groupColumns(3, selfJoin); !reflect.DeepEqual(got, want) {
		t.Errorf("columns over two lists into one table grouped as %v, want %v", got, want)
	}

	mustPanic := func(name string, build func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: NewReferenceTable accepted it", name)
			}
		}()
		build()
	}
	mustPanic("a reference to a reference column", func() {
		pos := NewPositions(scan, types.PosList{rid(0, 0)})
		NewReferenceTable(scan.ColumnDefinitions()[:1], []*Chunk{NewChunk([]Segment{NewReferenceSegment(pos, 0)}, nil)})
	})
	mustPanic("a column that changes its stored column between chunks", func() {
		one := func(col types.ColumnID) *Chunk {
			return NewChunk([]Segment{NewReferenceSegment(ChunkPositions(table, 0, []types.ChunkOffset{0}), col)}, nil)
		}
		NewReferenceTable(table.ColumnDefinitions()[:1], []*Chunk{one(0), one(1)})
	})
	mustPanic("columns of one group that stop sharing their list", func() {
		shared := ChunkPositions(table, 0, []types.ChunkOffset{0})
		a := NewChunk([]Segment{NewReferenceSegment(shared, 0), NewReferenceSegment(shared, 1)}, nil)
		b := NewChunk([]Segment{NewReferenceSegment(ChunkPositions(table, 1, []types.ChunkOffset{0}), 0),
			NewReferenceSegment(ChunkPositions(table, 1, []types.ChunkOffset{0}), 1)}, nil)
		NewReferenceTable(table.ColumnDefinitions()[:2], []*Chunk{a, b})
	})
}
