package storage

import (
	"math"
	"math/rand"
	"testing"

	"hyrise/internal/types"
)

// rowZone is the spec of a zone, read row by row through the dynamic path:
// bounds over the comparable values, the run ends at the first NULL, NaN or
// descent.
func rowZone(seg Segment) Zone {
	var z Zone
	run := true
	var prev types.Value
	for i := 0; i < seg.Len(); i++ {
		v := seg.ValueAt(types.ChunkOffset(i))
		if v.IsNull() || (v.Type == types.TypeFloat64 && math.IsNaN(v.F)) {
			run = false
			continue
		}
		if c, _ := types.Compare(v, prev); run && i > 0 && c < 0 {
			run = false
		}
		if run {
			z.Ascending = i + 1
		}
		prev = v
		if c, _ := types.Compare(v, z.Min); z.Min.IsNull() || c < 0 {
			z.Min = v
		}
		if c, _ := types.Compare(v, z.Max); z.Max.IsNull() || c > 0 {
			z.Max = v
		}
	}
	return z
}

func sameZone(a, b Zone) bool {
	same := func(x, y types.Value) bool {
		c, ok := types.Compare(x, y)
		return x.Type == y.Type && (x.IsNull() || (ok && c == 0)) // -0 and +0 are one bound
	}
	return a.Ascending == b.Ascending && same(a.Min, b.Min) && same(a.Max, b.Max)
}

func zoneOfColumn(t *testing.T, c *Chunk, col int) Zone {
	t.Helper()
	z, ok := c.Zone(types.ColumnID(col))
	if !ok {
		t.Fatalf("column %d of a stored chunk has no zone", col)
	}
	return z
}

// TestDiffZoneWrittenWithRows: after every append the zone of each column is the
// one a pass over the rows finds — on the mutable tail, across the seal, with
// NULLs, NaN, ±0 and ±Inf in the column — and the segment view handed out
// with it is exactly as long as the rows it covers.
func TestDiffZoneWrittenWithRows(t *testing.T) {
	defs := []ColumnDefinition{
		{Name: "i", Type: types.TypeInt64},
		{Name: "f", Type: types.TypeFloat64, Nullable: true},
		{Name: "s", Type: types.TypeString, Nullable: true},
		{Name: "up", Type: types.TypeInt64},
	}
	floats := []float64{math.Inf(-1), -1.5, math.Copysign(0, -1), 0, 2.5, math.Inf(1), math.NaN()}
	rng := rand.New(rand.NewSource(4))
	table := NewTable("z", defs, 50, false)
	for i := 0; i < 120; i++ {
		row := []types.Value{
			types.Int(rng.Int63n(40) - 20),
			types.Float(floats[rng.Intn(len(floats))]),
			types.Str(string(rune('a' + rng.Intn(6)))),
			types.Int(int64(i / 3)),
		}
		// The first chunk's f and s start with an ascending stretch.
		if i < 5 {
			row[1], row[2] = types.Float(float64(i)), types.Str(string(rune('a'+i)))
		}
		if rng.Intn(9) == 0 && i >= 5 {
			row[1] = types.NullValue
		}
		if rng.Intn(7) == 0 && i >= 5 {
			row[2] = types.NullValue
		}
		if _, err := table.AppendRow(row); err != nil {
			t.Fatal(err)
		}
		for ci, c := range table.Chunks() {
			for col := range defs {
				seg, got := c.SegmentWithZone(types.ColumnID(col))
				if want := rowZone(seg); !sameZone(got, want) {
					t.Fatalf("after row %d, chunk %d column %s: zone %+v, rows say %+v", i, ci, defs[col].Name, got, want)
				}
			}
		}
	}
	last := table.GetChunk(2)
	if z := zoneOfColumn(t, last, 3); z.Ascending != last.Size() || z.Min.I != 100/3 || z.Max.I != 119/3 {
		t.Errorf("ascending column of the tail: zone %+v, want the whole chunk, 33..39", z)
	}
	if z := zoneOfColumn(t, table.GetChunk(0), 1); z.Ascending < 5 || z.Ascending == 50 {
		t.Errorf("f of chunk 0 ascends over %d rows, want the leading stretch only", z.Ascending)
	}
	if _, meta := table.GetChunk(0).MemoryUsage(); meta < 128+4*80 {
		t.Errorf("chunk metadata = %d bytes, does not count four zones", meta)
	}
}

// TestDiffZoneExcludes is the prune rule: an interval is excluded when it lies
// wholly outside the bounds or, for numeric operands, in a gap between the
// bins, a column without a comparable value excludes every interval, and
// operands the bounds cannot be compared with exclude nothing.
func TestDiffZoneExcludes(t *testing.T) {
	v := func(i int64) *types.Value { x := types.Int(i); return &x }
	z := Zone{Min: types.Int(2), Max: types.Int(9)}
	for _, tc := range []struct {
		name   string
		lo, hi *types.Value
		want   bool
	}{
		{"below", v(-5), v(1), true},
		{"above", v(10), v(20), true},
		{"open above max", v(10), nil, true},
		{"open below min", nil, v(1), true},
		{"touches max", v(9), nil, false},
		{"touches min", nil, v(2), false},
		{"inside", v(3), v(3), false},
		{"unbounded", nil, nil, false},
	} {
		if got := z.Excludes(tc.lo, tc.hi); got != tc.want {
			t.Errorf("%s: Excludes = %v, want %v", tc.name, got, tc.want)
		}
	}
	half, text := types.Float(1.5), types.Str("x")
	if !z.Excludes(nil, &half) || z.Excludes(&half, nil) {
		t.Error("a FLOAT operand must compare with INT bounds numerically")
	}
	if z.Excludes(&text, &text) {
		t.Error("an operand of another kind excludes nothing")
	}
	if !(Zone{}).Excludes(nil, nil) || !(Zone{}).Excludes(v(0), v(0)) {
		t.Error("a column without a comparable value matches no interval")
	}
	z.Bins = [][2]float64{{2, 3}, {8, 9}}
	four, seven := types.Float(4), types.Float(7.5)
	if !z.Excludes(v(4), v(7)) || !z.Excludes(&four, &seven) || z.Excludes(v(3), v(8)) || z.Excludes(nil, v(2)) {
		t.Error("the gap between the bins prunes wrongly")
	}
	if z.Excludes(&text, nil) || z.Excludes(nil, nil) {
		t.Error("the bins exclude an unbounded or non-numeric interval")
	}
	s := Zone{Min: types.Str("bravo"), Max: types.Str("delta")}
	alpha, charlie := types.Str("alpha"), types.Str("charlie")
	if !s.Excludes(&alpha, &alpha) || s.Excludes(&charlie, &charlie) {
		t.Error("string bounds prune wrongly")
	}
}

// TestDiffZoneSurvivesOverwriteAndReencode: RestoreRowAt filling a placeholder
// inside a full chunk widens the bounds to the new value and ends the run
// before the row; the chunk seals with its last placeholder, not before;
// swapping a segment for another representation of the same values touches
// nothing; a chunk built outside a table carries no zone until
// a data table takes it in, and then the one its rows imply.
func TestDiffZoneSurvivesOverwriteAndReencode(t *testing.T) {
	defs := []ColumnDefinition{{Name: "id", Type: types.TypeInt64}, {Name: "s", Type: types.TypeString}}
	table := NewTable("r", defs, 4, true)
	row := func(i int64) []types.Value { return []types.Value{types.Int(i), types.Str(string(rune('a' + i)))} }
	// Commit order 3, 5 (opens chunk 1: chunk 0 is full, placeholders at 0-2), 1.
	for _, r := range []struct {
		at types.RowID
		id int64
	}{{types.RowID{Chunk: 0, Offset: 3}, 13}, {types.RowID{Chunk: 1, Offset: 1}, 15}} {
		if _, err := table.RestoreRowAt(r.at, row(r.id)); err != nil {
			t.Fatal(err)
		}
	}
	sealed := table.GetChunk(0)
	if sealed.IsImmutable() {
		t.Fatal("chunk 0 sealed while it holds placeholders")
	}
	if z := zoneOfColumn(t, sealed, 0); z.Min.I != 0 || z.Max.I != 13 || z.Ascending != 4 {
		t.Fatalf("zone before the overwrite = %+v, want 0..13 ascending over the placeholders", z)
	}
	if existed, err := table.RestoreRowAt(types.RowID{Chunk: 0, Offset: 1}, row(25)); err != nil || !existed {
		t.Fatalf("overwrite: existed=%v err=%v", existed, err)
	}
	seg, z := sealed.SegmentWithZone(0)
	if z.Max.I != 25 || z.Min.I != 0 || z.Ascending != 1 {
		t.Errorf("zone after the overwrite = %+v, want 0..25 with the run cut back to row 1", z)
	}
	if got := seg.ValueAt(1); got.I != 25 {
		t.Errorf("row 1 = %v, want 25", got)
	}
	if zs := zoneOfColumn(t, sealed, 1); zs.Max.S != "z" {
		t.Errorf("string zone after the overwrite = %+v, want max z", zs)
	}

	for _, off := range []types.ChunkOffset{0, 2} {
		if sealed.IsImmutable() {
			t.Fatalf("chunk 0 sealed before offset %d was filled", off)
		}
		if _, err := table.RestoreRowAt(types.RowID{Chunk: 0, Offset: off}, row(0)); err != nil {
			t.Fatal(err)
		}
		sealed.MvccData().SetBegin(off, 1) // the replayed commit's stamp
	}
	if !sealed.IsImmutable() {
		t.Fatal("chunk 0 did not seal with its last placeholder")
	}
	if _, err := table.RestoreRowAt(types.RowID{Chunk: 0, Offset: 2}, row(9)); err != nil || sealed.GetSegment(0).ValueAt(2).I != 0 {
		t.Fatalf("a row that is there for real must be left alone: err=%v", err)
	}
	_, z = sealed.SegmentWithZone(0)
	sealed.ReplaceSegment(0, ValueSegmentFromSlice([]int64{0, 25, 0, 13}, nil))
	if after := zoneOfColumn(t, sealed, 0); !sameZone(after, z) {
		t.Errorf("ReplaceSegment changed the zone: %+v, was %+v", after, z)
	}

	loose := NewChunk([]Segment{ValueSegmentFromSlice([]int64{4, 6, 5}, nil), StringSegmentOf([]string{"x", "y", "z"}, nil)}, nil)
	if _, ok := loose.Zone(0); ok {
		t.Error("a chunk outside any table carries a zone")
	}
	NewReferenceTable(defs, nil).AppendChunk(loose)
	if _, ok := loose.Zone(0); ok {
		t.Error("a reference table gave its chunk a zone")
	}
	installed := NewTable("i", defs, 4, false)
	installed.AppendChunk(loose)
	if z := zoneOfColumn(t, loose, 0); z.Min.I != 4 || z.Max.I != 6 || z.Ascending != 2 {
		t.Errorf("installed chunk: zone %+v, want 4..6 ascending over 2 rows", z)
	}
	if z := zoneOfColumn(t, loose, 1); z.Ascending != 3 {
		t.Errorf("installed chunk: string column ascends over %d rows, want 3", z.Ascending)
	}
}
