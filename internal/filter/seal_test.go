package filter

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"hyrise/internal/encoding"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// sealPools are the awkward values the seal differentials draw from: int64
// extremes, ±0, NaN, ±Inf, the empty string, embedded NUL, NULL — per column,
// so that some columns can ascend (no NULL, no NaN) and take the seal's sorted
// shortcut.
var sealPools = []struct {
	def  storage.ColumnDefinition
	pool []types.Value
}{
	{storage.ColumnDefinition{Name: "i", Type: types.TypeInt64, Nullable: true},
		[]types.Value{types.Int(math.MinInt64), types.Int(math.MaxInt64), types.Int(0), types.Int(-1), types.Int(17), types.NullValue}},
	{storage.ColumnDefinition{Name: "k", Type: types.TypeInt64},
		[]types.Value{types.Int(math.MinInt64), types.Int(math.MaxInt64), types.Int(0), types.Int(-1), types.Int(1 << 40)}},
	{storage.ColumnDefinition{Name: "f", Type: types.TypeFloat64, Nullable: true},
		[]types.Value{types.Float(0), types.Float(math.Copysign(0, -1)), types.Float(math.NaN()), types.Float(math.Inf(1)), types.Float(math.Inf(-1)), types.Float(2.5), types.NullValue}},
	{storage.ColumnDefinition{Name: "g", Type: types.TypeFloat64},
		[]types.Value{types.Float(0), types.Float(math.Copysign(0, -1)), types.Float(math.Inf(1)), types.Float(math.Inf(-1)), types.Float(-7.25)}},
	{storage.ColumnDefinition{Name: "s", Type: types.TypeString, Nullable: true},
		[]types.Value{types.Str(""), types.Str("a\x00b"), types.Str("\x00"), types.Str("tag03"), types.Str("tag11"), types.NullValue}},
	{storage.ColumnDefinition{Name: "n", Type: types.TypeInt64, Nullable: true}, []types.Value{types.NullValue}},
}

// sealTable fills an unregistered table of two chunks, the second one short,
// from the pools: shuffled, or every column sorted on its own (NULL and NaN
// last), and makes the tail immutable as a loader does.
func sealTable(t *testing.T, rng *rand.Rand, ascending bool) *storage.Table {
	t.Helper()
	const rows, chunk = 3000, 2500 // the first chunk spans two frame-of-reference blocks
	defs := make([]storage.ColumnDefinition, len(sealPools))
	cols := make([][]types.Value, len(sealPools))
	for c, p := range sealPools {
		defs[c] = p.def
		for r := 0; r < rows; r++ {
			cols[c] = append(cols[c], p.pool[rng.Intn(len(p.pool))])
		}
		if ascending {
			for lo := 0; lo < rows; lo += chunk {
				slices.SortStableFunc(cols[c][lo:min(lo+chunk, rows)], compareLast)
			}
		}
	}
	table := storage.NewTable("t", defs, chunk, false)
	row := make([]types.Value, len(defs))
	for r := 0; r < rows; r++ {
		for c := range cols {
			row[c] = cols[c][r]
		}
		if _, err := table.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	table.SealTail()
	return table
}

// compareLast orders NULL and NaN after every other value.
func compareLast(a, b types.Value) int {
	rank := func(v types.Value) int {
		switch {
		case v.IsNull():
			return 2
		case v.Type == types.TypeFloat64 && math.IsNaN(v.F):
			return 1
		}
		return 0
	}
	if ra, rb := rank(a), rank(b); ra != 0 || rb != 0 {
		return cmp.Compare(ra, rb)
	}
	c, _ := types.Compare(a, b)
	return c
}

// encodeAs is a loader's old two passes' first half: the spec's encoder over
// the column's rows. Unencoded is the rows alone, without a tail's room to grow.
func encodeAs[T types.Ordered](seg storage.Segment, spec encoding.Spec) storage.Segment {
	values, nulls := encoding.Materialize[T](seg)
	floats, isFloat := any(values).([]float64)
	switch ints, ok := any(values).([]int64); {
	case spec.Encoding == encoding.Unencoded && !isFloat && !ok:
		return storage.StringSegmentOf(any(values).([]string), nulls)
	case spec.Encoding == encoding.Unencoded:
		if nulls != nil {
			nulls = append(make([]bool, 0, len(nulls)), nulls...)
		}
		return storage.ValueSegmentFromSlice(append(make([]T, 0, len(values)), values...), nulls)
	case spec.Encoding == encoding.RunLength:
		return encoding.EncodeRunLength(values, nulls)
	case spec.Encoding == encoding.FrameOfReference && ok:
		return encoding.EncodeFrameOfReference(ints, nulls, spec.Compression)
	case spec.Encoding == encoding.FrameOfReference && isFloat:
		if d, exact := encoding.EncodeDecimal(floats, nulls, spec.Compression); exact {
			return d
		}
	}
	return encoding.EncodeDictionary(values, nulls, spec.Compression)
}

// sameValue is value identity down to the bits of a float: -0 is not +0, and
// a NaN is the NaN it was.
func sameValue(a, b types.Value) bool {
	return a.Type == b.Type && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// TestDiffSpecSealIsTheEncoder: a loader's seal — Seal with one of Fig. 7's
// specs — builds exactly the segment that spec's encoder builds and the bins
// AttachDefaultFilters then derives from it: the same bytes, the same rows, the
// same zone, over the awkward pools, ascending and shuffled.
func TestDiffSpecSealIsTheEncoder(t *testing.T) {
	specs := []encoding.Spec{
		{Encoding: encoding.Unencoded},
		{Encoding: encoding.FrameOfReference, Compression: encoding.FixedSizeByteAligned},
		{Encoding: encoding.FrameOfReference, Compression: encoding.BitPacked128},
		{Encoding: encoding.RunLength},
		{Encoding: encoding.Dictionary, Compression: encoding.FixedSizeByteAligned},
		{Encoding: encoding.Dictionary, Compression: encoding.BitPacked128},
	}
	for _, ascending := range []bool{false, true} {
		for _, spec := range specs {
			name := fmt.Sprintf("%s/ascending=%v", spec, ascending)
			sealed := sealTable(t, rand.New(rand.NewSource(31)), ascending)
			encoded := sealTable(t, rand.New(rand.NewSource(31)), ascending)
			for ci, c := range sealed.Chunks() {
				Seal(c, &spec)
				e := encoded.GetChunk(types.ChunkID(ci))
				for col := range sealPools {
					id := types.ColumnID(col)
					switch seg := e.GetSegment(id); seg.DataType() {
					case types.TypeInt64:
						e.ReplaceSegment(id, encodeAs[int64](seg, spec))
					case types.TypeFloat64:
						e.ReplaceSegment(id, encodeAs[float64](seg, spec))
					default:
						e.ReplaceSegment(id, encodeAs[string](seg, spec))
					}
				}
			}
			if err := AttachDefaultFilters(encoded); err != nil {
				t.Fatal(err)
			}
			for ci, c := range sealed.Chunks() {
				e := encoded.GetChunk(types.ChunkID(ci))
				for col, p := range sealPools {
					id := types.ColumnID(col)
					got, want := c.GetSegment(id), e.GetSegment(id)
					gotSpec, _ := encoding.SpecOf(got)
					wantSpec, _ := encoding.SpecOf(want)
					if gotSpec != wantSpec || got.MemoryUsage() != want.MemoryUsage() {
						t.Errorf("%s: chunk %d column %s sealed as %s in %d bytes, the encoder builds %s in %d", name, ci, p.def.Name, gotSpec, got.MemoryUsage(), wantSpec, want.MemoryUsage())
					}
					for r := 0; r < got.Len(); r++ {
						if g, w := got.ValueAt(types.ChunkOffset(r)), want.ValueAt(types.ChunkOffset(r)); !sameValue(g, w) {
							t.Fatalf("%s: chunk %d column %s row %d = %#v, the encoder's %#v", name, ci, p.def.Name, r, g, w)
						}
					}
					g, _ := c.Zone(id)
					w, _ := e.Zone(id)
					if !reflect.DeepEqual(g, w) {
						t.Errorf("%s: chunk %d column %s zone %+v, after the encoder %+v", name, ci, p.def.Name, g, w)
					}
				}
			}
		}
	}
}

// TestSealedChunkKeepsNoTailBlob: a chunk a Loader filled and the Sealer
// sealed keeps none of the loader's blobs alive — no zone bound, dictionary
// value or run value is a substring of them — so after a collection the heap
// holds about what the table reports, not the 20 MB of string entries the
// load wrote.
func TestSealedChunkKeepsNoTailBlob(t *testing.T) {
	sm := storage.NewStorageManager()
	sm.SetSealer(func(c *storage.Chunk) { Seal(c, nil) })
	table := storage.NewTable("t", []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64},
		{Name: "few", Type: types.TypeString, Nullable: true}, // four values: a dictionary
		{Name: "one", Type: types.TypeString},                 // one value: a run
	}, 10_000, false)
	if err := sm.AddTable(table); err != nil {
		t.Fatal(err)
	}
	few := make([]string, 4)
	for i := range few {
		few[i] = fmt.Sprintf("%d%0999d", i, 0)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	l := storage.NewLoader(table, 10_000)
	for i := range 10_000 {
		l.Int(int64(i))
		if i%9 == 4 {
			l.Null()
		} else {
			l.Str(few[i%4])
		}
		l.Str(few[3])
		l.EndRow()
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if c := table.GetChunk(0); table.ChunkCount() != 1 || !c.IsImmutable() {
		t.Fatalf("%d chunks, want one sealed chunk", table.ChunkCount())
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	data, meta := table.MemoryUsage()
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > data+meta+2<<20 {
		t.Errorf("the heap grew by %d bytes over the load, the table holds %d: a tail blob stayed reachable", grown, data+meta)
	}
	runtime.KeepAlive(table)
}
