package index

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"hyrise/internal/encoding"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// linearEquals is the oracle: brute-force scan for equality.
func linearEquals(seg storage.Segment, v types.Value) []types.ChunkOffset {
	var out []types.ChunkOffset
	for i := 0; i < seg.Len(); i++ {
		cell := seg.ValueAt(types.ChunkOffset(i))
		if cell.Equal(v) {
			out = append(out, types.ChunkOffset(i))
		}
	}
	return out
}

// linearRange is the oracle for inclusive range scans.
func linearRange(seg storage.Segment, lo, hi *types.Value) []types.ChunkOffset {
	var out []types.ChunkOffset
	for i := 0; i < seg.Len(); i++ {
		cell := seg.ValueAt(types.ChunkOffset(i))
		if cell.IsNull() {
			continue
		}
		if lo != nil {
			if c, ok := types.Compare(cell, *lo); !ok || c < 0 {
				continue
			}
		}
		if hi != nil {
			if c, ok := types.Compare(cell, *hi); !ok || c > 0 {
				continue
			}
		}
		out = append(out, types.ChunkOffset(i))
	}
	return out
}

func sorted(xs []types.ChunkOffset) []types.ChunkOffset {
	out := make([]types.ChunkOffset, len(xs))
	copy(out, xs)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalOffsets(a, b []types.ChunkOffset) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func intSegment(vals []int64, nulls []bool) storage.Segment {
	return storage.ValueSegmentFromSlice(vals, nulls)
}

// structures are the two indexes build chooses between by the segment it is
// handed: a B+tree over the values as they are, a group-key index over their
// dictionary.
var structures = []struct {
	name    string
	segment func(storage.Segment) storage.Segment
}{
	{"BTree", func(seg storage.Segment) storage.Segment { return seg }},
	{"GroupKey", func(seg storage.Segment) storage.Segment { return encodeAs(seg, encoding.Dictionary) }},
}

func TestAllIndexesEqualsAndRangeInt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, 2000)
	nulls := make([]bool, 2000)
	for i := range vals {
		vals[i] = rng.Int63n(100) - 50
		nulls[i] = rng.Intn(25) == 0
	}
	base := intSegment(vals, nulls)
	for _, st := range structures {
		it, seg := st.name, st.segment(base)
		idx, err := build(seg, 3)
		if err != nil {
			t.Fatalf("%v: %v", it, err)
		}
		if idx.ColumnID() != 3 {
			t.Errorf("%v: ColumnID = %d", it, idx.ColumnID())
		}
		if idx.IndexType() != it {
			t.Errorf("%v: IndexType = %s", it, idx.IndexType())
		}
		if idx.MemoryUsage() <= 0 {
			t.Errorf("%v: MemoryUsage = %d", it, idx.MemoryUsage())
		}
		for probe := int64(-55); probe <= 55; probe += 7 {
			v := types.Int(probe)
			got := sorted(idx.Equals(v))
			want := linearEquals(seg, v)
			if !equalOffsets(got, want) {
				t.Fatalf("%v: Equals(%d) = %v, want %v", it, probe, got, want)
			}
		}
		for trial := 0; trial < 30; trial++ {
			lo := types.Int(rng.Int63n(120) - 60)
			hi := types.Int(lo.I + rng.Int63n(40))
			got := sorted(idx.Range(&lo, &hi))
			want := linearRange(seg, &lo, &hi)
			if !equalOffsets(got, want) {
				t.Fatalf("%v: Range(%d,%d) = %d offsets, want %d", it, lo.I, hi.I, len(got), len(want))
			}
		}
		// Open bounds.
		lo := types.Int(0)
		if got, want := sorted(idx.Range(&lo, nil)), linearRange(seg, &lo, nil); !equalOffsets(got, want) {
			t.Fatalf("%v: Range(0, nil) mismatch", it)
		}
		if got, want := sorted(idx.Range(nil, &lo)), linearRange(seg, nil, &lo); !equalOffsets(got, want) {
			t.Fatalf("%v: Range(nil, 0) mismatch", it)
		}
		if got, want := sorted(idx.Range(nil, nil)), linearRange(seg, nil, nil); !equalOffsets(got, want) {
			t.Fatalf("%v: full Range mismatch", it)
		}
	}
}

func TestAllIndexesStrings(t *testing.T) {
	words := []string{"delta", "alpha", "echo", "bravo", "alpha", "charlie", "bravo", "alpha", ""}
	base := storage.ValueSegmentFromSlice(words, nil)
	for _, st := range structures {
		it, seg := st.name, st.segment(base)
		idx, err := build(seg, 0)
		if err != nil {
			t.Fatalf("%v: %v", it, err)
		}
		for _, w := range append(words, "zulu", "a") {
			v := types.Str(w)
			got := sorted(idx.Equals(v))
			want := linearEquals(seg, v)
			if !equalOffsets(got, want) {
				t.Fatalf("%v: Equals(%q) = %v, want %v", it, w, got, want)
			}
		}
		lo, hi := types.Str("alpha"), types.Str("charlie")
		got := sorted(idx.Range(&lo, &hi))
		want := linearRange(seg, &lo, &hi)
		if !equalOffsets(got, want) {
			t.Fatalf("%v: string range = %v, want %v", it, got, want)
		}
	}
}

// TestARTPathCompressionSplit keeps the radix tree's name for the strings
// that split its compressed paths: long shared prefixes, one word a prefix of
// another, duplicates. Both remaining structures must tell them apart.
func TestARTPathCompressionSplit(t *testing.T) {
	words := []string{"abcdefgh", "abcdefgz", "abcdxxxx", "abzzzzzz", "abcdefgh", "abcd"}
	base := storage.ValueSegmentFromSlice(words, nil)
	for _, st := range structures {
		it, seg := st.name, st.segment(base)
		idx, err := build(seg, 0)
		if err != nil {
			t.Fatalf("%v: %v", it, err)
		}
		if got := idx.Equals(types.Str("abcdefgh")); len(got) != 2 {
			t.Errorf("%v: Equals(abcdefgh) = %v, want 2 postings", it, got)
		}
		for _, w := range append(words, "abc", "abcdefg", "abcdefghi") {
			v := types.Str(w)
			if got, want := sorted(idx.Equals(v)), linearEquals(seg, v); !equalOffsets(got, want) {
				t.Fatalf("%v: Equals(%q) = %v, want %v", it, w, got, want)
			}
		}
		for _, r := range [][2]string{{"abcd", "abce"}, {"abcdefgh", "abcdefgh"}} {
			lo, hi := types.Str(r[0]), types.Str(r[1])
			if got, want := sorted(idx.Range(&lo, &hi)), linearRange(seg, &lo, &hi); !equalOffsets(got, want) {
				t.Fatalf("%v: prefix range %q = %v, want %v", it, r, got, want)
			}
		}
	}
}

func TestAllIndexesFloats(t *testing.T) {
	vals := []float64{1.5, -2.25, 0, 3.75, -2.25, 100.125, 0}
	base := storage.ValueSegmentFromSlice(vals, nil)
	for _, st := range structures {
		it, seg := st.name, st.segment(base)
		idx, err := build(seg, 0)
		if err != nil {
			t.Fatalf("%v: %v", it, err)
		}
		for _, f := range []float64{-2.25, 0, 1.5, 99} {
			v := types.Float(f)
			if got, want := sorted(idx.Equals(v)), linearEquals(seg, v); !equalOffsets(got, want) {
				t.Fatalf("%v: Equals(%v) = %v, want %v", it, f, got, want)
			}
		}
		lo, hi := types.Float(-3), types.Float(2)
		if got, want := sorted(idx.Range(&lo, &hi)), linearRange(seg, &lo, &hi); !equalOffsets(got, want) {
			t.Fatalf("%v: float range mismatch", it)
		}
	}
}

func TestIndexProbeMismatchesReturnNil(t *testing.T) {
	base := intSegment([]int64{1, 2, 3}, nil)
	for _, st := range structures {
		it := st.name
		idx, err := build(st.segment(base), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := idx.Equals(types.Str("nope")); got != nil {
			t.Errorf("%v: string probe on int index = %v", it, got)
		}
		if got := idx.Equals(types.NullValue); got != nil {
			t.Errorf("%v: NULL probe = %v", it, got)
		}
		if nan := types.Float(math.NaN()); idx.Equals(nan) != nil || idx.Range(nil, &nan) != nil {
			t.Errorf("%v: a NaN probe matched rows", it)
		}
		bad := types.Str("x")
		if got := idx.Range(&bad, nil); got != nil {
			t.Errorf("%v: bad range probe = %v", it, got)
		}
	}
}

// TestGroupKeyRequiresDictionary: the segment decides the structure — a
// group-key index on a dictionary segment of any type, a B+tree on any other.
func TestGroupKeyRequiresDictionary(t *testing.T) {
	for _, base := range []storage.Segment{
		intSegment([]int64{3, 1, 2}, nil),
		storage.ValueSegmentFromSlice([]float64{1.5, math.NaN(), 1.5}, nil),
		storage.ValueSegmentFromSlice([]string{"b", "a", ""}, []bool{false, false, true}),
	} {
		for _, st := range structures {
			for _, seg := range []storage.Segment{st.segment(base), encodeAs(base, encoding.RunLength), encodeAs(base, encoding.FrameOfReference)} {
				c := storage.NewChunk([]storage.Segment{seg}, nil)
				c.Finalize()
				if err := AddIndexToChunk(c, 0); err != nil {
					t.Fatalf("%T: %v", seg, err)
				}
				want := "BTree"
				if spec, _ := encoding.SpecOf(seg); spec.Encoding == encoding.Dictionary {
					want = "GroupKey"
				}
				if got := c.GetIndex(0).IndexType(); got != want {
					t.Errorf("%s over %T: built %s, want %s", base.DataType(), seg, got, want)
				}
			}
		}
	}
}

// encodeAs encodes a segment byte-aligned (FrameOfReference falls back to
// Dictionary off int64).
func encodeAs(seg storage.Segment, enc encoding.EncodingType) storage.Segment {
	out, _ := encoding.Seal(seg, false, &encoding.Spec{Encoding: enc, Compression: encoding.FixedSizeByteAligned})
	return out
}

func TestAddIndexToChunk(t *testing.T) {
	table := storage.NewTable("t", []storage.ColumnDefinition{{Name: "v", Type: types.TypeInt64}}, 4, false)
	for i := 0; i < 4; i++ {
		_, _ = table.AppendRow([]types.Value{types.Int(int64(i))})
	}
	table.SealTail()
	c := table.GetChunk(0)
	if err := AddIndexToChunk(c, 0); err != nil {
		t.Fatal(err)
	}
	if c.GetIndex(0) == nil {
		t.Error("index not attached")
	}
	// Mutable chunk refuses.
	t2 := storage.NewTable("t2", []storage.ColumnDefinition{{Name: "v", Type: types.TypeInt64}}, 4, false)
	_, _ = t2.AppendRow([]types.Value{types.Int(1)})
	if err := AddIndexToChunk(t2.GetChunk(0), 0); err == nil {
		t.Error("index on mutable chunk should fail")
	}
}

func TestBTreeHeightAndChaining(t *testing.T) {
	vals := make([]int64, 100_000)
	for i := range vals {
		vals[i] = int64(i)
	}
	idx := newBTreeIndex[int64](intSegment(vals, nil), 0)
	if idx.height < 3 {
		t.Errorf("height = %d, want >= 3 for 100k distinct keys", idx.height)
	}
	lo, hi := int64(12345), int64(12360)
	got := idx.RangeTyped(&lo, &hi)
	if len(got) != 16 {
		t.Fatalf("RangeTyped = %d results, want 16", len(got))
	}
	for i, p := range got {
		if vals[p] != lo+int64(i) {
			t.Fatalf("range result %d = offset %d (value %d)", i, p, vals[p])
		}
	}
	if got := idx.EqualsTyped(99_999); len(got) != 1 || got[0] != 99_999 {
		t.Errorf("EqualsTyped(99999) = %v", got)
	}
	if got := idx.EqualsTyped(100_000); got != nil {
		t.Errorf("EqualsTyped(out of range) = %v", got)
	}
}

func TestBTreeEmptySegment(t *testing.T) {
	idx := newBTreeIndex[int64](intSegment(nil, nil), 0)
	if got := idx.EqualsTyped(1); got != nil {
		t.Errorf("empty tree Equals = %v", got)
	}
	if got := idx.RangeTyped(nil, nil); len(got) != 0 {
		t.Errorf("empty tree Range = %v", got)
	}
}

// Property: every index agrees with the linear-scan oracle on random data.
func TestIndexOracleProperty(t *testing.T) {
	for _, st := range structures {
		it, st := st.name, st
		f := func(raw []int16, probe int16, width uint8) bool {
			vals := make([]int64, len(raw))
			for i, r := range raw {
				vals[i] = int64(r % 64) // force duplicates
			}
			seg := st.segment(intSegment(vals, nil))
			idx, err := build(seg, 0)
			if err != nil {
				return false
			}
			v := types.Int(int64(probe % 64))
			if !equalOffsets(sorted(idx.Equals(v)), linearEquals(seg, v)) {
				return false
			}
			hi := types.Int(v.I + int64(width%16))
			return equalOffsets(sorted(idx.Range(&v, &hi)), linearRange(seg, &v, &hi))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%v: %v", it, err)
		}
	}
}
