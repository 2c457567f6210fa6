package index

import (
	"bytes"
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

func allIndexTypes() []Type { return []Type{ART, BTree, GroupKey} }

// segmentFor prepares a segment an index type can be built on (GroupKey
// needs dictionary encoding).
func segmentFor(t Type, seg storage.Segment) storage.Segment {
	if t != GroupKey {
		return seg
	}
	enc, _ := encoding.Seal(seg, false, &encoding.Spec{Encoding: encoding.Dictionary, Compression: encoding.FixedSizeByteAligned})
	return enc
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
	for _, it := range allIndexTypes() {
		seg := segmentFor(it, base)
		idx, err := Create(it, seg, 3)
		if err != nil {
			t.Fatalf("%v: %v", it, err)
		}
		if idx.ColumnID() != 3 {
			t.Errorf("%v: ColumnID = %d", it, idx.ColumnID())
		}
		if idx.IndexType() != it.String() {
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
	for _, it := range allIndexTypes() {
		seg := segmentFor(it, base)
		idx, err := Create(it, seg, 0)
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

func TestAllIndexesFloats(t *testing.T) {
	vals := []float64{1.5, -2.25, 0, 3.75, -2.25, 100.125, 0}
	base := storage.ValueSegmentFromSlice(vals, nil)
	for _, it := range allIndexTypes() {
		seg := segmentFor(it, base)
		idx, err := Create(it, seg, 0)
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
	for _, it := range allIndexTypes() {
		idx, err := Create(it, segmentFor(it, base), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := idx.Equals(types.Str("nope")); got != nil {
			t.Errorf("%v: string probe on int index = %v", it, got)
		}
		if got := idx.Equals(types.NullValue); got != nil {
			t.Errorf("%v: NULL probe = %v", it, got)
		}
		bad := types.Str("x")
		if got := idx.Range(&bad, nil); got != nil {
			t.Errorf("%v: bad range probe = %v", it, got)
		}
	}
}

func TestGroupKeyRequiresDictionary(t *testing.T) {
	if _, err := Create(GroupKey, intSegment([]int64{1}, nil), 0); err == nil {
		t.Error("group-key on unencoded segment should fail")
	}
}

func TestAddIndexToChunk(t *testing.T) {
	table := storage.NewTable("t", []storage.ColumnDefinition{{Name: "v", Type: types.TypeInt64}}, 4, false)
	for i := 0; i < 4; i++ {
		_, _ = table.AppendRow([]types.Value{types.Int(int64(i))})
	}
	table.FinalizeLastChunk()
	c := table.GetChunk(0)
	if err := AddIndexToChunk(BTree, c, 0); err != nil {
		t.Fatal(err)
	}
	if c.GetIndex(0) == nil {
		t.Error("index not attached")
	}
	// Mutable chunk refuses.
	t2 := storage.NewTable("t2", []storage.ColumnDefinition{{Name: "v", Type: types.TypeInt64}}, 4, false)
	_, _ = t2.AppendRow([]types.Value{types.Int(1)})
	if err := AddIndexToChunk(BTree, t2.GetChunk(0), 0); err == nil {
		t.Error("index on mutable chunk should fail")
	}
}

func TestTypeString(t *testing.T) {
	if Type(9).String() != "?" {
		t.Error("unknown Type.String wrong")
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

func TestKeyEncodingOrderProperty(t *testing.T) {
	// int64 keys: byte order must equal numeric order.
	fInt := func(a, b int64) bool {
		cmp := bytes.Compare(keyFromInt64(a), keyFromInt64(b))
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(fInt, nil); err != nil {
		t.Errorf("int64 key order: %v", err)
	}
	// float64 keys (non-NaN): byte order must equal numeric order.
	fFloat := func(a, b float64) bool {
		if a != a || b != b {
			return true // skip NaN
		}
		cmp := bytes.Compare(keyFromFloat64(a), keyFromFloat64(b))
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(fFloat, nil); err != nil {
		t.Errorf("float64 key order: %v", err)
	}
	// string keys: byte order equals string order, even with NUL bytes.
	fStr := func(a, b string) bool {
		cmp := bytes.Compare(keyFromString(a), keyFromString(b))
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(fStr, nil); err != nil {
		t.Errorf("string key order: %v", err)
	}
}

// Property: every index agrees with the linear-scan oracle on random data.
func TestIndexOracleProperty(t *testing.T) {
	for _, it := range allIndexTypes() {
		it := it
		f := func(raw []int16, probe int16, width uint8) bool {
			vals := make([]int64, len(raw))
			for i, r := range raw {
				vals[i] = int64(r % 64) // force duplicates
			}
			seg := segmentFor(it, intSegment(vals, nil))
			idx, err := Create(it, seg, 0)
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

func TestARTNodeGrowth(t *testing.T) {
	// 256 distinct leading bytes force Node4 -> 16 -> 48 -> 256 growth.
	vals := make([]int64, 256)
	for i := range vals {
		vals[i] = int64(i) << 56 // distinct first key byte
	}
	idx, err := buildART(intSegment(vals, nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := idx.root.(*artNode256); !ok {
		t.Errorf("root = %T, want *artNode256", idx.root)
	}
	for i, v := range vals {
		got := idx.Equals(types.Int(v))
		if len(got) != 1 || got[0] != types.ChunkOffset(i) {
			t.Fatalf("Equals(%d) = %v", v, got)
		}
	}
}

func TestARTPathCompressionSplit(t *testing.T) {
	// Strings sharing long prefixes exercise prefix splitting.
	words := []string{"abcdefgh", "abcdefgz", "abcdxxxx", "abzzzzzz", "abcdefgh"}
	idx, err := buildART(storage.ValueSegmentFromSlice(words, nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Equals(types.Str("abcdefgh")); len(got) != 2 {
		t.Errorf("Equals(abcdefgh) = %v, want 2 postings", got)
	}
	lo, hi := types.Str("abcd"), types.Str("abce")
	got := sorted(idx.Range(&lo, &hi))
	want := linearRange(storage.ValueSegmentFromSlice(words, nil), &lo, &hi)
	if !equalOffsets(got, want) {
		t.Errorf("prefix range = %v, want %v", got, want)
	}
}
