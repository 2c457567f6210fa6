package encoding

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// --- vector compression --------------------------------------------------

func TestFixedWidthVectorPicksWidth(t *testing.T) {
	cases := []struct {
		max  uint64
		want string
	}{
		{0xFF, "*encoding.FixedWidthVector[uint8]"},
		{0x100, "*encoding.FixedWidthVector[uint16]"},
		{0x10000, "*encoding.FixedWidthVector[uint32]"},
		{1 << 40, "*encoding.FixedWidthVector[uint64]"},
	}
	for _, tc := range cases {
		v := NewFixedWidthVector([]uint64{0, 1, tc.max})
		if got := reflect.TypeOf(v).String(); got != tc.want {
			t.Errorf("max %d: got %s, want %s", tc.max, got, tc.want)
		}
		if v.Get(2) != tc.max {
			t.Errorf("max %d: Get(2) = %d", tc.max, v.Get(2))
		}
	}
}

func TestVectorRoundTripProperty(t *testing.T) {
	for _, vt := range []VectorCompressionType{FixedSizeByteAligned, BitPacked128} {
		f := func(codes []uint64) bool {
			v := CompressUints(codes, vt)
			if v.Len() != len(codes) {
				return false
			}
			decoded := v.DecodeAll(nil)
			for i, c := range codes {
				if decoded[i] != c || v.Get(i) != c {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%v: %v", vt, err)
		}
	}
}

func TestBP128LargeBlockBoundaries(t *testing.T) {
	// Values straddling several blocks with very different magnitudes per
	// block, exercising per-block widths and cross-word packing.
	n := bp128BlockSize*3 + 17
	codes := make([]uint64, n)
	for i := range codes {
		switch i / bp128BlockSize {
		case 0:
			codes[i] = uint64(i % 2)
		case 1:
			codes[i] = uint64(i) * 12345
		default:
			codes[i] = 1<<63 + uint64(i)
		}
	}
	v := NewBP128Vector(codes)
	for i, c := range codes {
		if v.Get(i) != c {
			t.Fatalf("Get(%d) = %d, want %d", i, v.Get(i), c)
		}
	}
	decoded := v.DecodeAll(nil)
	for i, c := range codes {
		if decoded[i] != c {
			t.Fatalf("DecodeAll[%d] = %d, want %d", i, decoded[i], c)
		}
	}
}

func TestBP128CompressesSmallValues(t *testing.T) {
	codes := make([]uint64, 10_000)
	for i := range codes {
		codes[i] = uint64(i % 8) // 3 bits
	}
	bp := NewBP128Vector(codes)
	fw := NewFixedWidthVector(codes)
	if bp.MemoryUsage() >= fw.MemoryUsage() {
		t.Errorf("BP128 (%d bytes) should beat FSBA (%d bytes) on 3-bit values", bp.MemoryUsage(), fw.MemoryUsage())
	}
}

func TestVectorCompressionNames(t *testing.T) {
	if FixedSizeByteAligned.String() != "FSBA" || BitPacked128.String() != "SIMD-BP128" {
		t.Error("compression names wrong")
	}
	if VectorCompressionType(9).String() != "?" {
		t.Error("unknown compression name wrong")
	}
}

// --- dictionary -----------------------------------------------------------

func TestDictionarySegmentBasics(t *testing.T) {
	vals := []string{"banana", "apple", "cherry", "apple", "banana"}
	s := EncodeDictionary(vals, nil, FixedSizeByteAligned)
	if s.UniqueValueCount() != 3 {
		t.Fatalf("UniqueValueCount = %d", s.UniqueValueCount())
	}
	// Order-preserving dictionary.
	if sum := Summarize[string](s); !reflect.DeepEqual(sum.Values, []string{"apple", "banana", "cherry"}) {
		t.Fatalf("dictionary = %v", sum.Values)
	}
	if decoded, nulls := s.DecodeAll(); !reflect.DeepEqual(decoded, vals) || nulls != nil {
		t.Fatalf("DecodeAll = %v, %v", decoded, nulls)
	}
	for i, want := range vals {
		if got, null := s.Get(types.ChunkOffset(i)); null || got != want {
			t.Errorf("Get(%d) = (%q, %v)", i, got, null)
		}
	}
	if s.LowerBound("banana") != 1 || s.UpperBound("banana") != 2 {
		t.Error("Lower/UpperBound wrong")
	}
	if s.LowerBound("aaa") != 0 || s.LowerBound("zzz") != 3 {
		t.Error("bounds at extremes wrong")
	}
	if s.strs.blob != "applebananacherry" || !reflect.DeepEqual(s.strs.ends.DecodeAll(nil), []uint64{5, 11, 17}) || s.dict != nil || s.nullID != 3 {
		t.Errorf("packed dictionary %+v, numeric %v, null id %d", s.strs, s.dict, s.nullID)
	}
}

func TestDictionarySegmentNulls(t *testing.T) {
	vals := []int64{5, 0, 7}
	nulls := []bool{false, true, false}
	s := EncodeDictionary(vals, nulls, FixedSizeByteAligned)
	if s.UniqueValueCount() != 2 {
		t.Fatalf("UniqueValueCount = %d, NULL must not enter dictionary", s.UniqueValueCount())
	}
	if !s.IsNullAt(1) || s.IsNullAt(0) {
		t.Error("null flags wrong")
	}
	if !s.ValueAt(1).IsNull() {
		t.Error("ValueAt(1) should be NULL")
	}
	decoded, decNulls := s.DecodeAll()
	if decoded[0] != 5 || decoded[2] != 7 || decNulls == nil || !decNulls[1] {
		t.Errorf("DecodeAll = %v, %v", decoded, decNulls)
	}
}

// TestStringDictionaryReadsAllocateNothing: a value of a string dictionary is
// a substring of its blob, so no read path allocates per value — not the
// single reads, not the bound searches, not a gather into the caller's slices.
func TestStringDictionaryReadsAllocateNothing(t *testing.T) {
	const n = 1000
	values := generate(n, func(i int) string { return fmt.Sprintf("value-%03d", i*7%300) })
	pos := make([]types.ChunkOffset, n)
	for i := range pos {
		pos[i] = types.ChunkOffset(n - 1 - i)
	}
	out, nulls := make([]string, n), make([]bool, n)
	var sink types.Value
	for _, comp := range []VectorCompressionType{FixedSizeByteAligned, BitPacked128} {
		seg := EncodeDictionary(values, nullsEvery(n, 9), comp)
		for name, read := range map[string]func(){
			"Get": func() {
				for _, p := range pos {
					sink.S, _ = seg.Get(p)
				}
			},
			"ValueAt": func() {
				for _, p := range pos {
					sink = seg.ValueAt(p)
				}
			},
			"LowerBound/UpperBound": func() {
				for _, v := range values {
					sink.I = int64(seg.LowerBound(v) + seg.UpperBound(v))
				}
			},
			"Gather": func() { seg.Gather(pos, nil, out, nulls) },
		} {
			if allocs := testing.AllocsPerRun(10, read); allocs != 0 {
				t.Errorf("%s, %s: %v allocations per %d values", name, comp, allocs, n)
			}
		}
	}
}

func TestDictionaryMatches(t *testing.T) {
	vals := []int64{10, 20, 30, 20, 10, 40}
	s := EncodeDictionary(vals, nil, FixedSizeByteAligned)
	// value-id range for "value >= 20 && value < 40" is ids [1,3)
	got := s.Matches(s.LowerBound(20), s.LowerBound(40), nil)
	want := []types.ChunkOffset{1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Matches = %v, want %v", got, want)
	}
	if got := s.Matches(3, 3, nil); len(got) != 0 {
		t.Error("empty range should match nothing")
	}
}

func TestDictionaryMatchesBP128(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i % 10)
	}
	s := EncodeDictionary(vals, nil, BitPacked128)
	got := s.Matches(s.LowerBound(3), s.UpperBound(3), nil)
	if len(got) != 100 {
		t.Errorf("Matches len = %d, want 100", len(got))
	}
	for _, p := range got {
		if vals[p] != 3 {
			t.Fatalf("offset %d has value %d", p, vals[p])
		}
	}
}

// --- run length -----------------------------------------------------------

func TestRunLengthSegment(t *testing.T) {
	vals := []int64{1, 1, 1, 2, 2, 3, 1, 1}
	s := EncodeRunLength(vals, nil)
	if len(s.values) != 4 {
		t.Fatalf("RunCount = %d, want 4", len(s.values))
	}
	for i, want := range vals {
		if got, null := s.Get(types.ChunkOffset(i)); null || got != want {
			t.Errorf("Get(%d) = (%d, %v), want %d", i, got, null, want)
		}
	}
	decoded, nulls := s.DecodeAll()
	if !reflect.DeepEqual(decoded, vals) || nulls != nil {
		t.Errorf("DecodeAll = %v, %v", decoded, nulls)
	}
	// Runs visited in order with correct extents.
	var runs [][3]int64
	s.ForEachRun(func(first, last types.ChunkOffset, v int64, null bool) {
		runs = append(runs, [3]int64{int64(first), int64(last), v})
	})
	want := [][3]int64{{0, 2, 1}, {3, 4, 2}, {5, 5, 3}, {6, 7, 1}}
	if !reflect.DeepEqual(runs, want) {
		t.Errorf("ForEachRun = %v, want %v", runs, want)
	}
}

func TestRunLengthNullRuns(t *testing.T) {
	vals := []string{"a", "a", "", "", "b"}
	nulls := []bool{false, false, true, true, false}
	s := EncodeRunLength(vals, nulls)
	if len(s.values) != 3 {
		t.Fatalf("RunCount = %d, want 3", len(s.values))
	}
	if !s.IsNullAt(2) || !s.IsNullAt(3) || s.IsNullAt(4) {
		t.Error("null flags wrong")
	}
	// A null run and a value run with equal zero values must stay separate.
	vals2 := []int64{0, 0}
	nulls2 := []bool{true, false}
	s2 := EncodeRunLength(vals2, nulls2)
	if len(s2.values) != 2 {
		t.Errorf("null/non-null runs merged: RunCount = %d", len(s2.values))
	}
	if EncodeRunLength([]int64{}, nil).Len() != 0 {
		t.Error("empty segment mishandled")
	}
}

// --- frame of reference ----------------------------------------------------

func TestFrameOfReference(t *testing.T) {
	vals := make([]int64, forBlockSize+100)
	for i := range vals {
		vals[i] = 1_000_000 + int64(i%50)
	}
	s := EncodeFrameOfReference(vals, nil, FixedSizeByteAligned)
	for i, want := range vals {
		if got, null := s.Get(types.ChunkOffset(i)); null || got != want {
			t.Fatalf("Get(%d) = (%d, %v), want %d", i, got, null, want)
		}
	}
	// Small offsets from a large base should compress to one byte each.
	if s.MemoryUsage() > int64(len(vals))*2 {
		t.Errorf("FOR should compress clustered values, got %d bytes for %d values", s.MemoryUsage(), len(vals))
	}
	if len(s.frames) != 2 {
		t.Errorf("Frames = %d, want 2 blocks", len(s.frames))
	}
}

func TestFrameOfReferenceNegativeAndNulls(t *testing.T) {
	vals := []int64{-100, -50, 0, 42}
	nulls := []bool{false, true, false, false}
	s := EncodeFrameOfReference(vals, nulls, BitPacked128)
	if got, null := s.Get(0); null || got != -100 {
		t.Errorf("Get(0) = (%d, %v)", got, null)
	}
	if _, null := s.Get(1); !null {
		t.Error("Get(1) should be NULL")
	}
	if !s.ValueAt(1).IsNull() || s.ValueAt(3).I != 42 {
		t.Error("dynamic path wrong")
	}
	decoded, decNulls := s.DecodeAll()
	if decoded[0] != -100 || decoded[3] != 42 || !decNulls[1] {
		t.Errorf("DecodeAll = %v, %v", decoded, decNulls)
	}
}

// --- encoder orchestration --------------------------------------------------

func TestSealAllSpecs(t *testing.T) {
	specs := []Spec{
		{Dictionary, FixedSizeByteAligned},
		{Dictionary, BitPacked128},
		{RunLength, FixedSizeByteAligned},
		{FrameOfReference, FixedSizeByteAligned},
		{FrameOfReference, BitPacked128},
	}
	vals := []int64{5, 5, 9, 1, 1, 1, 7}
	nulls := []bool{false, false, true, false, false, false, false}
	vs := storage.ValueSegmentFromSlice(vals, nulls)
	for _, spec := range specs {
		enc, _ := Seal(vs, false, &spec)
		for i := range vals {
			got := enc.ValueAt(types.ChunkOffset(i))
			if nulls[i] {
				if !got.IsNull() {
					t.Errorf("%v: row %d should be NULL", spec, i)
				}
			} else if got.I != vals[i] {
				t.Errorf("%v: row %d = %v, want %d", spec, i, got, vals[i])
			}
		}
	}
}

func TestSealFORFallbackForStrings(t *testing.T) {
	vs := storage.ValueSegmentFromSlice([]string{"x", "y"}, nil)
	enc, _ := Seal(vs, false, &Spec{FrameOfReference, FixedSizeByteAligned})
	if _, ok := enc.(*DictionarySegment[string]); !ok {
		t.Errorf("FOR on strings should fall back to dictionary, got %T", enc)
	}
}

func TestEncodeTable(t *testing.T) {
	defs := []storage.ColumnDefinition{
		{Name: "a", Type: types.TypeInt64},
		{Name: "b", Type: types.TypeString},
	}
	table := storage.NewTable("t", defs, 4, false)
	for i := 0; i < 10; i++ {
		_, err := table.AppendRow([]types.Value{types.Int(int64(i % 3)), types.Str("v")})
		if err != nil {
			t.Fatal(err)
		}
	}
	perCol := map[types.ColumnID]Spec{1: {RunLength, FixedSizeByteAligned}}
	if err := EncodeTable(table, &Spec{Dictionary, FixedSizeByteAligned}, perCol); err != nil {
		t.Fatal(err)
	}
	c0 := table.GetChunk(0)
	if _, ok := c0.GetSegment(0).(*DictionarySegment[int64]); !ok {
		t.Errorf("column a should be dictionary, got %T", c0.GetSegment(0))
	}
	if _, ok := c0.GetSegment(1).(*RunLengthSegment[string]); !ok {
		t.Errorf("column b should be run-length, got %T", c0.GetSegment(1))
	}
	// Data still reads back correctly.
	for i := 0; i < 10; i++ {
		rid := types.RowID{Chunk: types.ChunkID(i / 4), Offset: types.ChunkOffset(i % 4)}
		if got := table.GetValue(0, rid); got.I != int64(i%3) {
			t.Errorf("row %d = %v", i, got)
		}
	}
	// The tail (rows 8 and 9) was sealed first, then encoded with the rest.
	if tail := table.GetChunk(2); !tail.IsImmutable() {
		t.Error("the tail is still mutable")
	} else if _, ok := tail.GetSegment(0).(*DictionarySegment[int64]); !ok {
		t.Errorf("tail column a should be dictionary, got %T", tail.GetSegment(0))
	}
}

func TestParseEncodingType(t *testing.T) {
	for name, want := range map[string]EncodingType{
		"Dictionary": Dictionary, "dict": Dictionary,
		"rle": RunLength, "for": FrameOfReference, "none": Unencoded,
	} {
		got, err := ParseEncodingType(name)
		if err != nil || got != want {
			t.Errorf("ParseEncodingType(%q) = (%v, %v)", name, got, err)
		}
	}
	if _, err := ParseEncodingType("bogus"); err == nil {
		t.Error("bogus encoding should fail")
	}
}

func TestSpecString(t *testing.T) {
	if got := (Spec{Dictionary, FixedSizeByteAligned}).String(); got != "Dictionary (FSBA)" {
		t.Errorf("Spec.String = %q", got)
	}
	if got := (Spec{RunLength, BitPacked128}).String(); got != "RunLength" {
		t.Errorf("Spec.String = %q", got)
	}
	if got := (Spec{FrameOfReference, BitPacked128}).String(); got != "FrameOfReference (SIMD-BP128)" {
		t.Errorf("Spec.String = %q", got)
	}
}

// --- materialization paths ---------------------------------------------------

func allSpecsInt() []Spec {
	return []Spec{
		{Unencoded, FixedSizeByteAligned},
		{Dictionary, FixedSizeByteAligned},
		{Dictionary, BitPacked128},
		{RunLength, FixedSizeByteAligned},
		{FrameOfReference, FixedSizeByteAligned},
		{FrameOfReference, BitPacked128},
	}
}

func TestMaterializeAgreesAcrossEncodings(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 5000
	vals := make([]int64, n)
	nulls := make([]bool, n)
	for i := range vals {
		vals[i] = rng.Int63n(1000)
		nulls[i] = rng.Intn(20) == 0
	}
	pos := make([]types.ChunkOffset, 0, n/4)
	for i := 0; i < n; i += 4 {
		pos = append(pos, types.ChunkOffset(rng.Intn(n)))
	}
	vs := storage.ValueSegmentFromSlice(vals, nulls)
	for _, spec := range allSpecsInt() {
		seg, _ := Seal(vs, false, &spec)
		full, fullNulls := Materialize[int64](seg)
		for i := range vals {
			if nulls[i] {
				if fullNulls == nil || !fullNulls[i] {
					t.Fatalf("%v: full null flag lost at %d", spec, i)
				}
			} else if full[i] != vals[i] {
				t.Fatalf("%v: full[%d] = %d, want %d", spec, i, full[i], vals[i])
			}
		}
		got, gotNulls := MaterializePositions[int64](seg, pos)
		dyn, dynNulls := MaterializeDynamic[int64](seg, pos)
		for i, p := range pos {
			if nulls[p] {
				if !gotNulls[i] || !dynNulls[i] {
					t.Fatalf("%v: positional null flag lost at %d", spec, i)
				}
			} else if got[i] != vals[p] || dyn[i] != vals[p] {
				t.Fatalf("%v: positional[%d] = %d/%d, want %d", spec, i, got[i], dyn[i], vals[p])
			}
		}
	}
}

func TestMaterializeReferenceSegment(t *testing.T) {
	defs := []storage.ColumnDefinition{{Name: "v", Type: types.TypeInt64}}
	table := storage.NewTable("base", defs, 3, false)
	for i := 0; i < 9; i++ {
		_, _ = table.AppendRow([]types.Value{types.Int(int64(i * 11))})
	}
	if err := EncodeTable(table, &Spec{Dictionary, FixedSizeByteAligned}, nil); err != nil {
		t.Fatal(err)
	}
	pos := types.PosList{
		{Chunk: 2, Offset: 0}, // 66
		{Chunk: 0, Offset: 2}, // 22
		types.NullRowID,
		{Chunk: 1, Offset: 1}, // 44
	}
	ref := storage.NewReferenceSegment(storage.NewPositions(table, pos), 0)
	vals, nulls := Materialize[int64](ref)
	wantVals := []int64{66, 22, 0, 44}
	wantNulls := []bool{false, false, true, false}
	for i := range wantVals {
		if nulls[i] != wantNulls[i] || (!nulls[i] && vals[i] != wantVals[i]) {
			t.Errorf("ref[%d] = (%d, %v), want (%d, %v)", i, vals[i], nulls[i], wantVals[i], wantNulls[i])
		}
	}
	sub, subNulls := MaterializePositions[int64](ref, []types.ChunkOffset{3, 2})
	if sub[0] != 44 || !subNulls[1] {
		t.Errorf("positional ref gather = %v, %v", sub, subNulls)
	}
}

// Property: encode → materialize round trip for every encoding spec.
func TestEncodingRoundTripProperty(t *testing.T) {
	for _, spec := range allSpecsInt() {
		spec := spec
		f := func(vals []int64, nullSeed []bool) bool {
			nulls := make([]bool, len(vals))
			for i := range nulls {
				if i < len(nullSeed) {
					nulls[i] = nullSeed[i]
				}
			}
			vs := storage.ValueSegmentFromSlice(vals, nulls)
			seg, _ := Seal(vs, false, &spec)
			if seg.Len() != len(vals) {
				return false
			}
			got, gotNulls := Materialize[int64](seg)
			for i := range vals {
				if nulls[i] {
					if gotNulls == nil || !gotNulls[i] {
						return false
					}
				} else if got[i] != vals[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%v: %v", spec, err)
		}
	}
}

func TestStringEncodingRoundTripProperty(t *testing.T) {
	for _, spec := range []Spec{{Dictionary, FixedSizeByteAligned}, {Dictionary, BitPacked128}, {RunLength, FixedSizeByteAligned}} {
		spec := spec
		f := func(vals []string) bool {
			vs := storage.ValueSegmentFromSlice(vals, nil)
			seg, _ := Seal(vs, false, &spec)
			got, _ := Materialize[string](seg)
			for i := range vals {
				if got[i] != vals[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%v: %v", spec, err)
		}
	}
}
