package encoding

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// roundTrip serializes a segment and decodes it back, asserting a clean
// parse with no trailing bytes.
func roundTrip(t *testing.T, seg storage.Segment) storage.Segment {
	t.Helper()
	buf, err := AppendSegment(nil, seg)
	if err != nil {
		t.Fatalf("AppendSegment: %v", err)
	}
	got, rest, err := DecodeSegment(buf)
	if err != nil {
		t.Fatalf("DecodeSegment: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("DecodeSegment left %d trailing bytes", len(rest))
	}
	if got.Len() != seg.Len() {
		t.Fatalf("round-trip length %d, want %d", got.Len(), seg.Len())
	}
	return got
}

// assertSameValues compares two segments cell by cell through the dynamic
// accessor (the ground truth every segment type implements).
func assertSameValues(t *testing.T, got, want storage.Segment) {
	t.Helper()
	for i := 0; i < want.Len(); i++ {
		off := types.ChunkOffset(i)
		g, w := got.ValueAt(off), want.ValueAt(off)
		if g.IsNull() != w.IsNull() {
			t.Fatalf("row %d: null mismatch: got %v, want %v", i, g, w)
		}
		if !w.IsNull() && g != w {
			t.Fatalf("row %d: got %v, want %v", i, g, w)
		}
	}
}

func TestValueSegmentRoundTrip(t *testing.T) {
	ints := storage.ValueSegmentFromSlice([]int64{1, -5, 0, 1 << 40}, nil)
	assertSameValues(t, roundTrip(t, ints), ints)

	floats := storage.ValueSegmentFromSlice([]float64{1.5, -2.25, 0}, []bool{false, true, false})
	assertSameValues(t, roundTrip(t, floats), floats)

	strs := storage.StringSegmentOf([]string{"", "abc", "日本語"}, []bool{true, false, false})
	assertSameValues(t, roundTrip(t, strs), strs)
}

// TestRestoreStringSegmentAllocates: a string value segment restores per
// segment, not per string — one pass lays its entries into one blob and its
// offsets into one array: a constant handful of allocations for 10 000 rows,
// where a []string of them took one per row (10 003 for this segment).
func TestRestoreStringSegmentAllocates(t *testing.T) {
	values, nulls := make([]string, 10_000), make([]bool, 10_000)
	for i := range values {
		values[i], nulls[i] = fmt.Sprintf("row-%d", i*7919%10_000), i%13 == 0
	}
	buf, err := AppendSegment(nil, storage.StringSegmentOf(values, nulls))
	if err != nil {
		t.Fatal(err)
	}
	var seg storage.Segment
	allocs := testing.AllocsPerRun(20, func() {
		if seg, _, err = DecodeSegment(buf); err != nil {
			t.Fatal(err)
		}
	})
	assertSameValues(t, seg, storage.StringSegmentOf(values, nulls))
	if allocs > 4 {
		t.Errorf("restoring a 10 000-row string segment allocates %v times, want at most 4: the segment, its flags, offsets and blob", allocs)
	}
}

func TestDictionarySegmentRoundTrip(t *testing.T) {
	vals := []string{"b", "a", "b", "c", "a", "a"}
	nulls := []bool{false, false, true, false, false, false}
	for _, comp := range []VectorCompressionType{FixedSizeByteAligned, BitPacked128} {
		seg := EncodeDictionary(vals, nulls, comp)
		assertSameValues(t, roundTrip(t, seg), seg)
	}
	ints := EncodeDictionary([]int64{5, 5, 7, -1, 5}, nil, FixedSizeByteAligned)
	assertSameValues(t, roundTrip(t, ints), ints)
	floats := EncodeDictionary([]float64{0.5, 0.5, 9.75}, nil, BitPacked128)
	assertSameValues(t, roundTrip(t, floats), floats)
}

func TestRunLengthSegmentRoundTrip(t *testing.T) {
	seg := EncodeRunLength([]int64{4, 4, 4, 9, 9, 2}, []bool{false, false, false, true, true, false})
	assertSameValues(t, roundTrip(t, seg), seg)
	strs := EncodeRunLength([]string{"x", "x", "y"}, nil)
	assertSameValues(t, roundTrip(t, strs), strs)
}

func TestFrameOfReferenceRoundTrip(t *testing.T) {
	values := make([]int64, 3000)
	nulls := make([]bool, 3000)
	for i := range values {
		values[i] = 1_000_000 + int64(i%77)
	}
	seg := EncodeFrameOfReference(values, nulls, FixedSizeByteAligned)
	assertSameValues(t, roundTrip(t, seg), seg)
}

// TestFrameOfReferenceAllNullBlockRoundTrip pins the snapshot-serialization
// edge case: a frame-of-reference block (2048 values) consisting entirely of
// NULLs has no reference frame derived from data — its frame stays zero —
// and must still round-trip bit-for-bit through the snapshot segment codec.
func TestFrameOfReferenceAllNullBlockRoundTrip(t *testing.T) {
	const block = 2048
	values := make([]int64, 3*block)
	nulls := make([]bool, 3*block)
	for i := 0; i < block; i++ {
		values[i] = int64(500 + i) // block 0: dense values
		nulls[block+i] = true      // block 1: all NULL
		if i%2 == 0 {              // block 2: alternating
			nulls[2*block+i] = true
		} else {
			values[2*block+i] = int64(-40 + i)
		}
	}
	for _, comp := range []VectorCompressionType{FixedSizeByteAligned, BitPacked128} {
		seg := EncodeFrameOfReference(values, nulls, comp)
		got := roundTrip(t, seg)
		assertSameValues(t, got, seg)
		// And the decoded form must itself re-serialize identically.
		buf1, err := AppendSegment(nil, seg)
		if err != nil {
			t.Fatal(err)
		}
		buf2, err := AppendSegment(nil, got)
		if err != nil {
			t.Fatal(err)
		}
		if string(buf1) != string(buf2) {
			t.Fatal("re-serialization of decoded segment differs")
		}
	}
}

// TestCorruptDictionaryFailsDecode: a dictionary whose values do not ascend
// strictly, or whose codes point past the NULL id, used to decode without an
// error and panic on its first read. Restore now rejects both, for every
// dictionary type and code vector, and no single-byte corruption or
// truncation of a snapshot makes DecodeSegment panic or hand out a segment
// whose reads do.
func TestCorruptDictionaryFailsDecode(t *testing.T) {
	buf, err := AppendSegment(nil, EncodeDictionary([]string{"b", "a", "b"}, nil, FixedSizeByteAligned))
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] = 9 // the last row's code, in a dictionary of two
	if _, _, err := DecodeSegment(buf); err == nil {
		t.Fatal("a code above the NULL id decodes")
	}

	for _, comp := range []VectorCompressionType{FixedSizeByteAligned, BitPacked128} {
		codes := CompressUints([]uint64{1, 0, 2}, comp) // 2 is the NULL id of a dictionary of two
		bad := CompressUints([]uint64{1, 0, 3}, comp)
		for name, seg := range map[string]storage.Segment{
			"int64 code":         &DictionarySegment[int64]{dict: []int64{1, 2}, av: bad, nullID: 2},
			"float64 code":       &DictionarySegment[float64]{dict: []float64{1, 2}, av: bad, nullID: 2},
			"string code":        &DictionarySegment[string]{strs: packStrings([]string{"a", "b"}), av: bad, nullID: 2},
			"int64 descending":   &DictionarySegment[int64]{dict: []int64{2, 1}, av: codes, nullID: 2},
			"int64 duplicate":    &DictionarySegment[int64]{dict: []int64{1, 1}, av: codes, nullID: 2},
			"float64 NaN first":  &DictionarySegment[float64]{dict: []float64{math.NaN(), 1}, av: codes, nullID: 2},
			"float64 two zeros":  &DictionarySegment[float64]{dict: []float64{math.Copysign(0, -1), 0}, av: codes, nullID: 2},
			"string descending":  &DictionarySegment[string]{strs: packStrings([]string{"b", "a"}), av: codes, nullID: 2},
			"string duplicate":   &DictionarySegment[string]{strs: packStrings([]string{"", ""}), av: codes, nullID: 2},
			"string NUL ordered": &DictionarySegment[string]{strs: packStrings([]string{"a\x00", "a"}), av: codes, nullID: 2},
		} {
			buf, err := AppendSegment(nil, seg)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := DecodeSegment(buf); err == nil {
				t.Errorf("%s, %s: decodes without an error", name, comp)
			}
		}
	}
	short := &BP128Vector{n: 300, words: []uint64{0}, blockBits: []uint8{1}, blockStart: []uint32{0}} // one block of three
	buf, err = AppendSegment(nil, &DictionarySegment[int64]{dict: []int64{1}, av: short, nullID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeSegment(buf); err == nil {
		t.Error("a bit-packed vector with fewer blocks than codes decodes")
	}

	for _, comp := range []VectorCompressionType{FixedSizeByteAligned, BitPacked128} {
		valid, err := AppendSegment(nil, EncodeDictionary([]string{"b", "", "a\x00", "b", "c"}, []bool{false, false, false, true, false}, comp))
		if err != nil {
			t.Fatal(err)
		}
		for i := range valid {
			for _, b := range []byte{0, 1, 9, 0x7F, 0xFF, valid[i] ^ 1} {
				corrupt := append([]byte{}, valid...)
				corrupt[i] = b
				readAll(t, corrupt)
			}
			readAll(t, valid[:i])
		}
	}
}

// TestCorruptRunLengthFailsDecode: runs whose ends do not ascend to the last
// row, or that do not match their values or NULL flags, used to decode and
// panic on their first read; restore rejects them.
func TestCorruptRunLengthFailsDecode(t *testing.T) {
	for name, seg := range map[string]storage.Segment{
		"fewer values":      &RunLengthSegment[string]{n: 4, ends: []types.ChunkOffset{1, 3}, values: []string{"a"}},
		"fewer NULL flags":  &RunLengthSegment[int64]{n: 4, ends: []types.ChunkOffset{1, 3}, values: []int64{1, 2}, nulls: []bool{false}},
		"ends descend":      &RunLengthSegment[float64]{n: 4, ends: []types.ChunkOffset{3, 1}, values: []float64{1, 2}},
		"short of the rows": &RunLengthSegment[int64]{n: 4, ends: []types.ChunkOffset{0, 2}, values: []int64{1, 2}},
		"past the rows":     &RunLengthSegment[int64]{n: 4, ends: []types.ChunkOffset{1, 4}, values: []int64{1, 2}},
		"rows without runs": &RunLengthSegment[string]{n: 4},
	} {
		buf, err := AppendSegment(nil, seg)
		if err != nil {
			t.Fatal(err)
		}
		if !decodeFails(buf) {
			t.Errorf("%s: decodes without an error", name)
		}
	}
	buf, _ := AppendSegment(nil, EncodeRunLength([]string{"a", "a", "b"}, []bool{false, false, true}))
	if decodeFails(buf) {
		t.Error("a valid run-length segment fails to decode")
	}
}

// TestCorruptDecimalFailsDecode: restore refuses an exponent past 18, integers
// past ±2^53 (neither decodes exactly) and frame-of-reference blocks that do
// not match the row count, and no single-byte corruption or truncation of a
// decimal segment makes DecodeSegment panic or hand out a segment whose reads
// do.
func TestCorruptDecimalFailsDecode(t *testing.T) {
	valid, ok := EncodeDecimal([]float64{1.25, -7.5, 0, 1e12, 3.75}, []bool{false, false, true, false, false}, FixedSizeByteAligned)
	if !ok {
		t.Fatal("cents taken for no decimal")
	}
	for name, seg := range map[string]storage.Segment{
		"exponent 19": &DecimalSegment{ints: valid.ints, exp: 19},
		"above 2^53":  &DecimalSegment{ints: EncodeFrameOfReference([]int64{maxDecimal - 1, maxDecimal + 1}, nil, FixedSizeByteAligned), exp: 2},
		"below -2^53": &DecimalSegment{ints: EncodeFrameOfReference([]int64{-maxDecimal - 1, 0}, nil, BitPacked128)},
		"short frames": &FrameOfReferenceSegment{n: 3000, frames: []int64{0},
			offsets: CompressUints(make([]uint64, 3000), FixedSizeByteAligned)},
	} {
		buf, err := AppendSegment(nil, seg)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeSegment(buf); err == nil {
			t.Errorf("%s: decodes without an error", name)
		}
	}
	buf, err := AppendSegment(nil, valid)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		for _, b := range []byte{0, 1, 9, 0x13, 0x7F, 0xFF, buf[i] ^ 1} {
			corrupt := append([]byte{}, buf...)
			corrupt[i] = b
			readAll(t, corrupt)
		}
		readAll(t, buf[:i])
	}
}

// TestCorruptPatchesFailDecode: patch offsets that are unsorted, duplicated,
// past the rows or on a NULL row, or offsets without as many values, fail the
// read of a patched decimal; so do, under the corrected tag, a correction width
// past 4, an exponent past 18, integers whose decimals lie past ±2^53 and
// integers that do not decode in order. No corruption of a valid patched or
// corrected decimal panics.
func TestCorruptPatchesFailDecode(t *testing.T) {
	corrected, ok := EncodeDecimal([]float64{step(1.25, 1), math.NaN(), -7.5, 0, 12.5, step(-2.5, -1), 3.75, 2.5, 0.5, step(6.25, -2)},
		[]bool{false, false, false, true, false, false, false, false, false, false}, BitPacked128)
	if !ok || ValueCompression(corrected) != "decimal(2)~2+1" {
		t.Fatalf("sealed %v as %s, want corrections and a patch", ok, ValueCompression(corrected))
	}
	for name, seg := range map[string]*DecimalSegment{
		"width 5":      {ints: corrected.ints, exp: 2, bits: 5, patches: corrected.patches},
		"exponent 19":  {ints: corrected.ints, exp: 19, bits: 2, patches: corrected.patches},
		"above 2^53":   {ints: EncodeFrameOfReference([]int64{0, (maxDecimal + 1) << 2}, nil, FixedSizeByteAligned), exp: 2, bits: 2},
		"below -2^53":  {ints: EncodeFrameOfReference([]int64{(-maxDecimal - 1) << 2, 0}, nil, BitPacked128), exp: 2, bits: 2},
		"out of order": {ints: EncodeFrameOfReference([]int64{0, (maxDecimal / 2) << 2}, nil, FixedSizeByteAligned), bits: 2}, // integers near 2^52 are one step apart
	} {
		if buf, _ := AppendSegment(nil, seg); buf[0] != segDecimalCorrected || !decodeFails(buf) {
			t.Errorf("%s: decodes without an error", name)
		}
	}
	if buf, _ := AppendSegment(nil, &DecimalSegment{ints: EncodeFrameOfReference([]int64{0, (maxDecimal / 8) << 1}, nil, FixedSizeByteAligned), bits: 1}); decodeFails(buf) {
		t.Error("integers below 2^50, 4 steps apart, do not decode at width 1")
	}

	valid, ok := EncodeDecimal([]float64{1.25, math.NaN(), -7.5, 0, 12.5, math.Copysign(0, -1), 3.75, 2.5, 0.5, 6.25},
		[]bool{false, false, false, true, false, false, false, false, false, false}, FixedSizeByteAligned)
	if !ok || ValueCompression(valid) != "decimal(2)+2" {
		t.Fatalf("sealed %v as %s, want two patches", ok, ValueCompression(valid))
	}
	for name, rows := range map[string][]types.ChunkOffset{"unsorted": {5, 1}, "duplicated": {1, 1}, "past the rows": {1, 10}, "on a NULL row": {1, 3}} {
		seg := &DecimalSegment{ints: valid.ints, exp: valid.exp, patches: patches{rows: rows, vals: valid.patches.vals}}
		if buf, _ := AppendSegment(nil, seg); !decodeFails(buf) {
			t.Errorf("%s: decodes without an error", name)
		}
	}
	seg := &DecimalSegment{ints: valid.ints, exp: valid.exp, patches: patches{rows: valid.patches.rows, vals: valid.patches.vals[:1]}}
	if buf, _ := AppendSegment(nil, seg); !decodeFails(buf) {
		t.Error("two offsets with one value decode without an error")
	}
	for _, seg := range []*DecimalSegment{valid, corrected} {
		buf, _ := AppendSegment(nil, seg)
		for i := range buf {
			for _, b := range []byte{0, 1, 9, 0x13, 0x7F, 0xFF, buf[i] ^ 1} {
				corrupt := append([]byte{}, buf...)
				corrupt[i] = b
				readAll(t, corrupt)
			}
			readAll(t, buf[:i])
		}
	}
}

func decodeFails(buf []byte) bool {
	_, _, err := DecodeSegment(buf)
	return err != nil
}

// readAll decodes buf and, if that succeeds, reads every row of the segment.
func readAll(t *testing.T, buf []byte) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("% x: %v", buf, r)
		}
	}()
	seg, _, err := DecodeSegment(buf)
	if err != nil {
		return
	}
	for i := 0; i < seg.Len(); i++ {
		seg.ValueAt(types.ChunkOffset(i))
	}
	if z, ok := seg.(storage.ZonedSegment); ok {
		z.Zone()
	}
}

// TestStringDictionaryRoundTripIsByteIdentical: a plain string dictionary
// writes the snapshot format the per-value dictionary wrote — its distinct
// values as length-prefixed strings — over the awkward values: "", embedded
// NUL, invalid UTF-8 and a 1 MiB value. Restore packs it by the rule a seal
// packs by, which the 1 MiB value makes pay, and from there serialize → decode
// → serialize is the identity.
func TestStringDictionaryRoundTripIsByteIdentical(t *testing.T) {
	big := strings.Repeat("\x00x\xff", 1<<20/3+1)[:1<<20]
	values := []string{"b", "", "a\x00b", "\xc3\x28", big, "", "\x00", big, "a"}
	nulls := []bool{false, false, false, false, false, true, false, false, false}
	distinct := []string{"", "\x00", big, "\xc3\x28", "a", "a\x00b", "b"}
	sort.Strings(distinct)
	for _, comp := range []VectorCompressionType{FixedSizeByteAligned, BitPacked128} {
		seg := EncodeDictionary(values, nulls, comp)
		buf, err := AppendSegment(nil, seg)
		if err != nil {
			t.Fatal(err)
		}
		want := appendUintVector(appendStrings([]byte{segDictString}, distinct), seg.av)
		if !bytes.Equal(buf, want) {
			t.Fatalf("%s: snapshot bytes differ from the length-prefixed values", comp)
		}
		got := roundTrip(t, seg)
		assertSameValues(t, got, seg)
		if ValueCompression(got) != "FSST" || got.MemoryUsage() >= seg.MemoryUsage() {
			t.Errorf("%s: restored %s at %d bytes, the plain dictionary holds %d", comp, ValueCompression(got), got.MemoryUsage(), seg.MemoryUsage())
		}
		packed, err := AppendSegment(nil, got)
		if err != nil {
			t.Fatal(err)
		}
		again, err := AppendSegment(nil, roundTrip(t, got))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, packed) {
			t.Fatalf("%s: re-serialization of the decoded dictionary differs", comp)
		}
	}
}
