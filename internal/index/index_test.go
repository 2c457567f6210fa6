package index

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"hyrise/internal/encoding"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// compareExact orders a cell against a bound without rounding either: an
// int64 beside a float compares as the two real numbers. ok is false when
// they do not compare: NULL, NaN, or a string beside a number.
func compareExact(a, b types.Value) (int, bool) {
	nan := func(v types.Value) bool { return v.Type == types.TypeFloat64 && math.IsNaN(v.F) }
	switch {
	case a.IsNull() || b.IsNull() || nan(a) || nan(b):
		return 0, false
	case a.Type == types.TypeString || b.Type == types.TypeString:
		return strings.Compare(a.S, b.S), a.Type == b.Type
	case a.Type == types.TypeInt64 && b.Type == types.TypeInt64:
		return cmp.Compare(a.I, b.I), true
	case a.Type == types.TypeInt64:
		switch f := b.F; {
		case f >= 1<<63:
			return -1, true
		case f < -(1 << 63):
			return 1, true
		default:
			t := math.Trunc(f)
			return cmp.Or(cmp.Compare(a.I, int64(t)), cmp.Compare(t, f)), true
		}
	}
	return cmp.Compare(a.F, b.AsFloat()), true
}

// linear is the oracle: the offsets of the cells between the bounds, by a
// scan over every row.
func linear(cells []types.Value, lo, hi *types.Value, strictLo, strictHi bool) []types.ChunkOffset {
	var out []types.ChunkOffset
	for i, cell := range cells {
		if _, ok := compareExact(cell, cell); !ok {
			continue // NULL and NaN match no comparison
		}
		if lo != nil {
			if c, ok := compareExact(cell, *lo); !ok || c < 0 || (c == 0 && strictLo) {
				continue
			}
		}
		if hi != nil {
			if c, ok := compareExact(cell, *hi); !ok || c > 0 || (c == 0 && strictHi) {
				continue
			}
		}
		out = append(out, types.ChunkOffset(i))
	}
	return out
}

func cellsOf(seg storage.Segment) []types.Value {
	cells := make([]types.Value, seg.Len())
	for i := range cells {
		cells[i] = seg.ValueAt(types.ChunkOffset(i))
	}
	return cells
}

func eq(idx storage.ChunkIndex, v types.Value) []types.ChunkOffset {
	return idx.Range(&v, &v, false, false)
}

// layout is a segment in one of the representations Seal produces, named by
// its spec and value compression.
type layout struct {
	name string
	seg  storage.Segment
}

// layoutsOf seals base with every spec and with the size model, which packs a
// string dictionary with FSST when that pays. A spec that does not apply to
// the values (FrameOfReference on strings, say) seals into a layout another
// spec gives too; each layout is listed once.
func layoutsOf(base storage.Segment) []layout {
	var out []layout
	for _, spec := range []*encoding.Spec{
		{Encoding: encoding.Unencoded},
		{Encoding: encoding.Dictionary, Compression: encoding.FixedSizeByteAligned},
		{Encoding: encoding.Dictionary, Compression: encoding.BitPacked128},
		{Encoding: encoding.RunLength},
		{Encoding: encoding.FrameOfReference, Compression: encoding.FixedSizeByteAligned},
		{Encoding: encoding.FrameOfReference, Compression: encoding.BitPacked128},
		nil,
	} {
		seg, _ := encoding.Seal(base, false, spec)
		s, _ := encoding.SpecOf(seg)
		name := s.String() + " " + encoding.ValueCompression(seg)
		if !slices.ContainsFunc(out, func(l layout) bool { return l.name == name }) {
			out = append(out, layout{name, seg})
		}
	}
	return out
}

func mustBuild(t testing.TB, seg storage.Segment) storage.ChunkIndex {
	t.Helper()
	idx, err := build(seg, 0)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestAllIndexesEqualsAndRangeInt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, 2000)
	nulls := make([]bool, 2000)
	for i := range vals {
		vals[i] = rng.Int63n(100) - 50
		nulls[i] = rng.Intn(25) == 0
	}
	for _, l := range layoutsOf(storage.ValueSegmentFromSlice(vals, nulls)) {
		idx, err := build(l.seg, 3)
		if err != nil {
			t.Fatalf("%v: %v", l.name, err)
		}
		if idx.ColumnID() != 3 {
			t.Errorf("%v: ColumnID = %d", l.name, idx.ColumnID())
		}
		if idx.MemoryUsage() <= 0 {
			t.Errorf("%v: MemoryUsage = %d", l.name, idx.MemoryUsage())
		}
		cells := cellsOf(l.seg)
		for probe := int64(-55); probe <= 55; probe += 7 {
			v := types.Int(probe)
			if got, want := eq(idx, v), linear(cells, &v, &v, false, false); !slices.Equal(got, want) {
				t.Fatalf("%v: Equals(%d) = %v, want %v", l.name, probe, got, want)
			}
		}
		for trial := 0; trial < 30; trial++ {
			lo := types.Int(rng.Int63n(120) - 60)
			hi := types.Int(lo.I + rng.Int63n(40))
			got := slices.Sorted(slices.Values(idx.Range(&lo, &hi, false, false)))
			if want := linear(cells, &lo, &hi, false, false); !slices.Equal(got, want) {
				t.Fatalf("%v: Range(%d,%d) = %d offsets, want %d", l.name, lo.I, hi.I, len(got), len(want))
			}
		}
		zero := types.Int(0)
		for _, b := range [][2]*types.Value{{&zero, nil}, {nil, &zero}, {nil, nil}} {
			got := slices.Sorted(slices.Values(idx.Range(b[0], b[1], false, false)))
			if want := linear(cells, b[0], b[1], false, false); !slices.Equal(got, want) {
				t.Fatalf("%v: open Range %v mismatch", l.name, b)
			}
		}
	}
}

// TestARTPathCompressionSplit keeps the radix tree's name for the strings
// that split its compressed paths: long shared prefixes, one word a prefix of
// another, duplicates. Every layout's index must tell them apart.
func TestARTPathCompressionSplit(t *testing.T) {
	words := []string{"abcdefgh", "abcdefgz", "abcdxxxx", "abzzzzzz", "abcdefgh", "abcd"}
	for _, l := range layoutsOf(storage.ValueSegmentFromSlice(words, nil)) {
		idx, cells := mustBuild(t, l.seg), cellsOf(l.seg)
		if got := eq(idx, types.Str("abcdefgh")); len(got) != 2 {
			t.Errorf("%v: Equals(abcdefgh) = %v, want 2 postings", l.name, got)
		}
		for _, w := range append(words, "abc", "abcdefg", "abcdefghi") {
			v := types.Str(w)
			if got, want := eq(idx, v), linear(cells, &v, &v, false, false); !slices.Equal(got, want) {
				t.Fatalf("%v: Equals(%q) = %v, want %v", l.name, w, got, want)
			}
		}
		for _, r := range [][2]string{{"abcd", "abce"}, {"abcdefgh", "abcdefgh"}} {
			lo, hi := types.Str(r[0]), types.Str(r[1])
			got := slices.Sorted(slices.Values(idx.Range(&lo, &hi, false, false)))
			if want := linear(cells, &lo, &hi, false, false); !slices.Equal(got, want) {
				t.Fatalf("%v: prefix range %q = %v, want %v", l.name, r, got, want)
			}
		}
	}
}

func TestAllIndexesStrings(t *testing.T) {
	words := []string{"delta", "alpha", "echo", "bravo", "alpha", "charlie", "bravo", "alpha", ""}
	for _, l := range layoutsOf(storage.ValueSegmentFromSlice(words, nil)) {
		idx, cells := mustBuild(t, l.seg), cellsOf(l.seg)
		for _, w := range append(words, "zulu", "a") {
			v := types.Str(w)
			if got, want := eq(idx, v), linear(cells, &v, &v, false, false); !slices.Equal(got, want) {
				t.Fatalf("%v: Equals(%q) = %v, want %v", l.name, w, got, want)
			}
		}
		lo, hi := types.Str("alpha"), types.Str("charlie")
		got := slices.Sorted(slices.Values(idx.Range(&lo, &hi, false, false)))
		if want := linear(cells, &lo, &hi, false, false); !slices.Equal(got, want) {
			t.Fatalf("%v: string range = %v, want %v", l.name, got, want)
		}
	}
}

func TestAllIndexesFloats(t *testing.T) {
	vals := []float64{1.5, -2.25, 0, 3.75, -2.25, 100.125, 0}
	for _, l := range layoutsOf(storage.ValueSegmentFromSlice(vals, nil)) {
		idx, cells := mustBuild(t, l.seg), cellsOf(l.seg)
		for _, f := range []float64{-2.25, 0, 1.5, 99} {
			v := types.Float(f)
			if got, want := eq(idx, v), linear(cells, &v, &v, false, false); !slices.Equal(got, want) {
				t.Fatalf("%v: Equals(%v) = %v, want %v", l.name, f, got, want)
			}
		}
		lo, hi := types.Float(-3), types.Float(2)
		got := slices.Sorted(slices.Values(idx.Range(&lo, &hi, false, false)))
		if want := linear(cells, &lo, &hi, false, false); !slices.Equal(got, want) {
			t.Fatalf("%v: float range mismatch", l.name)
		}
	}
}

func TestIndexProbeMismatchesReturnNil(t *testing.T) {
	for _, l := range layoutsOf(storage.ValueSegmentFromSlice([]int64{1, 2, 3}, nil)) {
		idx := mustBuild(t, l.seg)
		if got := eq(idx, types.Str("nope")); got != nil {
			t.Errorf("%v: string probe on int index = %v", l.name, got)
		}
		if got := eq(idx, types.NullValue); got != nil {
			t.Errorf("%v: NULL probe = %v", l.name, got)
		}
		if nan := types.Float(math.NaN()); eq(idx, nan) != nil || idx.Range(nil, &nan, false, false) != nil {
			t.Errorf("%v: a NaN probe matched rows", l.name)
		}
		bad := types.Str("x")
		if got := idx.Range(&bad, nil, false, false); got != nil {
			t.Errorf("%v: bad range probe = %v", l.name, got)
		}
	}
}

// TestIndexProbesAreExact: a float bounding an INT index is not truncated. A
// non-integral one equals nothing and, as a bound, rounds inward; an integral
// one keeps its strictness; one past every int64 bounds all rows or none.
func TestIndexProbesAreExact(t *testing.T) {
	f := func(x float64) *types.Value { v := types.Float(x); return &v }
	for _, l := range layoutsOf(storage.ValueSegmentFromSlice([]int64{1, 2, 3, 2}, nil)) {
		idx := mustBuild(t, l.seg)
		for _, tc := range []struct {
			lo, hi             *types.Value
			strictLo, strictHi bool
			want               []types.ChunkOffset
		}{
			{lo: f(2.5), hi: f(2.5)},
			{lo: f(2), hi: f(2), want: []types.ChunkOffset{1, 3}},
			{lo: f(2.5), want: []types.ChunkOffset{2}},
			{lo: f(2.5), strictLo: true, want: []types.ChunkOffset{2}},
			{hi: f(2.5), want: []types.ChunkOffset{0, 1, 3}},
			{hi: f(2.5), strictHi: true, want: []types.ChunkOffset{0, 1, 3}},
			{lo: f(2), strictLo: true, want: []types.ChunkOffset{2}},
			{hi: f(2), strictHi: true, want: []types.ChunkOffset{0}},
			{lo: f(1.5), hi: f(1.9)},
			{lo: f(-0.5), hi: f(1.5), want: []types.ChunkOffset{0}},
			{lo: f(1e19)},
			{hi: f(1e19), strictHi: true, want: []types.ChunkOffset{0, 1, 2, 3}},
			{lo: f(math.Inf(-1)), strictLo: true, want: []types.ChunkOffset{0, 1, 2, 3}},
			{hi: f(math.Inf(-1))},
		} {
			got := slices.Sorted(slices.Values(idx.Range(tc.lo, tc.hi, tc.strictLo, tc.strictHi)))
			if !slices.Equal(got, tc.want) {
				t.Errorf("%s: Range(%v, %v, %v, %v) = %v, want %v", l.name, tc.lo, tc.hi, tc.strictLo, tc.strictHi, got, tc.want)
			}
		}
	}
}

// TestIndexMemoryUsageCountsItsBytes pins MemoryUsage against a hand count:
// keys (8 B an int64, 16 B a string header plus its bytes), 4 B an offset and
// 4 B a position. A dictionary's values belong to its segment; its index
// keeps a bucket and the positions of the NULL rows too.
func TestIndexMemoryUsageCountsItsBytes(t *testing.T) {
	ints := storage.ValueSegmentFromSlice([]int64{5, 2, 5, 0, 9}, []bool{false, false, false, true, false})
	strs := storage.ValueSegmentFromSlice([]string{"bb", "a", "bb", "x", ""}, []bool{false, false, false, true, false})
	for _, tc := range []struct {
		seg  storage.Segment
		want int64
	}{
		{ints, 3*8 + 4*4 + 4*4},      // keys 2, 5, 9
		{strs, 3*16 + 3 + 4*4 + 4*4}, // keys "", "a", "bb"
		{encoding.EncodeDictionary([]int64{5, 2, 5, 0, 9}, []bool{false, false, false, true, false}, encoding.FixedSizeByteAligned), 5*4 + 5*4},
	} {
		if got := mustBuild(t, tc.seg).MemoryUsage(); got != tc.want {
			t.Errorf("%T: MemoryUsage = %d, want %d", tc.seg, got, tc.want)
		}
	}
}

// TestDiffIndexOracle holds the index over every layout Seal produces to a
// scan of the rows: Unencoded, Dictionary (FSBA, BP128, FSST-packed),
// RunLength, FrameOfReference (FSBA, BP128) and decimal floats, over NULL,
// NaN, ±Inf, -0 and +0, int64 extremes, ” and NUL bytes, 200 long strings
// (codes of 8 bits, which stay byte-aligned), an empty and an all-NULL
// segment and 100 000 unique keys. Every lookup — equality, one
// bound, two, strict or inclusive, of the column's type or another — returns
// the rows the scan returns, grouped by value in value order, ascending
// within a value.
func TestDiffIndexOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	pick := func(n int, pool []types.Value, nullShare int) []types.Value {
		out := make([]types.Value, n)
		for i := range out {
			out[i] = pool[rng.Intn(len(pool))]
			if nullShare > 0 && rng.Intn(nullShare) == 0 {
				out[i] = types.NullValue
			}
		}
		return out
	}
	ints := []types.Value{types.Int(math.MinInt64), types.Int(math.MinInt64 + 1), types.Int(-1), types.Int(0), types.Int(1),
		types.Int(2), types.Int(3), types.Int(7), types.Int(1000), types.Int(math.MaxInt64 - 1), types.Int(math.MaxInt64)}
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	floats := []types.Value{types.Float(nan), types.Float(-inf), types.Float(inf), types.Float(negZero), types.Float(0),
		types.Float(-1.5), types.Float(1.5), types.Float(2), types.Float(math.MaxFloat64), types.Float(math.SmallestNonzeroFloat64)}
	var strs []types.Value
	for _, s := range []string{"", "\x00", "\x00\x00", "a", "a\x00", "b", "\xff"} {
		strs = append(strs, types.Str(s))
	}
	for i := 0; i < 60; i++ { // long, repetitive text: the size model packs it with FSST
		strs = append(strs, types.Str(fmt.Sprintf("carefully final deposits %d haggle blithely along the pending requests", i*7919)))
	}
	// 200 such values: codes of 8 bits in every 128-row block, which
	// bit-packing would store in more bytes than byte-aligned codes.
	comments := make([]types.Value, 200)
	for i := range comments {
		comments[i] = types.Str(fmt.Sprintf("carefully final deposits %d haggle blithely along the pending requests", i*104729))
	}
	cents := make([]types.Value, 400)
	for i := range cents {
		cents[i] = types.Float(float64(i*37%4001-2000) / 100)
	}
	unique := make([]types.Value, 100_000)
	for i, k := range rng.Perm(len(unique)) {
		unique[i] = types.Int(int64(k))
	}
	bases := []struct {
		name   string
		dt     types.DataType
		cells  []types.Value
		probes []types.Value
	}{
		{"int64", types.TypeInt64, pick(2500, ints, 20), append(slices.Clone(ints[:9]), types.Float(2.5), types.Float(-0.5), types.Float(1e19), types.Float(-inf), types.Float(3))},
		{"float64", types.TypeFloat64, pick(2500, floats, 20), append(slices.Clone(floats), types.Int(2), types.Int(-1), types.Float(1))},
		{"decimal", types.TypeFloat64, pick(2500, cents, 20), []types.Value{types.Float(-20), types.Float(-0.37), types.Float(0), types.Float(0.005), types.Float(1.11), types.Int(3), types.Float(20), types.Float(nan)}},
		{"string", types.TypeString, pick(2500, strs, 20), append(slices.Clone(strs[:8]), types.Str("a\x00\x00"), types.Str("carefully"), types.Str("zzz"), types.Int(1))},
		{"string, 8-bit codes", types.TypeString, pick(2500, comments, 0), []types.Value{comments[0], comments[127], comments[128], comments[199], types.Str("carefully"), types.Str("zzz")}},
		{"empty int64", types.TypeInt64, nil, []types.Value{types.Int(1)}},
		{"empty string", types.TypeString, nil, []types.Value{types.Str("")}},
		{"all-NULL float64", types.TypeFloat64, pick(300, floats, 1), []types.Value{types.Float(0)}},
		{"all-NULL string", types.TypeString, pick(300, strs, 1), []types.Value{types.Str("")}},
		{"100 000 unique keys", types.TypeInt64, unique, []types.Value{types.Int(0), types.Int(12_345), types.Int(12_360), types.Int(99_999), types.Int(100_000)}},
	}
	seen := map[string]bool{}
	for _, b := range bases {
		plain := storage.NewValueSegmentOfType(b.dt, 0, true)
		if len(b.cells) > 0 {
			table := storage.NewTable("t", []storage.ColumnDefinition{{Name: "v", Type: b.dt, Nullable: true}}, len(b.cells), false)
			for _, c := range b.cells {
				if _, err := table.AppendRow([]types.Value{c}); err != nil {
					t.Fatal(err)
				}
			}
			plain = table.GetChunk(0).GetSegment(0)
		}
		// Every layout holds the same values, so the scan runs once per lookup.
		bound := func(i int) *types.Value {
			if i < 0 {
				return nil
			}
			return &b.probes[i]
		}
		scans := map[[4]int][]types.ChunkOffset{}
		for _, l := range layoutsOf(plain) {
			seen[l.name] = true
			idx, cells := mustBuild(t, l.seg), cellsOf(l.seg)
			inWant := make([]bool, len(cells))
			check := func(i, j, strictLo, strictHi int) {
				t.Helper()
				lo, hi := bound(i), bound(j)
				got := idx.Range(lo, hi, strictLo == 1, strictHi == 1)
				for k := 1; k < len(got); k++ {
					if c, _ := compareExact(cells[got[k-1]], cells[got[k]]); c > 0 || (c == 0 && got[k-1] > got[k]) {
						t.Fatalf("%s %s: Range(%v, %v, %d, %d) returns %v before %v", b.name, l.name, lo, hi, strictLo, strictHi, got[k-1], got[k])
					}
				}
				key := [4]int{i, j, strictLo, strictHi}
				if _, ok := scans[key]; !ok {
					scans[key] = linear(cells, lo, hi, strictLo == 1, strictHi == 1)
				}
				want := scans[key]
				for _, o := range want {
					inWant[o] = true
				}
				for _, o := range got {
					if !inWant[o] {
						break
					}
					inWant[o] = false
				}
				if len(got) != len(want) || slices.Contains(inWant, true) {
					t.Fatalf("%s %s: Range(%v, %v, %d, %d) = %v, the scan %v", b.name, l.name, lo, hi, strictLo, strictHi, got, want)
				}
			}
			check(-1, -1, 0, 0)
			for i := range b.probes {
				check(i, i, 0, 0)
				for strict := range 2 {
					check(i, -1, strict, 0)
					check(-1, i, 0, strict)
				}
				for j := range b.probes {
					check(i, j, (i+j)%2, j%2)
				}
			}
		}
	}
	for _, want := range []string{"Unencoded none", "Dictionary (FSBA) none", "Dictionary (SIMD-BP128) none", "Dictionary (FSBA) FSST",
		"RunLength none", "FrameOfReference (FSBA) none", "FrameOfReference (SIMD-BP128) none", "FrameOfReference (FSBA) decimal(2)"} {
		if !seen[want] {
			t.Errorf("no base was sealed as %s; sealed: %v", want, seen)
		}
	}
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

// Property: every layout's index agrees with the linear-scan oracle on random
// data.
func TestIndexOracleProperty(t *testing.T) {
	f := func(raw []int16, probe int16, width uint8, strictLo, strictHi bool) bool {
		vals := make([]int64, len(raw))
		for i, r := range raw {
			vals[i] = int64(r % 64) // force duplicates
		}
		for _, l := range layoutsOf(storage.ValueSegmentFromSlice(vals, nil)) {
			idx, cells := mustBuild(t, l.seg), cellsOf(l.seg)
			v := types.Int(int64(probe % 64))
			hi := types.Int(v.I + int64(width%16))
			if !slices.Equal(eq(idx, v), linear(cells, &v, &v, false, false)) ||
				!slices.Equal(slices.Sorted(slices.Values(idx.Range(&v, &hi, strictLo, strictHi))), linear(cells, &v, &hi, strictLo, strictHi)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
