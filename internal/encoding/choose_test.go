package encoding

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// sealCase is one generated segment of TestDiffChooseIsSmallest: a full chunk's
// column, or with capacity set the tail of a chunk of that many rows.
type sealCase[T types.Ordered] struct {
	name     string
	values   []T
	nulls    []bool
	capacity int
}

func nullsEvery(n, every int) []bool {
	nulls := make([]bool, n)
	for i := range nulls {
		nulls[i] = i%every == 0
	}
	return nulls
}

// appendValue appends a row to a chunk's unencoded column of T.
func appendValue[T types.Ordered](seg storage.Segment, v T, null bool) {
	switch s := seg.(type) {
	case *storage.ValueSegment[T]:
		s.Append(v, null)
	case *storage.StringSegment:
		if err := s.Append(any(v).(string), null); err != nil {
			panic(err)
		}
	}
}

// clippedOf is the Clipped form of a chunk's unencoded column of T.
func clippedOf[T types.Ordered](seg storage.Segment) storage.Segment {
	if s, ok := seg.(*storage.StringSegment); ok {
		return s.Clipped()
	}
	return seg.(*storage.ValueSegment[T]).Clipped()
}

func generate[T types.Ordered](n int, f func(i int) T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

// checkSizeModel holds the model against the encoders: the predicted bytes of
// every candidate, Unencoded included, equal the MemoryUsage() of the segment
// the encoder builds — over the code vector of the two that needs fewer —,
// Choose returns the smallest up to its two stated rules, and Seal — with its
// shortcuts around the summary — builds exactly that, that vector included,
// returning the summary of the rows whichever way it got it.
func checkSizeModel[T types.Ordered](t *testing.T, c sealCase[T], seen map[Spec]int) {
	t.Helper()
	// Appended like a chunk's column is: a full chunk's arrays hold its rows
	// exactly, a tail's have room to grow.
	full := c.capacity == 0
	if full {
		c.capacity = len(c.values)
	}
	seg := storage.NewValueSegmentOfType(types.Native[T](), c.capacity, c.nulls != nil)
	ascending := len(c.values) > 0
	for i, v := range c.values {
		null := c.nulls != nil && c.nulls[i]
		appendValue(seg, v, null)
		ascending = ascending && !null && v == v && (i == 0 || v >= c.values[i-1])
	}
	codes := make([]uint64, len(c.values))
	want := groupValues(c.values, c.nulls, codes)
	sizes, priced := SizesOf(seg)
	encoders := map[EncodingType]Spec{
		Unencoded: {Encoding: Unencoded}, Dictionary: {Encoding: Dictionary}, RunLength: {Encoding: RunLength}, FrameOfReference: {Encoding: FrameOfReference},
	}
	if clipped := clippedOf[T](seg); full && clipped.MemoryUsage() != sizes[Unencoded] {
		t.Errorf("%s: Unencoded predicted %d, the full chunk's clipped segment uses %d", c.name, sizes[Unencoded], clipped.MemoryUsage())
	}
	smallest, vectors := Unencoded, map[EncodingType]VectorCompressionType{}
	for e, spec := range encoders {
		got, _ := Seal(seg, false, &spec)
		if e == Dictionary || e == FrameOfReference { // priced at the vector that needs fewer bytes
			spec.Compression = BitPacked128
			if packed, _ := Seal(seg, false, &spec); packed.MemoryUsage() < got.MemoryUsage() {
				got, vectors[e] = packed, BitPacked128
			}
		}
		if applied, _ := SpecOf(got); e == FrameOfReference && applied.Encoding != e {
			// Neither int64 nor exact decimals: the spec falls back, the model says 0.
			if _, ints := any(c.values).([]int64); ints || sizes[e] != 0 {
				t.Errorf("%s: FrameOfReference sealed %s, predicted %d", c.name, applied, sizes[e])
			}
			continue
		}
		predicted := sizes[e]
		if e == Dictionary { // a spec keeps the plain blob, which the model packs when that saves bytes
			if predicted, _ = dictionaryBytes(want, len(codes), blockMaxima(codes)); sizes[e] > predicted {
				t.Errorf("%s: Dictionary predicted %d bytes, more than the plain %d", c.name, sizes[e], predicted)
			}
		}
		if got.MemoryUsage() != predicted {
			t.Errorf("%s: %s predicted %d bytes, encoded segment uses %d", c.name, e, predicted, got.MemoryUsage())
		}
		if priced[e] != vectors[e] {
			t.Errorf("%s: %s priced in %s, its smaller seal has %s", c.name, e, priced[e], vectors[e])
		}
		if e != Unencoded && (smallest == Unencoded || sizes[e] < sizes[smallest]) {
			smallest = e
		}
	}
	chosen := sizes.Choose()
	seen[Spec{Encoding: chosen, Compression: vectors[chosen]}]++
	dictionaryClose := sizes[Dictionary] < sizes[Unencoded] && sizes[Dictionary]*100 <= sizes[smallest]*110
	switch {
	case sizes[smallest] >= sizes[Unencoded]:
		if chosen != Unencoded {
			t.Errorf("%s: chose %s although nothing is smaller than the plain %d bytes: %v", c.name, chosen, sizes[Unencoded], sizes)
		}
	case chosen == Dictionary:
		if !dictionaryClose {
			t.Errorf("%s: chose Dictionary at %d, not below the plain %d or more than 10%% over %s at %d", c.name, sizes[Dictionary], sizes[Unencoded], smallest, sizes[smallest])
		}
	case sizes[chosen] != sizes[smallest] || dictionaryClose:
		t.Errorf("%s: chose %s, smallest is %s: %v", c.name, chosen, smallest, sizes)
	}

	for _, asc := range []bool{false, ascending} {
		sealed, sum := Seal(seg, asc, nil)
		spec, _ := SpecOf(sealed)
		if spec.Encoding != chosen || spec.Compression != vectors[chosen] {
			t.Errorf("%s (ascending=%v): sealed as %s, the model chooses %s over %s", c.name, asc, spec, chosen, vectors[chosen])
		}
		if plain, ok := sealed.(*storage.ValueSegment[T]); ok && full && &plain.Values()[0] != &seg.(*storage.ValueSegment[T]).Values()[0] {
			t.Errorf("%s: an unencoded seal of a full chunk must keep its values", c.name)
		}
		if sealed.MemoryUsage() != sizes[chosen] {
			t.Errorf("%s: sealed segment uses %d bytes, predicted %d", c.name, sealed.MemoryUsage(), sizes[chosen])
		}
		if !sameSummary(sum.(Summary[T]), want) {
			t.Errorf("%s (ascending=%v): seal's summary differs from the rows'", c.name, asc)
		}
		for i := range c.values {
			got, want := sealed.ValueAt(types.ChunkOffset(i)), seg.ValueAt(types.ChunkOffset(i))
			if types.Order(got, want) != 0 {
				t.Fatalf("%s: row %d = %v, want %v", c.name, i, got, want)
			}
		}
	}
}

// TestDiffChooseIsSmallest runs the size model over generated segments of
// every shape it distinguishes, PR 21/22/25's awkward values among them.
func TestDiffChooseIsSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	seen := make(map[Spec]int)
	const n = 5000 // three frame-of-reference blocks, the last one short
	const tail = 25_000
	for _, c := range []sealCase[int64]{
		{name: "ascending unique", values: generate(n, func(i int) int64 { return int64(i) + 1_000_000 })},
		// Each frame's least value in its last 128 rows.
		{name: "descending unique", values: generate(n, func(i int) int64 { return int64(n-i) + 1_000_000 })},
		{name: "ascending with repeats", values: generate(n, func(i int) int64 { return int64(i / 40) })},
		{name: "constant", values: generate(n, func(int) int64 { return 42 })},
		{name: "low cardinality", values: generate(n, func(int) int64 { return int64(rng.Intn(64)) })},
		{name: "cycle of 100", values: generate(n, func(i int) int64 { return int64(i % 100) })},
		{name: "257 values", values: generate(n, func(int) int64 { return int64(rng.Intn(257)) * 1000 })},
		{name: "random wide", values: generate(n, func(int) int64 { return rng.Int63() })},
		{name: "extremes", values: generate(n, func(i int) int64 { return []int64{math.MinInt64, math.MaxInt64, 0, -1}[i%4] })},
		{name: "clustered per block", values: generate(n, func(i int) int64 { return int64(i/forBlockSize)<<40 + int64(rng.Intn(200)) })},
		{name: "few nulls", values: generate(n, func(i int) int64 { return int64(i) }), nulls: nullsEvery(n, 97)},
		{name: "null at block starts", values: generate(n, func(i int) int64 { return int64(rng.Intn(300)) }), nulls: nullsEvery(n, forBlockSize)},
		{name: "all null", values: make([]int64, n), nulls: nullsEvery(n, 1)},
		{name: "long runs with nulls", values: generate(n, func(i int) int64 { return int64(i / 700) }), nulls: nullsEvery(n, 2)},
		// Loaders' tails: a few rows of a chunk that holds 25 000.
		{name: "3-row tail", values: []int64{7, 3, 9}, capacity: tail},
		{name: "1000-row nullable tail", values: generate(1000, func(int) int64 { return int64(rng.Intn(5000)) }), nulls: nullsEvery(1000, 7), capacity: tail},
	} {
		checkSizeModel(t, c, seen)
	}
	nan := math.NaN()
	for _, c := range []sealCase[float64]{
		{name: "unique floats", values: generate(n, func(int) float64 { return rng.Float64() })},
		{name: "prices", values: generate(n, func(int) float64 { return float64(rng.Intn(100)) / 4 })},
		{name: "signed zeros", values: generate(n, func(i int) float64 { return []float64{0, math.Copysign(0, -1)}[i%2] })},
		{name: "nan and inf", values: generate(n, func(i int) float64 { return []float64{nan, math.Inf(1), math.Inf(-1), 1.5, nan}[i%5] })},
		{name: "ascending floats", values: generate(n, func(i int) float64 { return float64(i/3) / 8 })},
		{name: "nullable constant", values: generate(n, func(int) float64 { return 7.25 }), nulls: nullsEvery(n, 1000)},
		// Nullable, but no row is NULL: the plain array is 8 B a row.
		{name: "unique floats, no NULL", values: generate(n, func(int) float64 { return rng.Float64() }), nulls: make([]bool, n)},
		{name: "3-row nullable float tail", values: []float64{1.5, 0, 2.5}, nulls: []bool{false, true, false}, capacity: tail},
		{name: "1000-row unique float tail", values: generate(1000, func(int) float64 { return rng.Float64() }), capacity: tail},
		// Exact decimals: frame-of-reference over their integers.
		{name: "cents", values: generate(n, func(int) float64 { return float64(rng.Intn(100_000)) / 100 })},
		{name: "mills with NULLs", values: generate(n, func(i int) float64 { return float64(i*7919%100_000) / 1000 }), nulls: nullsEvery(n, 11)},
		{name: "negative cents", values: generate(n, func(int) float64 { return float64(rng.Intn(100_000)-50_000) / 100 })},
		{name: "±2^53 / 10^3", values: generate(n, func(i int) float64 { return []float64{1 << 53, -1 << 53, 1<<53 - 1, 7}[i%4] / 1000 })},
		{name: "cents with one inexact value", values: generate(n, func(i int) float64 { return []float64{float64(i) / 100, pointThree}[i/4999] })},
	} {
		checkSizeModel(t, c, seen)
	}
	for _, c := range []sealCase[string]{
		{name: "constant string", values: generate(n, func(int) string { return "load" })},
		{name: "tags", values: generate(n, func(int) string { return fmt.Sprintf("tag%02d", rng.Intn(12)) })},
		{name: "unique strings", values: generate(n, func(i int) string { return fmt.Sprintf("payload-%06d", i) })},
		// 47 bytes each: an end and a code per row still beat an entry's
		// 1-byte length and 4-byte offset.
		{name: "unique long strings", values: generate(n, func(i int) string { return fmt.Sprintf("%06d %040x", i, rng.Int63()) })},
		// More values than 16-bit codes hold.
		{name: "70000 distinct strings", values: generate(70_000, func(i int) string { return fmt.Sprintf("k%06d", (i*7919)%70_000) })},
		{name: "empty and NUL", values: generate(n, func(i int) string { return []string{"", "a\x00b", "\x00"}[i%3] })},
		{name: "all null strings", values: make([]string, n), nulls: nullsEvery(n, 1)},
		{name: "sorted names", values: generate(n, func(i int) string { return fmt.Sprintf("name-%04d", i/9) })},
		{name: "3-row string tail", values: []string{"wh-01", "", "wh-02"}, capacity: tail},
		{name: "1000-row nullable string tail", values: generate(1000, func(i int) string { return fmt.Sprintf("data-%08d", rng.Intn(1<<30)) }), nulls: nullsEvery(1000, 10), capacity: tail},
	} {
		checkSizeModel(t, c, seen)
	}
	for _, e := range []EncodingType{Unencoded, Dictionary, RunLength, FrameOfReference} {
		if n := seen[Spec{Encoding: e}] + seen[Spec{Encoding: e, Compression: BitPacked128}]; n < 3 {
			t.Errorf("only %d generated segments choose %s: the cases do not cover the model", n, e)
		}
	}
	for _, e := range []EncodingType{Dictionary, FrameOfReference} {
		for _, v := range []VectorCompressionType{FixedSizeByteAligned, BitPacked128} {
			if spec := (Spec{Encoding: e, Compression: v}); seen[spec] == 0 {
				t.Errorf("no generated segment chooses %s: the cases do not cover the model", spec)
			}
		}
	}
}
