package encoding

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// summaryPool is one logical column of the summary differential.
type summaryPool[T types.Ordered] struct {
	name   string
	values []T
	nulls  []bool
}

// drawPool draws n rows from domain; every nullEvery-th draw (0: never) is
// NULL.
func drawPool[T types.Ordered](name string, domain []T, n int, nullEvery uint64, seed uint64) summaryPool[T] {
	p := summaryPool[T]{name: name, values: make([]T, n)}
	if nullEvery > 0 {
		p.nulls = make([]bool, n)
	}
	r := lcg(seed)
	for i := range p.values {
		p.values[i] = domain[r.next()%uint64(len(domain))]
		if nullEvery > 0 {
			p.nulls[i] = r.next()%nullEvery == 0
		}
	}
	return p
}

func allNullPool[T types.Ordered](n int) summaryPool[T] {
	p := summaryPool[T]{name: "all-null", values: make([]T, n), nulls: make([]bool, n)}
	for i := range p.nulls {
		p.nulls[i] = true
	}
	return p
}

var (
	intPools = []summaryPool[int64]{
		{name: "empty"},
		allNullPool[int64](70),
		drawPool("extremes", []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}, 300, 5, 1),
		// Neighbours that share one float64: they stay distinct values here.
		drawPool("beyond-2^53", []int64{1 << 53, 1<<53 + 1, 1<<53 + 2, -(1 << 53) - 1, -(1 << 53), 7}, 300, 0, 2),
		drawPool("runs", []int64{3, 3, 3, 3, 9}, 5000, 11, 3),
	}
	floatPools = []summaryPool[float64]{
		{name: "empty"},
		allNullPool[float64](70),
		drawPool("signed-zero", []float64{math.Copysign(0, -1), 0, 1.5, -1.5}, 200, 4, 4),
		drawPool("nan", []float64{3, math.NaN(), 1, math.Float64frombits(0x7ff8000000000abc), 2, math.Inf(1), math.Inf(-1)}, 200, 6, 5),
		drawPool("only-nan", []float64{math.NaN()}, 40, 3, 6),
		drawPool("many", seq(90, func(i int) float64 { return float64(i)*1.25 - 40 }), 3000, 0, 7),
	}
	stringPools = []summaryPool[string]{
		{name: "empty"},
		allNullPool[string](70),
		drawPool("nul-bytes", []string{"", "\x00", "\x00\x00", "a", "a\x00", "a\x00b", "b"}, 300, 5, 8),
		drawPool("prefixed", seq(40, func(i int) string { return fmt.Sprintf("Customer#%09d", i) }), 1000, 0, 9),
	}
)

func seq[T any](n int, f func(int) T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

// layouts encodes one pool every way the engine can: unencoded and every
// encoding × vector compression (frame-of-reference is dictionary for a
// type it does not cover, as in Seal).
func layouts[T types.Ordered](t *testing.T, p summaryPool[T]) map[string]storage.Segment {
	t.Helper()
	raw := storage.ValueSegmentFromSlice(p.values, p.nulls)
	out := map[string]storage.Segment{"Unencoded": raw}
	for _, enc := range []EncodingType{Dictionary, RunLength, FrameOfReference} {
		for _, comp := range []VectorCompressionType{FixedSizeByteAligned, BitPacked128} {
			seg, _ := Seal(raw, false, &Spec{Encoding: enc, Compression: comp})
			out[fmt.Sprintf("%s/%s", enc, comp)] = seg
		}
	}
	return out
}

// refSummary is the row-at-a-time reference: every row through ValueAt, the
// distinct values ordered by refLess. It shares no code with the kernel.
func refSummary[T types.Ordered](seg storage.Segment) Summary[T] {
	var sum Summary[T]
	var rows []T
	for i := 0; i < seg.Len(); i++ {
		v := seg.ValueAt(types.ChunkOffset(i))
		if v.IsNull() {
			sum.Nulls++
			continue
		}
		rows = append(rows, types.ToNative[T](v))
	}
	sort.SliceStable(rows, func(i, j int) bool { return refLess(rows[i], rows[j]) })
	for i, v := range rows {
		if i == 0 || refLess(rows[i-1], v) {
			sum.Values, sum.Counts = append(sum.Values, v), append(sum.Counts, 0)
		}
		sum.Counts[len(sum.Counts)-1]++
	}
	return sum
}

// refLess is the summary's total order spelled out: numbers by <, then NaN.
func refLess[T types.Ordered](a, b T) bool {
	if fa, ok := any(a).(float64); ok && (math.IsNaN(fa) || math.IsNaN(any(b).(float64))) {
		return !math.IsNaN(fa)
	}
	return a < b
}

// sameSummary compares by value: -0 is +0 and NaN is NaN.
func sameSummary[T types.Ordered](a, b Summary[T]) bool {
	if a.Nulls != b.Nulls || len(a.Values) != len(b.Values) || len(a.Counts) != len(b.Counts) {
		return false
	}
	for i := range a.Values {
		if a.Counts[i] != b.Counts[i] || refLess(a.Values[i], b.Values[i]) || refLess(b.Values[i], a.Values[i]) {
			return false
		}
	}
	return true
}

// TestStatsSegmentSummary, part (a): the summary of a segment equals
// the row-by-row reference in every layout, for whole segments, for a range of
// rows, and merged with a second segment.
func TestStatsSegmentSummary(t *testing.T) {
	runSummaryDiff(t, intPools)
	runSummaryDiff(t, floatPools)
	runSummaryDiff(t, stringPools)
}

func runSummaryDiff[T types.Ordered](t *testing.T, pools []summaryPool[T]) {
	for _, p := range pools {
		raw := storage.ValueSegmentFromSlice(p.values, p.nulls)
		want := refSummary[T](raw)
		for name, seg := range layouts(t, p) {
			name = fmt.Sprintf("%s/%s/%s", types.Native[T](), p.name, name)
			if got := Summarize[T](seg); !sameSummary(got, want) {
				t.Errorf("%s: summary %v, reference %v", name, got, want)
			}
			lo, hi := len(p.values)/3, len(p.values)*2/3
			var nulls []bool
			if p.nulls != nil {
				nulls = p.nulls[lo:hi]
			}
			wantPart := refSummary[T](storage.ValueSegmentFromSlice(p.values[lo:hi], nulls))
			gotPart := SummarizeRows[T](seg, lo, hi)
			if !sameSummary(gotPart, wantPart) {
				t.Errorf("%s: rows [%d, %d): summary %v, reference %v", name, lo, hi, gotPart, wantPart)
			}
			// Part + whole, merged, hold every row of both.
			both := refSummary[T](storage.ValueSegmentFromSlice(
				append(append([]T{}, p.values...), p.values[lo:hi]...),
				appendNulls(p.nulls, nulls)))
			if got := Merge([]Summary[T]{Summarize[T](seg), gotPart}); !sameSummary(got, both) {
				t.Errorf("%s: merged summary %v, reference %v", name, got, both)
			}
		}
	}
}

func appendNulls(a, b []bool) []bool {
	if a == nil {
		return nil
	}
	return append(append([]bool{}, a...), b...)
}

// TestStatsEncodeDictionaryNaN: a NaN in a float column used to leave the
// dictionary unsorted ([3 NaN 1 NaN 2], each NaN its own entry) and decode
// both NaN rows as 3. All NaNs are one value that sorts last, and every scan
// answers as the plain values do.
func TestStatsEncodeDictionaryNaN(t *testing.T) {
	values := []float64{3, math.NaN(), 1, math.NaN(), 2, math.Copysign(0, -1), 0}
	for _, comp := range []VectorCompressionType{FixedSizeByteAligned, BitPacked128} {
		seg := EncodeDictionary(values, nil, comp)
		dict := Summarize[float64](seg).Values
		if len(dict) != 5 || dict[0] != 0 || dict[1] != 1 || dict[2] != 2 || dict[3] != 3 || !math.IsNaN(dict[4]) {
			t.Fatalf("%s: dictionary %v, want [0 1 2 3 NaN]", comp, dict)
		}
		for i, want := range values {
			got, null := seg.Get(types.ChunkOffset(i))
			if null || (got != want && !(math.IsNaN(got) && math.IsNaN(want))) {
				t.Errorf("%s: row %d decodes as %v (null %v), want %v", comp, i, got, null, want)
			}
		}
		if lb, ub := seg.LowerBound(2), seg.UpperBound(2); lb != 2 || ub != 3 {
			t.Errorf("%s: bounds of 2 = [%d, %d), want [2, 3)", comp, lb, ub)
		}
	}
	runScanDiff(t, values, nil, []float64{-1, 0, 1, 2.5, 3, math.NaN()})
}
