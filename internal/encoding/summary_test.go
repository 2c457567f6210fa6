package encoding

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
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

// mapGroups is the grouping kernel as it was before numbers were sorted, kept
// as the reference of TestDiffGroupingKernel: one map operation per row (NaN
// beside the map), one sort over the distinct values.
func mapGroups[T types.Ordered](values []T, nulls []bool, codes []uint64) Summary[T] {
	var (
		sum   Summary[T]
		vals  []T
		rows  []int
		idOf  = make(map[T]int)
		nan   T
		nanID = -1
	)
	const null = ^uint64(0)
	for i, v := range values {
		if nulls != nil && nulls[i] {
			sum.Nulls++
			codes[i] = null
			continue
		}
		id, ok := idOf[v]
		if v != v {
			id, ok = nanID, nanID >= 0
		}
		if !ok {
			id = len(rows)
			rows = append(rows, 0)
			if v != v {
				nan, nanID = v, id
			} else {
				vals, idOf[v] = append(vals, v), id
			}
		}
		rows[id]++
		codes[i] = uint64(id)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	sum.Values, sum.Counts = make([]T, len(rows)), make([]int, len(rows))
	valueID := make([]uint64, len(rows))
	for i, v := range vals {
		id := idOf[v]
		sum.Values[i], sum.Counts[i], valueID[id] = v, rows[id], uint64(i)
	}
	if last := len(rows) - 1; nanID >= 0 {
		sum.Values[last], sum.Counts[last], valueID[nanID] = nan, rows[nanID], uint64(last)
	}
	for i, id := range codes {
		if id == null {
			codes[i] = uint64(len(rows))
		} else {
			codes[i] = valueID[id]
		}
	}
	return sum
}

// identicalSummary compares bit for bit: which -0 or NaN payload stands for
// its value matters.
func identicalSummary[T types.Ordered](a, b Summary[T]) bool {
	if a.Nulls != b.Nulls || !slices.Equal(a.Counts, b.Counts) || len(a.Values) != len(b.Values) {
		return false
	}
	for i, v := range a.Values {
		if f, ok := any(v).(float64); ok && math.Float64bits(f) != math.Float64bits(any(b.Values[i]).(float64)) || !ok && v != b.Values[i] {
			return false
		}
	}
	return true
}

// sortedPool repeats every value of domain, which is in the order the pool
// wants, reps times in place.
func sortedPool[T types.Ordered](name string, domain []T, reps int) summaryPool[T] {
	p := summaryPool[T]{name: name}
	for _, v := range domain {
		for range reps {
			p.values = append(p.values, v)
		}
	}
	return p
}

func reversedPool[T types.Ordered](p summaryPool[T]) summaryPool[T] {
	p.name, p.values = p.name+", reversed", slices.Clone(p.values)
	slices.Reverse(p.values)
	return p
}

// groupingPools is the awkward-value pool of one type: a handful of distinct
// values (the map) and, prefixed "many", more than smallGroups (the sort),
// each drawn at random, sorted, reversed and constant, with and without NULL.
func groupingPools[T types.Ordered](awkward, ascending []T, many func(i int) T) []summaryPool[T] {
	manyValues := append(seq(3000, many), awkward...)
	manyAscending := seq(3000, many)
	slices.SortFunc(manyAscending, compareTotal)
	pools := []summaryPool[T]{
		{name: "empty"},
		allNullPool[T](70),
		drawPool("awkward", awkward, 400, 5, 11),
		drawPool("awkward without NULL", awkward, 400, 0, 12),
		drawPool("constant", awkward[:1], 50, 0, 13),
		drawPool("constant with NULL", awkward[len(awkward)-1:], 50, 3, 14),
		sortedPool("sorted", ascending, 3),
		drawPool("many", manyValues, 5000, 7, 15),
		drawPool("many without NULL", manyValues, 5000, 0, 16),
		sortedPool("many sorted", manyAscending, 2),
	}
	return append(pools, reversedPool(pools[6]), reversedPool(pools[9]))
}

// TestDiffGroupingKernel holds the grouping kernel — groupValues and its sort
// path alone — to the map it replaced on numbers: equal summaries down to the
// bits of the value that stands for -0/+0 and for every NaN (the first in row
// order), identical value ids, and dictionaries built from them that are
// identical byte for byte.
func TestDiffGroupingKernel(t *testing.T) {
	negZero, nan := math.Copysign(0, -1), math.NaN()
	payload, negPayload := math.Float64frombits(0x7ff8000000000abc), math.Float64frombits(0xfff0000000000001)
	floats := groupingPools(
		[]float64{negZero, 0, nan, payload, negPayload, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64,
			-math.SmallestNonzeroFloat64, 2.5e-310, math.MaxFloat64, -math.MaxFloat64, 1, -1.5},
		[]float64{math.Inf(-1), -math.MaxFloat64, -1.5, -math.SmallestNonzeroFloat64, negZero, 0, negZero,
			math.SmallestNonzeroFloat64, 2.5e-310, 1, math.MaxFloat64, math.Inf(1), payload, nan, negPayload},
		func(i int) float64 { return float64(i*7919%3000)*0.37 - 200 })
	ints := groupingPools(
		[]int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, 1 << 53, 1<<53 + 1},
		[]int64{math.MinInt64, math.MinInt64 + 1, -256, -1, 0, 1, 255, 256, 1 << 53, 1<<53 + 1, math.MaxInt64 - 1, math.MaxInt64},
		func(i int) int64 { return int64(i*7919%3000)<<40 - 1<<50 })
	runGroupingDiff(t, floats)
	runGroupingDiff(t, ints)
}

func runGroupingDiff[T types.Ordered](t *testing.T, pools []summaryPool[T]) {
	kernels := []struct {
		name  string
		group func([]T, []bool, []uint64) Summary[T]
	}{{"groupValues", groupValues[T]}, {"radix sort", func(values []T, nulls []bool, codes []uint64) Summary[T] {
		return groupRows(values, nulls, orderedRows(values, nulls, false), codes)
	}}}
	for _, p := range pools {
		refCodes := make([]uint64, len(p.values))
		ref := mapGroups(p.values, p.nulls, refCodes)
		if strings.HasPrefix(p.name, "many") != (len(ref.Values) > smallGroups) {
			t.Fatalf("%s/%s: %d distinct values, on the wrong side of smallGroups", types.Native[T](), p.name, len(ref.Values))
		}
		for _, k := range kernels {
			name := fmt.Sprintf("%s/%s/%s", types.Native[T](), p.name, k.name)
			codes := make([]uint64, len(p.values))
			if got := k.group(p.values, p.nulls, codes); !identicalSummary(got, ref) {
				t.Errorf("%s: summary %v, map %v", name, got, ref)
			}
			if !slices.Equal(codes, refCodes) {
				t.Errorf("%s: value ids differ from the map's", name)
			}
			if got := k.group(p.values, p.nulls, nil); !identicalSummary(got, ref) {
				t.Errorf("%s: summary without codes %v, map %v", name, got, ref)
			}
		}
		for _, comp := range []VectorCompressionType{FixedSizeByteAligned, BitPacked128} {
			got, _ := AppendSegment(nil, EncodeDictionary(p.values, p.nulls, comp))
			want, _ := AppendSegment(nil, newDictionary(ref.Values, CompressUints(refCodes, comp)))
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s/%s: dictionary differs from the map's", types.Native[T](), p.name, comp)
			}
		}
	}
}
