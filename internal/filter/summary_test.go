package filter

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"hyrise/internal/encoding"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// The per-row constructor the range filter had before it read a segment's
// summary, kept as the oracle: every row through ValueAt, bins from a value →
// rows map. NaN rows are outside the bins by the rule the summary states.

func isNaN(v types.Value) bool { return v.Type == types.TypeFloat64 && math.IsNaN(v.F) }

// rowBins are the bins of the range filter built the per-row way, with its two
// prune rules.
type rowBins struct{ min, max []float64 }

func rowRangeHistogram(seg storage.Segment, bins int) rowBins {
	counts := make(map[float64]int)
	for i := 0; i < seg.Len(); i++ {
		if v := seg.ValueAt(types.ChunkOffset(i)); !v.IsNull() && !isNaN(v) {
			counts[v.AsFloat()]++
		}
	}
	distinct := make([]float64, 0, len(counts))
	for v := range counts {
		distinct = append(distinct, v)
	}
	sort.Float64s(distinct)
	var h rowBins
	perBin := (len(distinct) + bins - 1) / bins
	for i := 0; i < len(distinct); i += perBin {
		h.min = append(h.min, distinct[i])
		h.max = append(h.max, distinct[min(i+perBin, len(distinct))-1])
	}
	return h
}

// canPruneRange takes open bounds as ±Inf; the old code took ±MaxFloat64 and
// so pruned `x <= c` on a chunk whose only values are -Inf
// (TestRangeHistogramInfinities).
func (h rowBins) canPruneRange(lo, hi *types.Value) bool {
	if len(h.min) == 0 {
		return true
	}
	loF, hiF := math.Inf(-1), math.Inf(1)
	for _, b := range []struct {
		v *types.Value
		f *float64
	}{{lo, &loF}, {hi, &hiF}} {
		if b.v != nil && !b.v.Type.IsNumeric() {
			return false
		} else if b.v != nil {
			*b.f = b.v.AsFloat()
		}
	}
	for i := range h.min {
		if h.max[i] >= loF && h.min[i] <= hiF {
			return false
		}
	}
	return true
}

// diffColumn is one logical column of the differential: rows drawn from
// domain (every nullEvery-th NULL), probed with domain plus absent.
type diffColumn struct {
	name      string
	domain    []types.Value
	absent    []types.Value
	rows      int
	nullEvery int
}

func ints(vs ...int64) []types.Value {
	out := make([]types.Value, len(vs))
	for i, v := range vs {
		out[i] = types.Int(v)
	}
	return out
}

func floats(vs ...float64) []types.Value {
	out := make([]types.Value, len(vs))
	for i, v := range vs {
		out[i] = types.Float(v)
	}
	return out
}

func strs(vs ...string) []types.Value {
	out := make([]types.Value, len(vs))
	for i, v := range vs {
		out[i] = types.Str(v)
	}
	return out
}

func span(n int, f func(int) types.Value) []types.Value {
	out := make([]types.Value, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

var diffColumns = []diffColumn{
	{name: "int/empty", domain: ints(1), absent: ints(0)},
	{name: "int/all-null", domain: ints(1), absent: ints(0, 1), rows: 50, nullEvery: 1},
	{name: "int/extremes", domain: ints(math.MinInt64, math.MinInt64+1, -1, 0, 1, math.MaxInt64-1, math.MaxInt64),
		absent: ints(-2, 2, 1<<40), rows: 300, nullEvery: 5},
	// Neighbours beyond 2^53 share one float64, so one histogram value.
	{name: "int/beyond-2^53", domain: ints(1<<53, 1<<53+1, 1<<53+2, -(1<<53)-1, -(1 << 53), 7),
		absent: append(ints(1<<53+3, 8), floats(7.5)...), rows: 300},
	{name: "int/clusters", domain: span(80, func(i int) types.Value { return types.Int(int64(i%40) + int64(i/40)*10_000) }),
		absent: append(ints(-1, 5_000, 20_000), floats(3, 3.5)...), rows: 4000, nullEvery: 9},
	{name: "float/empty", domain: floats(1), absent: floats(0)},
	{name: "float/signed-zero", domain: floats(math.Copysign(0, -1), 0, 1.5, -1.5), absent: floats(1, -1), rows: 200, nullEvery: 4},
	{name: "float/nan", domain: append(floats(math.NaN(), math.Inf(-1), math.Inf(1)), span(70, func(i int) types.Value { return types.Float(float64(i) / 4) })...),
		absent: append(floats(-1, 0.1, 100), ints(3, 40)...), rows: 2000, nullEvery: 6},
	{name: "float/only-nan", domain: floats(math.NaN()), absent: floats(0, 1), rows: 40, nullEvery: 3},
	{name: "string/nul-bytes", domain: strs("", "\x00", "\x00\x00", "a", "a\x00", "a\x00b", "b"), absent: strs("\x00a", "c"), rows: 300, nullEvery: 5},
	{name: "string/prefixed", domain: span(40, func(i int) types.Value { return types.Str(fmt.Sprintf("Customer#%09d", i)) }),
		absent: strs("Customer#", "Customer#000000040", "Supplier"), rows: 1000},
}

// layouts draws the column's rows and returns them unencoded and in every
// encoding × vector compression.
func (c diffColumn) layouts(t *testing.T) map[string]storage.Segment {
	t.Helper()
	r := rand.New(rand.NewSource(int64(len(c.name))))
	var raw storage.Segment
	switch c.domain[0].Type {
	case types.TypeInt64:
		raw = drawSegment[int64](c, r)
	case types.TypeFloat64:
		raw = drawSegment[float64](c, r)
	default:
		raw = drawSegment[string](c, r)
	}
	out := map[string]storage.Segment{"Unencoded": raw}
	for _, enc := range []encoding.EncodingType{encoding.Dictionary, encoding.RunLength, encoding.FrameOfReference} {
		for _, comp := range []encoding.VectorCompressionType{encoding.FixedSizeByteAligned, encoding.BitPacked128} {
			seg, _ := encoding.Seal(raw, false, &encoding.Spec{Encoding: enc, Compression: comp})
			out[fmt.Sprintf("%s/%s", enc, comp)] = seg
		}
	}
	return out
}

func drawSegment[T types.Ordered](c diffColumn, r *rand.Rand) storage.Segment {
	seg := storage.NewValueSegment[T](c.rows, c.nullEvery > 0)
	for i := 0; i < c.rows; i++ {
		v := c.domain[r.Intn(len(c.domain))]
		seg.Append(types.ToNative[T](v), c.nullEvery > 0 && r.Intn(c.nullEvery) == 0)
	}
	return seg
}

// TestStatsSegmentSummary, part (b): the bins read off a segment's summary
// are the bins the per-row constructor lays, in every layout, and the zone
// excludes what its bounds or those bins exclude.
func TestStatsSegmentSummary(t *testing.T) {
	for _, c := range diffColumns {
		for layout, seg := range c.layouts(t) {
			name := c.name + "/" + layout
			probes := append(append([]types.Value{types.NullValue, types.Str("x")}, c.domain...), c.absent...)
			if seg.DataType().IsNumeric() {
				for _, bins := range []int{1, 7, DefaultRangeHistBins} {
					got, want := sealedZone(seg, bins), rowRangeHistogram(seg, bins)
					if len(got.Bins) != len(want.min) {
						t.Fatalf("%s: %d bins, per-row %d", name, len(got.Bins), len(want.min))
					}
					for i, b := range got.Bins {
						if b != [2]float64{want.min[i], want.max[i]} {
							t.Errorf("%s: %d bins: bin %d is %v, per-row [%v %v]", name, bins, i, b, want.min[i], want.max[i])
						}
					}
					bounds := got
					bounds.Bins = nil
					for i, p := range probes {
						for _, q := range probes[i:] {
							for _, r := range [][2]*types.Value{{&p, &q}, {&q, &p}, {&p, nil}, {nil, &p}, {nil, nil}} {
								if g, w := got.Excludes(r[0], r[1]), bounds.Excludes(r[0], r[1]) || want.canPruneRange(r[0], r[1]); g != w {
									t.Errorf("%s: %d bins exclude [%v, %v]: %v, bounds or per-row bins %v", name, bins, r[0], r[1], g, w)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestStatsRangeHistogramNaN: one NaN among more distinct values than bins used to
// become the first bin's lower edge, after which `= 0` and `BETWEEN 0 AND 1`
// pruned a chunk that holds such rows. (The bounds a NaN must not widen:
// operators.TestDiffPruningWithNaN.)
func TestStatsRangeHistogramNaN(t *testing.T) {
	vals := []float64{math.NaN()}
	for i := 0; i < 70; i++ {
		vals = append(vals, float64(i))
	}
	for name, seg := range map[string]storage.Segment{
		"Unencoded":  storage.ValueSegmentFromSlice(vals, nil),
		"Dictionary": encoding.EncodeDictionary(vals, nil, encoding.FixedSizeByteAligned),
	} {
		z := sealedZone(seg, DefaultRangeHistBins)
		zero, one, far := types.Float(0), types.Float(1), types.Float(1000)
		if excludesEquals(z, zero) || z.Excludes(&zero, &one) || z.Excludes(nil, &zero) {
			t.Errorf("%s: the zone excludes a predicate that matches rows", name)
		}
		if !excludesEquals(z, far) || !z.Excludes(&far, nil) {
			t.Errorf("%s: the zone keeps a chunk no row of which is >= 1000", name)
		}
		if n := len(z.Bins); n == 0 || z.Bins[0][0] != 0 || z.Bins[n-1][1] != 69 {
			t.Errorf("%s: bins %v, want them to span the 70 numbers 0..69", name, z.Bins)
		}
	}
}

// TestRangeHistogramInfinities: an open bound is ±Inf, not ±MaxFloat64 — a
// chunk holding nothing but -Inf (or +Inf) has rows below (above) any constant.
func TestRangeHistogramInfinities(t *testing.T) {
	c := types.Float(5)
	for _, inf := range []float64{math.Inf(-1), math.Inf(1)} {
		z := sealedZone(storage.ValueSegmentFromSlice([]float64{inf, inf}, nil), DefaultRangeHistBins)
		below, above := z.Excludes(nil, &c), z.Excludes(&c, nil)
		if below != (inf > 0) || above != (inf < 0) || z.Excludes(nil, nil) || excludesEquals(z, types.Float(inf)) {
			t.Errorf("only %v: excludes x <= 5: %v, x >= 5: %v", inf, below, above)
		}
	}
}

// TestAttachDefaultFiltersFillsGaps: a chunk one column of which was given
// bins by hand used to be skipped whole; every numeric column gets the bins it
// lacks, once, the hand-set ones stay — and no string column gets any.
func TestAttachDefaultFiltersFillsGaps(t *testing.T) {
	defs := []storage.ColumnDefinition{
		{Name: "n", Type: types.TypeInt64},
		{Name: "f", Type: types.TypeFloat64},
		{Name: "s", Type: types.TypeString},
	}
	table := storage.NewTable("t", defs, 4, false)
	for i := 0; i < 4; i++ {
		if _, err := table.AppendRow([]types.Value{types.Int(int64(i)), types.Float(float64(i)), types.Str("x")}); err != nil {
			t.Fatal(err)
		}
	}
	table.SealTail()
	c := table.GetChunk(0)
	byHand := [][2]float64{{0, 3}}
	c.SetBins(1, byHand)
	for pass := 0; pass < 2; pass++ {
		if err := AttachDefaultFilters(table); err != nil {
			t.Fatal(err)
		}
		for col, want := range [][][2]float64{{{0, 0}, {1, 1}, {2, 2}, {3, 3}}, byHand, nil} {
			if z, _ := c.Zone(types.ColumnID(col)); !reflect.DeepEqual(z.Bins, want) {
				t.Errorf("pass %d: column %d carries bins %v, want %v", pass, col, z.Bins, want)
			}
		}
	}
}
