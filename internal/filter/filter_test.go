package filter

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hyrise/internal/encoding"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

func intSeg(vals []int64, nulls []bool) storage.Segment {
	return storage.ValueSegmentFromSlice(vals, nulls)
}

// sealedZone is the zone a sealed chunk keeps for seg with n bins: the bounds
// its rows imply and the bins of its summary, set on a chunk that has no zones
// yet, as restore sets them.
func sealedZone(seg storage.Segment, n int) storage.Zone {
	c := storage.NewChunk([]storage.Segment{seg}, nil)
	c.Finalize()
	if seg.DataType() == types.TypeFloat64 {
		c.SetBins(0, binsOf(encoding.Summarize[float64](seg), n))
	} else {
		c.SetBins(0, binsOf(encoding.Summarize[int64](seg), n))
	}
	z, _ := c.Zone(0)
	return z
}

// excludesEquals is what the scan asks a zone about `= v`: the interval [v, v].
func excludesEquals(z storage.Zone, v types.Value) bool { return z.Excludes(&v, &v) }

// holds reports whether some row of seg lies in [lo, hi] (nil bounds open) by
// the comparison the scan applies: NULL and NaN rows lie in no interval, INT
// against INT is exact, INT against FLOAT compares as floats.
func holds(seg storage.Segment, lo, hi *types.Value) bool {
	atMost := func(a, b types.Value) bool { c, ok := types.Compare(a, b); return ok && c <= 0 }
	for i := 0; i < seg.Len(); i++ {
		v := seg.ValueAt(types.ChunkOffset(i))
		if atMost(v, v) && (lo == nil || atMost(*lo, v)) && (hi == nil || atMost(v, *hi)) {
			return true
		}
	}
	return false
}

func TestRangeHistogramPruning(t *testing.T) {
	// Two dense clusters with a wide gap: 0..99 and 10000..10099.
	vals := make([]int64, 0, 200)
	for i := 0; i < 100; i++ {
		vals = append(vals, int64(i), int64(10_000+i))
	}
	z := sealedZone(intSeg(vals, nil), 64)
	bounds := z
	bounds.Bins = nil
	// The bounds cannot prune the gap; the bins can.
	lo, hi := types.Int(5_000), types.Int(6_000)
	if bounds.Excludes(&lo, &hi) || !z.Excludes(&lo, &hi) {
		t.Error("gap range should prune by the bins alone")
	}
	if !excludesEquals(z, types.Int(5_000)) {
		t.Error("gap equals should prune")
	}
	if excludesEquals(z, types.Int(50)) || excludesEquals(z, types.Int(10_050)) {
		t.Error("populated values must not prune")
	}
	lo2, hi2 := types.Int(90), types.Int(10_010)
	if z.Excludes(&lo2, &hi2) {
		t.Error("range touching both clusters must not prune")
	}
	if z.Excludes(nil, nil) {
		t.Error("unbounded range must not prune")
	}
}

// TestRangeHistogramEmptyAndNulls: a column without a comparable value — all
// NULL, all NaN, or NULL and NaN — has no bins, which is still a list: the
// chunk counts as having its bins (HasDefaults), and its zone excludes every
// interval.
func TestRangeHistogramEmptyAndNulls(t *testing.T) {
	nan := math.NaN()
	for name, seg := range map[string]storage.Segment{
		"all-NULL int":    intSeg([]int64{0, 0}, []bool{true, true}),
		"all-NULL float":  storage.ValueSegmentFromSlice([]float64{0}, []bool{true}),
		"all-NaN":         storage.ValueSegmentFromSlice([]float64{nan, nan}, nil),
		"NaN and NULL":    storage.ValueSegmentFromSlice([]float64{nan, 1}, []bool{false, true}),
		"all-NaN encoded": encoding.EncodeDictionary([]float64{nan, nan, nan}, nil, encoding.FixedSizeByteAligned),
	} {
		z := sealedZone(seg, DefaultRangeHistBins)
		if z.Bins == nil || len(z.Bins) != 0 {
			t.Errorf("%s: bins %v, want none, non-nil", name, z.Bins)
		}
		nanV := types.Float(nan)
		if !excludesEquals(z, types.Int(0)) || !z.Excludes(nil, nil) || !excludesEquals(z, nanV) {
			t.Errorf("%s: the zone keeps an interval no row lies in", name)
		}
		c := storage.NewChunk([]storage.Segment{seg}, nil)
		c.Finalize()
		AttachDefaults(c)
		if !HasDefaults(c) {
			t.Errorf("%s: a chunk given its (zero) bins does not report them", name)
		}
	}
}

// TestRangeHistogramSoundnessProperty: a zone never excludes an interval that
// holds a row. Columns are drawn from awkward values — NaN, ±Inf, ±0, int64s
// past 2^53 that share a float, NULL — probed with INT and FLOAT operands
// alike, at every bin count from 1 to 16; and the bins do exclude some
// intervals the bounds alone keep.
func TestRangeHistogramSoundnessProperty(t *testing.T) {
	intPool := []int64{math.MinInt64, -(1 << 53) - 1, -(1 << 53), -1, 0, 1, 7, 8, 40, 1 << 53, 1<<53 + 1, 1<<53 + 2, 1<<53 + 3, math.MaxInt64}
	floatPool := []float64{math.Inf(-1), -1.5, math.Copysign(0, -1), 0, 0.5, 7.5, 1 << 53, 1e300, math.Inf(1), math.NaN()}
	probes := []types.Value{types.NullValue, types.Str("x")}
	for _, v := range intPool {
		probes = append(probes, types.Int(v), types.Int(v+1))
	}
	for _, v := range floatPool {
		probes = append(probes, types.Float(v))
	}
	byGap := 0
	f := func(seed int64, rows uint8, binSeed uint8, float bool) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(rows)%60 + 1
		nulls := make([]bool, n)
		var seg storage.Segment
		if float {
			vals := make([]float64, n)
			for i := range vals {
				vals[i], nulls[i] = floatPool[r.Intn(len(floatPool))], r.Intn(8) == 0
			}
			seg = storage.ValueSegmentFromSlice(vals, nulls)
		} else {
			vals := make([]int64, n)
			for i := range vals {
				vals[i], nulls[i] = intPool[r.Intn(len(intPool))], r.Intn(8) == 0
			}
			seg = storage.ValueSegmentFromSlice(vals, nulls)
		}
		z := sealedZone(seg, int(binSeed)%16+1)
		bounds := z
		bounds.Bins = nil
		for i := range probes {
			for _, q := range probes[i:] {
				for _, iv := range [][2]*types.Value{{&probes[i], &q}, {&q, &probes[i]}, {&probes[i], nil}, {nil, &probes[i]}} {
					if !z.Excludes(iv[0], iv[1]) {
						continue
					}
					if holds(seg, iv[0], iv[1]) {
						t.Logf("bins %v exclude [%v, %v], which holds a row", z.Bins, iv[0], iv[1])
						return false
					}
					if !bounds.Excludes(iv[0], iv[1]) {
						byGap++
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
	if byGap == 0 {
		t.Error("the bins never excluded an interval the bounds keep")
	}
}

// --- orchestration -------------------------------------------------------------

func TestAttachDefaults(t *testing.T) {
	defs := []storage.ColumnDefinition{
		{Name: "n", Type: types.TypeInt64},
		{Name: "s", Type: types.TypeString},
	}
	table := storage.NewTable("t", defs, 2, false)
	for i := 0; i < 5; i++ {
		_, _ = table.AppendRow([]types.Value{types.Int(int64(i)), types.Str("x")})
	}
	table.SealTail()
	if err := AttachDefaultFilters(table); err != nil {
		t.Fatal(err)
	}
	c0 := table.GetChunk(0)
	if z, _ := c0.Zone(0); len(z.Bins) != 2 {
		t.Errorf("numeric column bins = %v, want one per value", z.Bins)
	}
	if z, _ := c0.Zone(1); z.Bins != nil {
		t.Errorf("string column bins = %v, want none (the bounds are all it has)", z.Bins)
	}
	// Idempotent: a second call keeps the bins.
	before, _ := c0.Zone(0)
	if err := AttachDefaultFilters(table); err != nil {
		t.Fatal(err)
	}
	if after, _ := c0.Zone(0); &after.Bins[0] != &before.Bins[0] {
		t.Error("AttachDefaultFilters not idempotent")
	}
}
