package filter

import (
	"testing"
	"testing/quick"

	"hyrise/internal/encoding"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

func intSeg(vals []int64, nulls []bool) storage.Segment {
	return storage.ValueSegmentFromSlice(vals, nulls)
}

// rangeHist is the histogram AttachDefaultFilters attaches, at any bin count.
func rangeHist(seg storage.Segment, col types.ColumnID, bins int) *RangeHistogram {
	if seg.DataType() == types.TypeFloat64 {
		return rangeHistOf(encoding.Summarize[float64](seg), col, bins)
	}
	return rangeHistOf(encoding.Summarize[int64](seg), col, bins)
}

// prunesEquals is what the scan asks a filter about `= v`: the interval [v, v].
func prunesEquals(h *RangeHistogram, v types.Value) bool { return h.CanPruneRange(&v, &v) }

// --- RangeHistogram -----------------------------------------------------------

func TestRangeHistogramPruning(t *testing.T) {
	// Two dense clusters with a wide gap: 0..99 and 10000..10099.
	vals := make([]int64, 0, 200)
	for i := 0; i < 100; i++ {
		vals = append(vals, int64(i), int64(10_000+i))
	}
	h := rangeHist(intSeg(vals, nil), 4, 64)
	if h.ColumnID() != 4 || h.FilterType() != "RangeHist" {
		t.Error("identity wrong")
	}
	// A min-max filter cannot prune the gap; the histogram can.
	lo, hi := types.Int(5_000), types.Int(6_000)
	if !h.CanPruneRange(&lo, &hi) {
		t.Error("gap range should prune")
	}
	if !prunesEquals(h, types.Int(5_000)) {
		t.Error("gap equals should prune")
	}
	if prunesEquals(h, types.Int(50)) || prunesEquals(h, types.Int(10_050)) {
		t.Error("populated values must not prune")
	}
	lo2, hi2 := types.Int(90), types.Int(10_010)
	if h.CanPruneRange(&lo2, &hi2) {
		t.Error("range touching both clusters must not prune")
	}
	if h.CanPruneRange(nil, nil) {
		t.Error("unbounded range must not prune")
	}
}

func TestRangeHistogramEmptyAndNulls(t *testing.T) {
	h := rangeHist(intSeg([]int64{0}, []bool{true}), 0, 4)
	if !prunesEquals(h, types.Int(0)) || !h.CanPruneRange(nil, nil) {
		t.Error("all-NULL chunk should prune everything")
	}
	if h.MemoryUsage() != 64 {
		t.Errorf("MemoryUsage = %d, want the 64 bytes of no bins", h.MemoryUsage())
	}
}

// Property: the histogram never prunes a value that exists (soundness).
func TestRangeHistogramSoundnessProperty(t *testing.T) {
	f := func(raw []int32, binSeed uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int64, len(raw))
		for i, r := range raw {
			vals[i] = int64(r)
		}
		bins := int(binSeed)%16 + 1
		h := rangeHist(intSeg(vals, nil), 0, bins)
		for _, v := range vals {
			if prunesEquals(h, types.Int(v)) {
				return false
			}
			lo, hi := types.Int(v-1), types.Int(v+1)
			if h.CanPruneRange(&lo, &hi) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
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
	if len(c0.Filters(0)) != 1 {
		t.Errorf("numeric column filters = %d, want 1 (RangeHist)", len(c0.Filters(0)))
	}
	if len(c0.Filters(1)) != 0 {
		t.Errorf("string column filters = %d, want none (the bounds are the zone's)", len(c0.Filters(1)))
	}
	// Idempotent: a second call must not duplicate filters.
	if err := AttachDefaultFilters(table); err != nil {
		t.Fatal(err)
	}
	if len(c0.Filters(0)) != 1 {
		t.Error("AttachDefaultFilters not idempotent")
	}
}
