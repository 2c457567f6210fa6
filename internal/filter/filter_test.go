package filter

import (
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

// rangeHist is the histogram AttachDefaultFilters attaches, at any bin count.
func rangeHist(seg storage.Segment, col types.ColumnID, bins int) *RangeHistogram {
	if seg.DataType() == types.TypeFloat64 {
		return rangeHistOf(encoding.Summarize[float64](seg), col, bins)
	}
	return rangeHistOf(encoding.Summarize[int64](seg), col, bins)
}

// --- CQF --------------------------------------------------------------------

func TestCQFNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]int64, 500)
	for i := range vals {
		vals[i] = rng.Int63n(10_000)
	}
	f := NewCountingQuotientFilter(intSeg(vals, nil), 2, DefaultRemainderBits)
	if f.ColumnID() != 2 || f.FilterType() != "CQF" {
		t.Error("identity wrong")
	}
	if f.Size() != 500 {
		t.Errorf("Size = %d", f.Size())
	}
	for _, v := range vals {
		if f.CanPruneEquals(types.Int(v)) {
			t.Fatalf("false negative: %d was inserted but prunes", v)
		}
		if f.Count(types.Int(v)) < 1 {
			t.Fatalf("Count(%d) = 0 for inserted value", v)
		}
	}
}

func TestCQFPrunesMostAbsentValues(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i)
	}
	f := NewCountingQuotientFilter(intSeg(vals, nil), 0, DefaultRemainderBits)
	pruned := 0
	const probes = 2000
	for i := 0; i < probes; i++ {
		if f.CanPruneEquals(types.Int(int64(100_000 + i))) {
			pruned++
		}
	}
	// With an 8-bit remainder the false-positive rate should be far below
	// 10%; require at least 90% pruning.
	if pruned < probes*9/10 {
		t.Errorf("pruned only %d/%d absent values", pruned, probes)
	}
}

func TestCQFCountsDuplicates(t *testing.T) {
	vals := []int64{7, 7, 7, 7, 3, 3, 9}
	f := NewCountingQuotientFilter(intSeg(vals, nil), 0, DefaultRemainderBits)
	if c := f.Count(types.Int(7)); c < 4 {
		t.Errorf("Count(7) = %d, want >= 4", c)
	}
	if c := f.Count(types.Int(3)); c < 2 {
		t.Errorf("Count(3) = %d, want >= 2", c)
	}
	if c := f.Count(types.Int(9)); c < 1 {
		t.Errorf("Count(9) = %d, want >= 1", c)
	}
}

func TestCQFNeverPrunesRangesOrNull(t *testing.T) {
	f := NewCountingQuotientFilter(intSeg([]int64{1}, nil), 0, DefaultRemainderBits)
	lo, hi := types.Int(100), types.Int(200)
	if f.CanPruneRange(&lo, &hi) {
		t.Error("CQF cannot prune ranges")
	}
	if f.CanPruneEquals(types.NullValue) {
		t.Error("NULL probe must not prune")
	}
}

func TestCQFCrossTypeNumericProbe(t *testing.T) {
	f := NewCountingQuotientFilter(intSeg([]int64{42}, nil), 0, DefaultRemainderBits)
	if f.CanPruneEquals(types.Float(42.0)) {
		t.Error("float probe 42.0 should find int 42")
	}
}

func TestCQFStrings(t *testing.T) {
	words := []string{"lineitem", "orders", "part", "orders"}
	f := NewCountingQuotientFilter(storage.ValueSegmentFromSlice(words, nil), 0, DefaultRemainderBits)
	for _, w := range words {
		if f.CanPruneEquals(types.Str(w)) {
			t.Fatalf("false negative for %q", w)
		}
	}
	if c := f.Count(types.Str("orders")); c < 2 {
		t.Errorf("Count(orders) = %d", c)
	}
}

// Property: the CQF never has false negatives, for any input multiset.
func TestCQFNoFalseNegativeProperty(t *testing.T) {
	f := func(raw []int32) bool {
		vals := make([]int64, len(raw))
		for i, r := range raw {
			vals[i] = int64(r % 100) // heavy duplication stresses runs
		}
		cqf := NewCountingQuotientFilter(intSeg(vals, nil), 0, DefaultRemainderBits)
		counts := map[int64]int{}
		for _, v := range vals {
			counts[v]++
		}
		for v, n := range counts {
			if cqf.CanPruneEquals(types.Int(v)) {
				return false
			}
			if cqf.Count(types.Int(v)) < n {
				return false // count is an upper bound, never below truth
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

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
	if !h.CanPruneEquals(types.Int(5_000)) {
		t.Error("gap equals should prune")
	}
	if h.CanPruneEquals(types.Int(50)) || h.CanPruneEquals(types.Int(10_050)) {
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
	if !h.CanPruneEquals(types.Int(0)) || !h.CanPruneRange(nil, nil) {
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
			if h.CanPruneEquals(types.Int(v)) {
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
	table.FinalizeLastChunk()
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
