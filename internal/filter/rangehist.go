package filter

import (
	"math"

	"hyrise/internal/encoding"
	"hyrise/internal/statistics"
	"hyrise/internal/types"
)

// DefaultRangeHistBins is the default number of bins for range histograms.
const DefaultRangeHistBins = 32

// RangeHistogram is a pruning-optimized histogram (paper §2.4, "comparable
// to adaptive range filters"): the equal-distinct-count statistics.Histogram
// of one chunk's numeric column. Each bin stores the min/max of the values it
// actually contains, so gaps between bins are provably empty and predicates
// falling into a gap prune the chunk. NaN lies in no bin: no comparison
// matches it.
type RangeHistogram struct {
	col  types.ColumnID
	bins *statistics.Histogram
}

func rangeHistOf[T int64 | float64](sum encoding.Summary[T], col types.ColumnID, bins int) *RangeHistogram {
	return &RangeHistogram{col: col, bins: statistics.HistogramOf(statistics.EqualDistinctCount, sum, bins)}
}

// FilterType implements storage.ChunkFilter.
func (h *RangeHistogram) FilterType() string { return "RangeHist" }

// ColumnID implements storage.ChunkFilter.
func (h *RangeHistogram) ColumnID() types.ColumnID { return h.col }

// CanPruneRange implements storage.ChunkFilter: prune when [lo, hi] (nil
// bounds open; lo == hi for an equality) overlaps no bin.
func (h *RangeHistogram) CanPruneRange(lo, hi *types.Value) bool {
	if h.bins.BinCount() == 0 {
		return true
	}
	loF, hiF := math.Inf(-1), math.Inf(1)
	if lo != nil {
		loF = lo.AsFloat()
	}
	if hi != nil {
		hiF = hi.AsFloat()
	}
	numeric := (lo == nil || lo.Type.IsNumeric()) && (hi == nil || hi.Type.IsNumeric())
	return numeric && !h.bins.Overlaps(loF, hiF)
}

// MemoryUsage implements storage.ChunkFilter.
func (h *RangeHistogram) MemoryUsage() int64 {
	return int64(h.bins.BinCount())*(8+8+8+8) + 64
}
