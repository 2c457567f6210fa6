package filter

import (
	"fmt"
	"sort"

	"hyrise/internal/encoding"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// DefaultRangeHistBins is the default number of bins for range histograms.
const DefaultRangeHistBins = 32

// RangeHistogram is a pruning-optimized histogram (paper §2.4, "comparable
// to adaptive range filters"). The value domain of a chunk's column is
// covered by bins that hug the *populated* sub-ranges: each bin stores the
// min/max of the values it actually contains, so gaps between bins are
// provably empty and predicates falling into a gap prune the chunk.
// Unlike min-max filters, range histograms also estimate selectivity, which
// makes them usable by the optimizer for cardinality estimation.
//
// Range histograms are built on numeric columns; strings are covered by
// min-max filters.
type RangeHistogram struct {
	col      types.ColumnID
	binMin   []float64
	binMax   []float64
	binRows  []int
	binDist  []int // distinct values per bin
	rowCount int   // non-NULL rows
}

// NewRangeHistogram builds a histogram with at most bins bins using an
// equal-distinct-count split of the sorted distinct values.
func NewRangeHistogram(seg storage.Segment, col types.ColumnID, bins int) (*RangeHistogram, error) {
	switch seg.DataType() {
	case types.TypeInt64:
		return rangeHistOf(encoding.Summarize[int64](seg), col, bins), nil
	case types.TypeFloat64:
		return rangeHistOf(encoding.Summarize[float64](seg), col, bins), nil
	default:
		return nil, fmt.Errorf("filter: range histogram requires a numeric column, got %s", seg.DataType())
	}
}

// rangeHistOf splits the summary's sorted distinct values, as float64, into
// bins. NaN lies in no bin and is no row of the histogram: no comparison
// matches it.
func rangeHistOf[T int64 | float64](sum encoding.Summary[T], col types.ColumnID, bins int) *RangeHistogram {
	floats, ok := any(sum).(encoding.Summary[float64])
	if !ok {
		floats = encoding.Project(sum, func(v T) float64 { return float64(v) })
	}
	floats, _ = floats.SplitNaN()
	h := &RangeHistogram{col: col}
	distinct := floats.Values
	if len(distinct) == 0 {
		return h
	}
	bins = max(bins, 1)
	perBin := (len(distinct) + bins - 1) / bins
	for i := 0; i < len(distinct); i += perBin {
		j := min(i+perBin, len(distinct))
		rows := 0
		for _, n := range floats.Counts[i:j] {
			rows += n
		}
		h.binMin = append(h.binMin, distinct[i])
		h.binMax = append(h.binMax, distinct[j-1])
		h.binRows = append(h.binRows, rows)
		h.binDist = append(h.binDist, j-i)
		h.rowCount += rows
	}
	return h
}

// Bins returns the number of bins.
func (h *RangeHistogram) Bins() int { return len(h.binMin) }

// FilterType implements storage.ChunkFilter.
func (h *RangeHistogram) FilterType() string { return "RangeHist" }

// ColumnID implements storage.ChunkFilter.
func (h *RangeHistogram) ColumnID() types.ColumnID { return h.col }

// CanPruneEquals implements storage.ChunkFilter: prune when v falls outside
// every bin (in a gap or beyond the domain).
func (h *RangeHistogram) CanPruneEquals(v types.Value) bool {
	if v.IsNull() || !v.Type.IsNumeric() {
		return false
	}
	if h.rowCount == 0 {
		return true
	}
	f := v.AsFloat()
	_, inBin := h.findBin(f)
	return !inBin
}

// CanPruneRange implements storage.ChunkFilter: prune when [lo, hi] overlaps
// no bin.
func (h *RangeHistogram) CanPruneRange(lo, hi *types.Value) bool {
	if h.rowCount == 0 {
		return true
	}
	loF, hiF, ok := h.floatBounds(lo, hi)
	if !ok {
		return false
	}
	for i := range h.binMin {
		if h.binMax[i] >= loF && h.binMin[i] <= hiF {
			return false
		}
	}
	return true
}

func (h *RangeHistogram) floatBounds(lo, hi *types.Value) (float64, float64, bool) {
	loF, hiF := -maxFloat, maxFloat
	if lo != nil {
		if !lo.Type.IsNumeric() {
			return 0, 0, false
		}
		loF = lo.AsFloat()
	}
	if hi != nil {
		if !hi.Type.IsNumeric() {
			return 0, 0, false
		}
		hiF = hi.AsFloat()
	}
	return loF, hiF, true
}

const maxFloat = 1.797693134862315708145274237317043567981e+308

// findBin returns the bin index containing f and whether f lies inside a
// bin (rather than a gap).
func (h *RangeHistogram) findBin(f float64) (int, bool) {
	i := sort.Search(len(h.binMax), func(i int) bool { return h.binMax[i] >= f })
	if i == len(h.binMax) {
		return 0, false
	}
	return i, h.binMin[i] <= f
}

// EstimateEquals estimates the number of rows equal to v under a uniform
// per-bin distribution.
func (h *RangeHistogram) EstimateEquals(v types.Value) float64 {
	if v.IsNull() || !v.Type.IsNumeric() || h.rowCount == 0 {
		return 0
	}
	bin, inBin := h.findBin(v.AsFloat())
	if !inBin {
		return 0
	}
	return float64(h.binRows[bin]) / float64(h.binDist[bin])
}

// EstimateRange estimates the number of rows in [lo, hi] (nil bounds open)
// by summing full bins and interpolating partially overlapped bins.
func (h *RangeHistogram) EstimateRange(lo, hi *types.Value) float64 {
	if h.rowCount == 0 {
		return 0
	}
	loF, hiF, ok := h.floatBounds(lo, hi)
	if !ok {
		return 0
	}
	total := 0.0
	for i := range h.binMin {
		bMin, bMax := h.binMin[i], h.binMax[i]
		if bMax < loF || bMin > hiF {
			continue
		}
		overlapLo := max(bMin, loF)
		overlapHi := min(bMax, hiF)
		if bMax == bMin {
			total += float64(h.binRows[i])
			continue
		}
		frac := (overlapHi - overlapLo) / (bMax - bMin)
		total += frac * float64(h.binRows[i])
	}
	return total
}

// RowCount returns the number of non-NULL rows covered by the histogram.
func (h *RangeHistogram) RowCount() int { return h.rowCount }

// MemoryUsage implements storage.ChunkFilter.
func (h *RangeHistogram) MemoryUsage() int64 {
	return int64(len(h.binMin))*(8+8+8+8) + 64
}
