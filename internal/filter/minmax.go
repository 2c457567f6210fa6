// Package filter implements Hyrise's chunk-pruning filters (paper §2.4):
// lightweight, space-efficient data structures attached to immutable chunks
// that answer approximate membership queries. A filter may only report
// "prunable" when the predicate definitely matches no row of the chunk —
// false positives (not pruning although no row matches) are allowed, false
// pruning is not.
//
// Three filters are implemented: min-max filters, counting quotient filters
// (Pandey et al.), and pruning-optimized range histograms (comparable to
// adaptive range filters). The latter two also support selectivity
// estimation and are therefore consulted by the optimizer, not only by the
// execution engine.
package filter

import (
	"fmt"

	"hyrise/internal/encoding"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// MinMaxFilter stores the minimum and maximum value of one chunk's column
// (the classic "zone map" / "small materialized aggregate").
type MinMaxFilter struct {
	col      types.ColumnID
	min, max types.Value
	empty    bool // no non-NULL rows
}

// NewMinMaxFilter builds a min-max filter over a segment.
func NewMinMaxFilter(seg storage.Segment, col types.ColumnID) *MinMaxFilter {
	switch seg.DataType() {
	case types.TypeInt64:
		return minMaxOf(encoding.Summarize[int64](seg), col)
	case types.TypeFloat64:
		return minMaxOf(encoding.Summarize[float64](seg), col)
	default:
		return minMaxOf(encoding.Summarize[string](seg), col)
	}
}

// minMaxOf reads the bounds off the ends of the sorted distinct values. NaN
// is left out: no comparison matches it, so no prunable predicate wants it.
func minMaxOf[T types.Ordered](sum encoding.Summary[T], col types.ColumnID) *MinMaxFilter {
	sum, _ = sum.SplitNaN()
	n := len(sum.Values)
	if n == 0 {
		return &MinMaxFilter{col: col, empty: true}
	}
	return &MinMaxFilter{col: col, min: types.FromNative(sum.Values[0]), max: types.FromNative(sum.Values[n-1])}
}

// Min returns the smallest non-NULL value (ok=false for all-NULL chunks).
func (f *MinMaxFilter) Min() (types.Value, bool) { return f.min, !f.empty }

// Max returns the largest non-NULL value (ok=false for all-NULL chunks).
func (f *MinMaxFilter) Max() (types.Value, bool) { return f.max, !f.empty }

// FilterType implements storage.ChunkFilter.
func (f *MinMaxFilter) FilterType() string { return "MinMax" }

// ColumnID implements storage.ChunkFilter.
func (f *MinMaxFilter) ColumnID() types.ColumnID { return f.col }

// CanPruneEquals implements storage.ChunkFilter.
func (f *MinMaxFilter) CanPruneEquals(v types.Value) bool {
	if f.empty {
		return true
	}
	if c, ok := types.Compare(v, f.min); ok && c < 0 {
		return true
	}
	if c, ok := types.Compare(v, f.max); ok && c > 0 {
		return true
	}
	return false
}

// CanPruneRange implements storage.ChunkFilter.
func (f *MinMaxFilter) CanPruneRange(lo, hi *types.Value) bool {
	if f.empty {
		return true
	}
	if hi != nil {
		if c, ok := types.Compare(*hi, f.min); ok && c < 0 {
			return true
		}
	}
	if lo != nil {
		if c, ok := types.Compare(*lo, f.max); ok && c > 0 {
			return true
		}
	}
	return false
}

// MemoryUsage implements storage.ChunkFilter.
func (f *MinMaxFilter) MemoryUsage() int64 {
	size := int64(2 * 48)
	size += int64(len(f.min.S) + len(f.max.S))
	return size
}

// FilterKind selects a filter implementation for CreateFilter.
type FilterKind uint8

const (
	// MinMax builds a MinMaxFilter.
	MinMax FilterKind = iota
	// CQF builds a CountingQuotientFilter.
	CQF
	// RangeHist builds a pruning-optimized range histogram.
	RangeHist
)

// String names the filter kind.
func (k FilterKind) String() string {
	switch k {
	case MinMax:
		return "MinMax"
	case CQF:
		return "CQF"
	case RangeHist:
		return "RangeHist"
	default:
		return "?"
	}
}

// CreateFilter builds a filter of the given kind over one segment.
func CreateFilter(kind FilterKind, seg storage.Segment, col types.ColumnID) (storage.ChunkFilter, error) {
	switch kind {
	case MinMax:
		return NewMinMaxFilter(seg, col), nil
	case CQF:
		return NewCountingQuotientFilter(seg, col, DefaultRemainderBits), nil
	case RangeHist:
		return NewRangeHistogram(seg, col, DefaultRangeHistBins)
	default:
		return nil, fmt.Errorf("filter: unknown filter kind %d", kind)
	}
}

// AttachDefaultFilters attaches the default pruning filters (min-max plus,
// on numeric columns, a range histogram) to every column of every immutable
// chunk that lacks them; both are read off one summary of the segment. This
// is what the benchmark binaries run after bulk loading.
func AttachDefaultFilters(t *storage.Table) error {
	for _, c := range t.Chunks() {
		if !c.IsImmutable() {
			continue
		}
		for col := 0; col < c.ColumnCount(); col++ {
			id := types.ColumnID(col)
			minMax, rangeHist := true, true
			for _, f := range c.Filters(id) {
				switch f.(type) {
				case *MinMaxFilter:
					minMax = false
				case *RangeHistogram:
					rangeHist = false
				}
			}
			switch seg := c.GetSegment(id); seg.DataType() {
			case types.TypeInt64:
				attachDefaults[int64](c, id, seg, minMax, rangeHist)
			case types.TypeFloat64:
				attachDefaults[float64](c, id, seg, minMax, rangeHist)
			default:
				if minMax {
					c.AddFilter(NewMinMaxFilter(seg, id))
				}
			}
		}
	}
	return nil
}

func attachDefaults[T int64 | float64](c *storage.Chunk, col types.ColumnID, seg storage.Segment, minMax, rangeHist bool) {
	if !minMax && !rangeHist {
		return
	}
	sum := encoding.Summarize[T](seg)
	if minMax {
		c.AddFilter(minMaxOf(sum, col))
	}
	if rangeHist {
		c.AddFilter(rangeHistOf(sum, col, DefaultRangeHistBins))
	}
}
