// Package filter implements Hyrise's chunk-pruning filters (paper §2.4):
// lightweight, space-efficient data structures attached to immutable chunks
// that answer approximate membership queries. A filter may only report
// "prunable" when the predicate definitely matches no row of the chunk —
// false positives (not pruning although no row matches) are allowed, false
// pruning is not.
//
// Two filters are implemented: counting quotient filters (Pandey et al.) and
// pruning-optimized range histograms (comparable to adaptive range filters);
// both also support selectivity estimation. The classic min-max filter
// ("zone map") is not one of them: every chunk of a stored table keeps its
// columns' bounds itself, written with the rows (storage.Zone), and the
// scan's prune rung asks those before it asks any filter.
package filter

import (
	"hyrise/internal/encoding"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// AttachDefaultFilters attaches the default pruning filter — a range
// histogram on numeric columns, which finds the gaps inside the bounds the
// chunk's zone already knows — to every column of every immutable chunk that
// lacks it. This is what the benchmark binaries run after bulk loading.
func AttachDefaultFilters(t *storage.Table) error {
	for _, c := range t.Chunks() {
		if !c.IsImmutable() {
			continue
		}
		for col := 0; col < c.ColumnCount(); col++ {
			id := types.ColumnID(col)
			switch seg := c.GetSegment(id); seg.DataType() {
			case types.TypeInt64:
				attachDefaults[int64](c, id, seg)
			case types.TypeFloat64:
				attachDefaults[float64](c, id, seg)
			}
		}
	}
	return nil
}

func attachDefaults[T int64 | float64](c *storage.Chunk, col types.ColumnID, seg storage.Segment) {
	if !hasRangeHistogram(c, col) {
		AttachDefault(c, col, encoding.Summarize[T](seg))
	}
}

// AttachDefault attaches the default filter of a numeric column, built from
// the summary the caller already has of it — sealing a chunk summarizes each
// column once, for the encoding and for this.
func AttachDefault[T int64 | float64](c *storage.Chunk, col types.ColumnID, sum encoding.Summary[T]) {
	if !hasRangeHistogram(c, col) {
		c.AddFilter(rangeHistOf(sum, col, DefaultRangeHistBins))
	}
}

func hasRangeHistogram(c *storage.Chunk, col types.ColumnID) bool {
	for _, f := range c.Filters(col) {
		if _, ok := f.(*RangeHistogram); ok {
			return true
		}
	}
	return false
}
