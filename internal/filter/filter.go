// Package filter implements Hyrise's chunk-pruning filter (paper §2.4): a
// pruning-optimized range histogram (comparable to adaptive range filters)
// attached to every numeric column of an immutable chunk when it is sealed. A
// filter may only report "prunable" when the predicate definitely matches no
// row of the chunk — false positives (not pruning although no row matches) are
// allowed, false pruning is not. The classic min-max filter ("zone map") is
// not a filter here: every chunk of a stored table keeps its columns' bounds
// itself, written with the rows (storage.Zone), and the scan's prune rung asks
// those before it asks the histogram, which finds the gaps inside them.
package filter

import (
	"hyrise/internal/encoding"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Seal gives an immutable chunk the form it keeps (DESIGN.md §2 "Chunk
// lifecycle"): each column takes the representation encoding.Seal builds for
// spec and each numeric column its default filter, built from the Summary that
// seal returns. A nil spec is the size model, which leaves the columns that are
// already encoded alone. The catalog's Sealer is Seal(c, nil); hyrise-bench
// passes its spec.
func Seal(c *storage.Chunk, spec *encoding.Spec) {
	for col := 0; col < c.ColumnCount(); col++ {
		id := types.ColumnID(col)
		seg, zone := c.SegmentWithZone(id)
		if cur, _ := encoding.SpecOf(seg); spec == nil && cur.Encoding != encoding.Unencoded {
			continue
		}
		sealed, sum := encoding.Seal(seg, zone.Ascending >= seg.Len(), spec)
		c.ReplaceSegment(id, sealed)
		switch sum := sum.(type) {
		case encoding.Summary[int64]:
			attachDefault(c, id, sum)
		case encoding.Summary[float64]:
			attachDefault(c, id, sum)
		}
	}
}

// AttachDefaultFilters attaches the default pruning filter — a range
// histogram on numeric columns, which finds the gaps inside the bounds the
// chunk's zone already knows — to every column of every immutable chunk that
// lacks it (AttachDefaults).
func AttachDefaultFilters(t *storage.Table) error {
	for _, c := range t.Chunks() {
		if c.IsImmutable() {
			AttachDefaults(c)
		}
	}
	return nil
}

// AttachDefaults attaches the default filter to every numeric column of an
// immutable chunk that lacks it, built from the Summary of the segment as it
// is stored: it encodes nothing. Snapshot restore gives a chunk back the
// filters it had (HasDefaults) this way.
func AttachDefaults(c *storage.Chunk) {
	for col := 0; col < c.ColumnCount(); col++ {
		id := types.ColumnID(col)
		if hasRangeHistogram(c, id) {
			continue
		}
		switch seg := c.GetSegment(id); seg.DataType() {
		case types.TypeInt64:
			attachDefault(c, id, encoding.Summarize[int64](seg))
		case types.TypeFloat64:
			attachDefault(c, id, encoding.Summarize[float64](seg))
		}
	}
}

// HasDefaults reports whether some column of the chunk carries its default
// filter.
func HasDefaults(c *storage.Chunk) bool {
	for col := 0; col < c.ColumnCount(); col++ {
		if hasRangeHistogram(c, types.ColumnID(col)) {
			return true
		}
	}
	return false
}

// attachDefault attaches the default filter of a numeric column, built from
// a summary of it.
func attachDefault[T int64 | float64](c *storage.Chunk, col types.ColumnID, sum encoding.Summary[T]) {
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
