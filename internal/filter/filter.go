// Package filter seals immutable chunks and derives Hyrise's range filter
// (paper §2.4, comparable to adaptive range filters): the bins of every
// numeric column of a sealed chunk, which its zone keeps beside the bounds
// (storage.Zone.Bins). A predicate that falls into a gap between the bins
// matches no row of the chunk, so the scan's prune rung, which asks the zone,
// skips it.
package filter

import (
	"hyrise/internal/encoding"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// DefaultRangeHistBins is the number of bins the range filter lays over a
// column.
const DefaultRangeHistBins = 32

// Seal gives an immutable chunk the form it keeps (DESIGN.md §2 "Chunk
// lifecycle"): each column takes the representation encoding.Seal builds for
// spec and each numeric column its bins, derived from the Summary that seal
// returns. A nil spec is the size model, which leaves the columns that are
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
			c.SetBins(id, binsOf(sum, DefaultRangeHistBins))
		case encoding.Summary[float64]:
			c.SetBins(id, binsOf(sum, DefaultRangeHistBins))
		}
	}
}

// AttachDefaultFilters gives every numeric column of every immutable chunk
// the bins it lacks (AttachDefaults). ROADMAP 1(h) deletes it with its last
// caller, bench/htap.go.
func AttachDefaultFilters(t *storage.Table) error {
	for _, c := range t.Chunks() {
		if c.IsImmutable() {
			AttachDefaults(c)
		}
	}
	return nil
}

// AttachDefaults gives every numeric column of an immutable chunk the bins it
// lacks, derived from the Summary of the segment as it is stored: it encodes
// nothing. Snapshot restore gives a chunk back the bins it had (HasDefaults)
// this way.
func AttachDefaults(c *storage.Chunk) {
	for col := 0; col < c.ColumnCount(); col++ {
		id := types.ColumnID(col)
		switch seg, zone := c.SegmentWithZone(id); {
		case zone.Bins != nil:
		case seg.DataType() == types.TypeInt64:
			c.SetBins(id, binsOf(encoding.Summarize[int64](seg), DefaultRangeHistBins))
		case seg.DataType() == types.TypeFloat64:
			c.SetBins(id, binsOf(encoding.Summarize[float64](seg), DefaultRangeHistBins))
		}
	}
}

// HasDefaults reports whether some column of the chunk carries its bins.
func HasDefaults(c *storage.Chunk) bool {
	for col := 0; col < c.ColumnCount(); col++ {
		if z, _ := c.Zone(types.ColumnID(col)); z.Bins != nil {
			return true
		}
	}
	return false
}

// binsOf lays at most n bins over the values of a summary in the float domain,
// without NaN, which no comparison matches: each bin holds equally many
// distinct values — ints past 2^53 that share a float are one — and spans
// from its first to its last. A summary of no such value has no bins, which
// is a non-nil empty list.
func binsOf[T int64 | float64](sum encoding.Summary[T], n int) [][2]float64 {
	sum, _ = sum.SplitNaN()
	vals := sum.Values
	distinct := 0
	for i, v := range vals {
		if i == 0 || float64(v) != float64(vals[i-1]) {
			distinct++
		}
	}
	perBin := max(1, (distinct+n-1)/n)
	bins := make([][2]float64, 0, (distinct+perBin-1)/perBin)
	held := 0 // distinct values in the last bin
	for _, v := range vals {
		f := float64(v)
		switch {
		case len(bins) > 0 && f == bins[len(bins)-1][1]:
		case len(bins) > 0 && held < perBin:
			bins[len(bins)-1][1] = f
			held++
		default:
			bins = append(bins, [2]float64{f, f})
			held = 1
		}
	}
	return bins
}
