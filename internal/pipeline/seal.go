package pipeline

import (
	"hyrise/internal/encoding"
	"hyrise/internal/filter"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// SealChunk gives an immutable chunk the form it keeps: every column that is
// still a value segment is summarized once, takes the representation the size
// model picks for it (encoding.Seal) and, if numeric, the range-histogram
// filter built from the same summary. The engine installs it as the catalog's
// Sealer, so it runs on each chunk of a registered table as the append that
// fills it returns; the encoding advisor runs it on what loaders left
// unencoded. Segments that are already encoded are left alone.
func SealChunk(c *storage.Chunk) {
	for col := 0; col < c.ColumnCount(); col++ {
		id := types.ColumnID(col)
		switch seg, zone := c.SegmentWithZone(id); s := seg.(type) {
		case *storage.ValueSegment[int64]:
			filter.AttachDefault(c, id, sealColumn(c, id, s, zone))
		case *storage.ValueSegment[float64]:
			filter.AttachDefault(c, id, sealColumn(c, id, s, zone))
		case *storage.ValueSegment[string]:
			sealColumn(c, id, s, zone)
		}
	}
}

func sealColumn[T types.Ordered](c *storage.Chunk, id types.ColumnID, seg *storage.ValueSegment[T], zone storage.Zone) encoding.Summary[T] {
	sealed, sum := encoding.Seal(seg, zone.Ascending >= seg.Len())
	c.ReplaceSegment(id, sealed)
	return sum
}
