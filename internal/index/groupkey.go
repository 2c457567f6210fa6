package index

import (
	"hyrise/internal/encoding"
	"hyrise/internal/types"
)

// GroupKeyIndex is Hyrise's own index structure (paper §2.4, [16]). It
// exploits the order-preserving dictionary of a dictionary-encoded segment:
// for every value id, a CSR-style layout stores the chunk offsets carrying
// that id. Lookups binary-search the dictionary for the value-id range and
// return the contiguous postings slice — no per-row comparisons at all.
type GroupKeyIndex[T types.Ordered] struct {
	seg       *encoding.DictionarySegment[T]
	col       types.ColumnID
	offsets   []uint32            // len = dict size + 2 (incl. null bucket)
	positions []types.ChunkOffset // grouped by value id, ascending within
}

// newGroupKey groups a dictionary segment's offsets by value id. The NaN and
// NULL ids get buckets too, but lookups search the comparable ids only.
func newGroupKey[T types.Ordered](seg *encoding.DictionarySegment[T], col types.ColumnID) *GroupKeyIndex[T] {
	av := seg.AttributeVector()
	n := av.Len()
	buckets := seg.UniqueValueCount() + 1 // +1 for the null bucket

	// Counting sort of offsets by value id (CSR construction).
	counts := make([]uint32, buckets+1)
	codes := av.DecodeAll(make([]uint64, 0, n))
	for _, id := range codes {
		counts[id+1]++
	}
	for i := 1; i <= buckets; i++ {
		counts[i] += counts[i-1]
	}
	positions := make([]types.ChunkOffset, n)
	fill := make([]uint32, buckets)
	for i, id := range codes {
		positions[counts[id]+fill[id]] = types.ChunkOffset(i)
		fill[id]++
	}
	return &GroupKeyIndex[T]{seg: seg, col: col, offsets: counts, positions: positions}
}

// postingsForIDRange returns the contiguous postings of ids in [lo, hi).
func (idx *GroupKeyIndex[T]) postingsForIDRange(lo, hi encoding.ValueID) []types.ChunkOffset {
	if lo >= hi {
		return nil
	}
	return idx.positions[idx.offsets[lo]:idx.offsets[hi]]
}

// IndexType implements storage.ChunkIndex.
func (idx *GroupKeyIndex[T]) IndexType() string { return "GroupKey" }

// ColumnID implements storage.ChunkIndex.
func (idx *GroupKeyIndex[T]) ColumnID() types.ColumnID { return idx.col }

// Equals implements storage.ChunkIndex.
func (idx *GroupKeyIndex[T]) Equals(v types.Value) []types.ChunkOffset {
	probe, ok := probeValue[T](v)
	if !ok {
		return nil
	}
	lo, hi := idx.seg.LowerBound(probe), idx.seg.UpperBound(probe)
	src := idx.postingsForIDRange(lo, hi)
	out := make([]types.ChunkOffset, len(src))
	copy(out, src)
	return out
}

// Range implements storage.ChunkIndex.
func (idx *GroupKeyIndex[T]) Range(lo, hi *types.Value) []types.ChunkOffset {
	loID := encoding.ValueID(0)
	hiID := encoding.ValueID(idx.seg.ComparableCount())
	if lo != nil {
		probe, ok := probeValue[T](*lo)
		if !ok {
			return nil
		}
		loID = idx.seg.LowerBound(probe)
	}
	if hi != nil {
		probe, ok := probeValue[T](*hi)
		if !ok {
			return nil
		}
		hiID = idx.seg.UpperBound(probe)
	}
	src := idx.postingsForIDRange(loID, hiID)
	out := make([]types.ChunkOffset, len(src))
	copy(out, src)
	return out
}

// MemoryUsage implements storage.ChunkIndex. The dictionary itself belongs
// to the segment and is not double-counted.
func (idx *GroupKeyIndex[T]) MemoryUsage() int64 {
	return int64(len(idx.offsets))*4 + int64(len(idx.positions))*4 + 48
}
