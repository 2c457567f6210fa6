package operators

import (
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// This file builds operator outputs as reference tables: positions instead
// of copies (paper §2.6, "operators do not need to perform expensive
// materializations of intermediary results, but can also pass positional
// references to the next operator"). The positions themselves — shared per
// group of columns, composed through a reference input down to the table that
// stores the values — are storage.Positions' business.

// buildReferenceTable assembles an output table from per-chunk offset subsets
// of the input. Empty chunks are dropped.
func buildReferenceTable(input *storage.Table, offsetsPerChunk [][]types.ChunkOffset) *storage.Table {
	var chunks []*storage.Chunk
	for ci, offsets := range offsetsPerChunk {
		if len(offsets) > 0 {
			chunks = append(chunks, storage.NewChunk(input.SelectChunk(types.ChunkID(ci), offsets), nil))
		}
	}
	return storage.NewReferenceTable(input.ColumnDefinitions(), chunks)
}

// oneChunkTable wraps the n rows of an output's segments as a table; no rows,
// no chunk.
func oneChunkTable(defs []storage.ColumnDefinition, segments []storage.Segment, n int) *storage.Table {
	if n == 0 {
		return storage.NewReferenceTable(defs, nil)
	}
	return storage.NewReferenceTable(defs, []*storage.Chunk{storage.NewChunk(segments, nil)})
}

// identityOffsets lists every offset of an n-row chunk in order.
func identityOffsets(n int) []types.ChunkOffset { return offsetRange(0, n) }

// offsetRange lists the offsets [first, last).
func offsetRange(first, last int) []types.ChunkOffset {
	out := make([]types.ChunkOffset, last-first)
	for i := range out {
		out[i] = types.ChunkOffset(first + i)
	}
	return out
}
