package operators

import (
	"reflect"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// This file builds operator outputs as reference tables: positions instead
// of copies (paper §2.6, "operators do not need to perform expensive
// materializations of intermediary results, but can also pass positional
// references to the next operator").

// subsetChunk builds one output chunk selecting the given rows of the input
// table. Rows are addressed in *input* coordinates. For input columns that
// are themselves reference segments, the positions are composed down to the
// base table so reference chains stay shallow; composed position lists are
// shared across columns whose inputs share the same PosList objects.
func subsetChunk(input *storage.Table, rows types.PosList) *storage.Chunk {
	nCols := input.ColumnCount()
	segments := make([]storage.Segment, nCols)
	// refs holds, per column, the reference segments of the chunks rows touch.
	span := chunkSpan(rows)
	var one [1]*storage.ReferenceSegment // a scan's output touches one chunk: no allocation
	refs := one[:]
	if n := int(span.hi - span.lo); n != 1 {
		refs = make([]*storage.ReferenceSegment, n)
	}

	type composeKey struct {
		reprPtr uintptr // identity of the first referenced source PosList
		table   *storage.Table
	}
	composed := make(map[composeKey]types.PosList)

	// directPos is the identity case: output references input directly;
	// shared across all non-composable columns.
	var directPos types.PosList

	for col := 0; col < nCols; col++ {
		id := types.ColumnID(col)
		base, refCol, ok := commonBase(input, id, rows, span, refs)
		if !ok {
			if directPos == nil {
				directPos = rows
			}
			segments[col] = storage.NewReferenceSegment(input, id, directPos)
			continue
		}
		key := composeKey{reprPtr: posListPtr(refs[span.first-span.lo].PosList()), table: base}
		pos, cached := composed[key]
		if !cached {
			pos = make(types.PosList, len(rows))
			for i, r := range rows {
				if r.IsNull() {
					pos[i] = types.NullRowID
					continue
				}
				pos[i] = refs[r.Chunk-span.lo].PosList()[r.Offset]
			}
			composed[key] = pos
		}
		segments[col] = storage.NewReferenceSegment(base, refCol, pos)
	}
	return storage.NewChunk(segments, nil)
}

// rowSpan is the range of chunk ids [lo, hi) the non-NULL rows of a position
// list touch, and the chunk of the first of them.
type rowSpan struct{ lo, hi, first types.ChunkID }

func chunkSpan(rows types.PosList) rowSpan {
	var s rowSpan
	for _, r := range rows {
		switch {
		case r.IsNull():
		case s.hi == 0:
			s = rowSpan{lo: r.Chunk, hi: r.Chunk + 1, first: r.Chunk}
		case r.Chunk < s.lo:
			s.lo = r.Chunk
		case r.Chunk >= s.hi:
			s.hi = r.Chunk + 1
		}
	}
	return s
}

// commonBase checks whether column id is stored as reference segments with
// one common base table and referenced column across all chunks touched by
// rows. It returns the base and the referenced column, and leaves the touched
// chunks' segments in refs, indexed by chunk id - span.lo — resolved once per
// chunk, since rows (a join's build side) may visit the chunks in any order.
// The first touched chunk's PosList is the compose-cache key: columns whose
// source chunks share PosList objects produce identical composed lists.
func commonBase(input *storage.Table, id types.ColumnID, rows types.PosList, span rowSpan, refs []*storage.ReferenceSegment) (*storage.Table, types.ColumnID, bool) {
	clear(refs)
	var base *storage.Table
	var refCol types.ColumnID
	for _, r := range rows {
		if r.IsNull() || refs[r.Chunk-span.lo] != nil {
			continue
		}
		ref, ok := input.GetChunk(r.Chunk).GetSegment(id).(*storage.ReferenceSegment)
		if !ok {
			return nil, 0, false
		}
		if base == nil {
			base, refCol = ref.ReferencedTable(), ref.ReferencedColumn()
		} else if base != ref.ReferencedTable() || refCol != ref.ReferencedColumn() {
			return nil, 0, false
		}
		refs[r.Chunk-span.lo] = ref
	}
	// base == nil: all-NULL or empty, nothing to compose.
	return base, refCol, base != nil
}

func posListPtr(p types.PosList) uintptr {
	if len(p) == 0 {
		return 0
	}
	return reflect.ValueOf(p).Pointer()
}

// buildReferenceTable assembles an output table from per-chunk row subsets
// of the input. Empty chunks are dropped.
func buildReferenceTable(input *storage.Table, rowsPerChunk []types.PosList, defs []storage.ColumnDefinition) *storage.Table {
	if defs == nil {
		defs = input.ColumnDefinitions()
	}
	var chunks []*storage.Chunk
	for _, rows := range rowsPerChunk {
		if len(rows) == 0 {
			continue
		}
		chunks = append(chunks, subsetChunk(input, rows))
	}
	return storage.NewReferenceTable(defs, chunks)
}

// identityPositions lists all rows of a chunk in order.
func identityPositions(chunkID types.ChunkID, n int) types.PosList {
	out := make(types.PosList, n)
	for i := range out {
		out[i] = types.RowID{Chunk: chunkID, Offset: types.ChunkOffset(i)}
	}
	return out
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

// flattenRows lists every row of a table in order (chunk by chunk).
func flattenRows(t *storage.Table) types.PosList {
	out := make(types.PosList, 0, t.RowCount())
	for ci, c := range t.Chunks() {
		for o := 0; o < c.Size(); o++ {
			out = append(out, types.RowID{Chunk: types.ChunkID(ci), Offset: types.ChunkOffset(o)})
		}
	}
	return out
}
