package storage

import (
	"slices"
	"sync"
	"sync/atomic"

	"hyrise/internal/types"
)

// Positions is a position list into one table — the table whose segments
// store the values — together with its split by that table's chunks. It is all
// a reference segment holds besides a column id: the columns of an operator
// output that are read at the same rows share one Positions, so N columns of
// an intermediate cost one list and one split, not N (paper §2.6).
//
// A list is given as rows or, by a scan, as one chunk's offsets; the other
// form is derived on first use, at most once.
type Positions struct {
	table   *Table
	scanned bool // given as one chunk's offsets: runs holds them, rows is derived
	n       int
	once    sync.Once
	rows    types.PosList
	runs    []PosRun
	nulls   []int32      // the rows of the list that hold NullRowID
	users   atomic.Int32 // reference segments over the list, for MemoryUsage
}

// PosRun is the part of a position list that falls into one chunk: the
// offsets in list order and the rows of the list they stand at — Slots, or
// with nil Slots the rows from Start on (Start is 0 beside Slots).
type PosRun struct {
	Chunk   types.ChunkID
	Offsets []types.ChunkOffset
	Start   int
	Slots   []int32
}

// NewPositions wraps rows, positions into t.
func NewPositions(t *Table, rows types.PosList) *Positions {
	return &Positions{table: t, n: len(rows), rows: rows}
}

// ChunkPositions lists the rows of t's chunk at offsets, in that order — a
// scan's output. The split is the offsets themselves.
func ChunkPositions(t *Table, chunk types.ChunkID, offsets []types.ChunkOffset) *Positions {
	return &Positions{table: t, scanned: true, n: len(offsets), runs: []PosRun{{Chunk: chunk, Offsets: offsets}}}
}

// Select lists rows idx of p, NullRowID where the index is negative (the
// NULL-extended side of an outer join). When p came out of a reference
// segment this composes the two lists: the result addresses the storing table.
func Select[I int32 | types.ChunkOffset](p *Positions, idx []I) *Positions {
	rows, out := p.Rows(), make(types.PosList, len(idx))
	for i, r := range idx {
		if int32(r) < 0 {
			out[i] = types.NullRowID
		} else {
			out[i] = rows[r]
		}
	}
	return NewPositions(p.table, out)
}

// Table returns the table the positions address.
func (p *Positions) Table() *Table { return p.table }

// Rows returns the list row by row.
func (p *Positions) Rows() types.PosList {
	if p.scanned {
		p.once.Do(func() { p.rows = p.appendRows(make(types.PosList, 0, p.n)) })
	}
	return p.rows
}

// appendRows appends the list to dst without caching it.
func (p *Positions) appendRows(dst types.PosList) types.PosList {
	if !p.scanned {
		return append(dst, p.rows...)
	}
	for _, o := range p.runs[0].Offsets {
		dst = append(dst, types.RowID{Chunk: p.runs[0].Chunk, Offset: o})
	}
	return dst
}

// at returns row i of the list.
func (p *Positions) at(i types.ChunkOffset) types.RowID {
	if p.scanned {
		return types.RowID{Chunk: p.runs[0].Chunk, Offset: p.runs[0].Offsets[i]}
	}
	return p.rows[i]
}

// Split returns the list chunk by chunk, ascending, and the rows of it that
// address no row. A reader gathers each run from that chunk's segment straight
// into the rows the run names.
func (p *Positions) Split() (runs []PosRun, nulls []int32) {
	if !p.scanned {
		p.once.Do(p.split)
	}
	return p.runs, p.nulls
}

// split regroups rows by chunk: a counting pass, then one that deals the
// offsets out. Where every chunk's rows stand together in the list (one
// chunk, or the probe side of a join) the runs need no slots.
func (p *Positions) split() {
	counts := make([]int, p.table.ChunkCount())
	blocks, chunks, prev := 0, 0, types.NullRowID.Chunk
	for _, r := range p.rows {
		if !r.IsNull() {
			if r.Chunk != prev {
				blocks++
			}
			if counts[r.Chunk]++; counts[r.Chunk] == 1 {
				chunks++
			}
		}
		prev = r.Chunk
	}
	scattered := blocks > chunks
	for c, n := range counts {
		if n > 0 {
			counts[c] = len(p.runs) // from here on: chunk → its run
			p.runs = append(p.runs, PosRun{Chunk: types.ChunkID(c), Offsets: make([]types.ChunkOffset, 0, n)})
			if scattered {
				p.runs[counts[c]].Slots = make([]int32, 0, n)
			}
		}
	}
	for i, r := range p.rows {
		if r.IsNull() {
			p.nulls = append(p.nulls, int32(i))
			continue
		}
		run := &p.runs[counts[r.Chunk]]
		run.Offsets = append(run.Offsets, r.Offset)
		if scattered {
			run.Slots = append(run.Slots, int32(i))
		} else if len(run.Offsets) == 1 {
			run.Start = i
		}
	}
}

// posGroup is the columns of a table that are read through one position list
// per chunk: the reference segments an operator built over one Positions, or
// (base nil) the columns whose values the table stores itself.
type posGroup struct {
	base    *Table
	cols    []types.ColumnID // in this table
	refCols []types.ColumnID // in base
}

// groupColumns derives a table's position groups from its first chunk and
// checks, once per table, what every reader of a reference column relies on:
// a column is stored in all chunks or references one stored column in all
// chunks, the columns of a group share their Positions in every chunk, and no
// reference points at a reference (chains are one level deep). A table
// without chunks stores what little it has: positions into it are NullRowID.
func groupColumns(nCols int, chunks []*Chunk) []posGroup {
	// The first group's columns take the halves of one array; with all columns
	// in one group (a stored table, or one list) that is all they need.
	ids := make([]types.ColumnID, 2*nCols)
	groups := make([]posGroup, 0, 1)
	for col := 0; col < nCols; col++ {
		pos, base, refCol := (*Positions)(nil), (*Table)(nil), types.ColumnID(col)
		if len(chunks) > 0 {
			if ref, ok := chunks[0].segments[col].(*ReferenceSegment); ok {
				pos, base, refCol = ref.pos, ref.pos.table, ref.column
			}
		}
		gi := slices.IndexFunc(groups, func(g posGroup) bool { return g.base == base && (base == nil || chunks[0].positions(g) == pos) })
		if gi < 0 {
			gi, groups = len(groups), append(groups, posGroup{base: base})
			if gi == 0 {
				groups[0].cols, groups[0].refCols = ids[:0:nCols], ids[nCols:nCols]
			}
		}
		groups[gi].cols, groups[gi].refCols = append(groups[gi].cols, types.ColumnID(col)), append(groups[gi].refCols, refCol)
	}
	for _, c := range chunks {
		for _, g := range groups {
			pos := c.positions(g)
			for i, col := range g.cols {
				ref, isRef := c.segments[col].(*ReferenceSegment)
				if isRef != (g.base != nil) || isRef && (ref.pos != pos || ref.column != g.refCols[i] ||
					pos.table != g.base || !g.base.stores(ref.column)) {
					panic("storage: a chunk breaks the invariants of a reference table")
				}
			}
		}
	}
	return groups
}

// stores reports whether t holds col's values itself.
func (t *Table) stores(col types.ColumnID) bool {
	return slices.ContainsFunc(t.groups, func(g posGroup) bool { return g.base == nil && slices.Contains(g.cols, col) })
}

// positions returns the list group g's columns share in this chunk (nil for
// the stored columns, whose chunk may be written to meanwhile).
func (c *Chunk) positions(g posGroup) *Positions {
	if g.base == nil {
		return nil
	}
	return c.segments[g.cols[0]].(*ReferenceSegment).pos
}

// refSegments builds a chunk's worth of reference segments over one position
// list per group of t.
func (t *Table) refSegments(lists []*Positions) []Segment {
	segs := make([]Segment, len(t.defs))
	for gi, g := range t.groups {
		for i, col := range g.cols {
			segs[col] = NewReferenceSegment(lists[gi], g.refCols[i])
		}
	}
	return segs
}

// SelectChunk returns the segments of an output chunk that holds the rows of
// t's chunk ci at offsets: stored columns are referenced in place, reference
// columns composed down to the table they point into.
func (t *Table) SelectChunk(ci types.ChunkID, offsets []types.ChunkOffset) []Segment {
	c := t.GetChunk(ci)
	lists := make([]*Positions, len(t.groups))
	for gi, g := range t.groups {
		if pos := c.positions(g); pos != nil {
			lists[gi] = Select(pos, offsets)
		} else {
			lists[gi] = ChunkPositions(t, ci, offsets)
		}
	}
	return t.refSegments(lists)
}

// TableRows addresses every row of a table by its index in row order (chunk
// by chunk): per position group one list over all rows, which Select cuts
// down to an operator's output.
type TableRows struct {
	t     *Table
	n     int
	lists []*Positions
}

// AllRows lists every row of t. A reference group of a one-chunk table is
// that chunk's list as it is.
func (t *Table) AllRows() *TableRows {
	chunks := t.Chunks()
	r := &TableRows{t: t, lists: make([]*Positions, len(t.groups))}
	for _, c := range chunks {
		r.n += c.Size()
	}
	for gi, g := range t.groups {
		if len(chunks) == 1 && g.base != nil {
			r.lists[gi] = chunks[0].positions(g)
			continue
		}
		base, rows := t, make(types.PosList, 0, r.n)
		for ci, c := range chunks {
			if pos := c.positions(g); pos != nil {
				base, rows = g.base, pos.appendRows(rows)
				continue
			}
			for o := 0; o < c.Size(); o++ {
				rows = append(rows, types.RowID{Chunk: types.ChunkID(ci), Offset: types.ChunkOffset(o)})
			}
		}
		r.lists[gi] = NewPositions(base, rows)
	}
	return r
}

// Table returns the table whose rows these are.
func (r *TableRows) Table() *Table { return r.t }

// Len returns the number of rows.
func (r *TableRows) Len() int { return r.n }

// Positions returns the list column col is read through: into the table that
// stores it, which is the table itself for a column it stores.
func (r *TableRows) Positions(col types.ColumnID) *Positions {
	gi := slices.IndexFunc(r.t.groups, func(g posGroup) bool { return slices.Contains(g.cols, col) })
	return r.lists[gi]
}

// Select returns the segments of an output chunk that holds rows idx of the
// table, NULL rows where the index is negative.
func (r *TableRows) Select(idx []int32) []Segment {
	lists := make([]*Positions, len(r.lists))
	for gi, pos := range r.lists {
		lists[gi] = Select(pos, idx)
	}
	return r.t.refSegments(lists)
}
