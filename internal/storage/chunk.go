package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"hyrise/internal/types"
)

// An MVCC block is the unit the concurrency columns are summarized by: 256
// rows, so one materialized column of one block is a 2 KiB array (DESIGN.md §2
// "MVCC" records the measurement behind the constant). A group is the unit the
// directory grows by: 32 blocks' headers, allocated with the first store into
// its 8192 rows, so an unchunked table's directory stays a few KB.
const (
	mvccBlockShift = 8
	MvccBlockRows  = 1 << mvccBlockShift
	mvccGroupShift = 13
)

// The two MVCC columns. A row nobody has committed, invalidated or claimed
// holds mvccFresh in both.
const (
	mvccBegin = iota
	mvccEnd
)

const mvccFresh = uint64(types.MaxCommitID)

type mvccCells [MvccBlockRows]atomic.Uint64

// mvccColumn is one column of one block: every row holds scalar until a store
// that differs from it materializes cells.
type mvccColumn struct {
	scalar atomic.Uint64
	cells  atomic.Pointer[mvccCells]
}

// materialize installs the cell array, filled with the scalar. Concurrent
// callers settle on one array by CAS and then store into that one, so no store
// is lost; readers see either no array (and read the scalar every cell of the
// array starts as) or the array.
func (c *mvccColumn) materialize() *mvccCells {
	cells := new(mvccCells)
	if s := c.scalar.Load(); s != 0 {
		for i := range cells {
			cells[i].Store(s)
		}
	}
	if c.cells.CompareAndSwap(nil, cells) {
		return cells
	}
	return c.cells.Load()
}

type mvccBlock [2]mvccColumn

type mvccGroup [1 << (mvccGroupShift - mvccBlockShift)]mvccBlock

// MvccData holds the per-chunk concurrency-control columns (paper §2.8): for
// every row a begin commit id and an end commit id; an uncommitted insert or
// invalidation holds its owner's mark (types.HeldBy) in the cell its commit
// will stamp, so a claim on a row is its end cell. A column costs nothing
// while all rows of a block agree — fresh, bulk-loaded and restored blocks are
// two scalars — and 8 B per row from the first store that differs: begin in
// blocks that take inserts until the low-water mark passes them
// (Chunk.FreezeBegin), end in blocks a DELETE or UPDATE has claimed a row of.
// Cells are read and written atomically, readers never block writers and never
// allocate.
type MvccData struct {
	groups []atomic.Pointer[mvccGroup]
}

// NewMvccData prepares MVCC columns for up to capacity rows.
func NewMvccData(capacity int) *MvccData {
	return &MvccData{groups: make([]atomic.Pointer[mvccGroup], max(1, (capacity+1<<mvccGroupShift-1)>>mvccGroupShift))}
}

// MvccBlock reads the cells of one block's rows (addressed by chunk offset, as
// everywhere): what a reader of many rows of a block looks up once. The zero
// value is a block of a group nothing was ever stored into — every row fresh.
type MvccBlock struct{ b *mvccBlock }

// Block returns row i's block.
func (m *MvccData) Block(i types.ChunkOffset) MvccBlock {
	if g := m.groups[i>>mvccGroupShift].Load(); g != nil {
		return MvccBlock{&g[int(i>>mvccBlockShift)&(len(g)-1)]}
	}
	return MvccBlock{}
}

// blockForWrite is Block, allocating the group's block headers first.
func (m *MvccData) blockForWrite(i types.ChunkOffset) *mvccBlock {
	slot := &m.groups[i>>mvccGroupShift]
	if slot.Load() == nil {
		g := new(mvccGroup)
		for b := range g {
			for c := range g[b] {
				g[b][c].scalar.Store(mvccFresh)
			}
		}
		slot.CompareAndSwap(nil, g)
	}
	return m.Block(i).b
}

func (v MvccBlock) load(col int, i types.ChunkOffset) uint64 {
	if v.b == nil {
		return mvccFresh
	}
	if cells := v.b[col].cells.Load(); cells != nil {
		return cells[i&(MvccBlockRows-1)].Load()
	}
	return v.b[col].scalar.Load()
}

// Begin and End are MvccData's, with the block already looked up.
func (v MvccBlock) Begin(i types.ChunkOffset) types.CommitID {
	return types.CommitID(v.load(mvccBegin, i))
}
func (v MvccBlock) End(i types.ChunkOffset) types.CommitID { return types.CommitID(v.load(mvccEnd, i)) }

// AllVisible reports whether the block can answer for all its rows that they
// are visible at snapshot: one begin commit id at or below it for the whole
// block, no row ever invalidated or claimed (only begin is ever stamped, so an
// end column without an array is fresh).
func (v MvccBlock) AllVisible(snapshot types.CommitID) bool {
	b := v.b
	return b != nil && b[mvccBegin].cells.Load() == nil && b[mvccEnd].cells.Load() == nil &&
		types.CommitID(b[mvccBegin].scalar.Load()) <= snapshot
}

// cell returns row i's cell of col, materializing the column in i's block.
func (m *MvccData) cell(col int, i types.ChunkOffset) *atomic.Uint64 {
	c := &m.blockForWrite(i)[col]
	cells := c.cells.Load()
	if cells == nil {
		cells = c.materialize()
	}
	return &cells[i&(MvccBlockRows-1)]
}

// store writes v unless the row holds it already — which is what keeps a
// column in scalar form under stores that agree with it.
func (m *MvccData) store(col int, i types.ChunkOffset, v uint64) {
	if m.Block(i).load(col, i) != v {
		m.cell(col, i).Store(v)
	}
}

// Begin returns the begin commit id of the row.
func (m *MvccData) Begin(i types.ChunkOffset) types.CommitID { return m.Block(i).Begin(i) }

// SetBegin stores the begin commit id of the row.
func (m *MvccData) SetBegin(i types.ChunkOffset, cid types.CommitID) {
	m.store(mvccBegin, i, uint64(cid))
}

// StampBegin stores cid as the begin commit id of rows [0, n), where n is the
// chunk's size: what a bulk load and a restore do to all their rows at once. A
// block without a begin array stays without one — the rows of n's block past n
// are not born yet, and appendRow gives a row its fresh cells when it is. Must
// not run beside other stores to the chunk.
func (m *MvccData) StampBegin(n int, cid types.CommitID) {
	for lo := 0; lo < n; lo += MvccBlockRows {
		c := &m.blockForWrite(types.ChunkOffset(lo))[mvccBegin]
		cells := c.cells.Load()
		if cells == nil {
			c.scalar.Store(uint64(cid))
			continue
		}
		for o := range cells[:min(MvccBlockRows, n-lo)] {
			cells[o].Store(uint64(cid))
		}
	}
}

// FreezeBegin gives the begin array of row's block (in a chunk with MVCC
// columns) back once every transaction that can still read the block sees all
// its rows: when every born row — all MvccBlockRows, or on a sealed chunk the
// rows it has — holds a committed id at or below mark, the low-water mark. The
// block then holds the largest of them as its scalar, which each such reader
// compares the same way as the row's own id. The scalar is stored before the
// array is dropped, so a lock-free reader sees one form or the other; no store
// can race the drop, since every born row is committed and no row is born into
// the block any more. End arrays stay: a claim CASes into the array it loaded,
// so dropping one could lose it. frozen reports that this call dropped
// the array; above is the largest committed begin past mark that kept it, 0
// when nothing would (the block froze, holds no array, or holds a row that is
// uncommitted, rolled back or unborn).
func (c *Chunk) FreezeBegin(row types.ChunkOffset, mark types.CommitID) (frozen bool, above types.CommitID) {
	sealed := c.IsImmutable() // first: then Size is final
	born := min(MvccBlockRows, c.Size()-int(row&^(MvccBlockRows-1)))
	b := c.mvcc.Block(row).b
	if b == nil || born < MvccBlockRows && !sealed {
		return false, 0
	}
	col := &b[mvccBegin]
	cells := col.cells.Load()
	if cells == nil {
		return false, 0
	}
	var last uint64
	for i := range cells[:born] {
		v := cells[i].Load()
		if !types.CommitID(v).Committed() {
			return false, 0
		}
		last = max(last, v)
	}
	if types.CommitID(last) > mark {
		return false, types.CommitID(last)
	}
	col.scalar.Store(last)
	return col.cells.CompareAndSwap(cells, nil), 0
}

// End returns the end (invalidation) commit id of the row.
func (m *MvccData) End(i types.ChunkOffset) types.CommitID { return m.Block(i).End(i) }

// SetEnd stores the end commit id of the row.
func (m *MvccData) SetEnd(i types.ChunkOffset, cid types.CommitID) {
	m.store(mvccEnd, i, uint64(cid))
}

// Claim CASes the row's end from MaxCommitID to tid's mark (types.HeldBy), or
// finds tid's mark there; otherwise it returns the end that refused it and
// the caller aborts (paper §2.8: "if two transactions concurrently try to set
// the transaction id of a single row, only one can succeed").
func (m *MvccData) Claim(i types.ChunkOffset, tid types.TransactionID) (end types.CommitID, ok bool) {
	cell, mark := m.cell(mvccEnd, i), uint64(types.HeldBy(tid))
	for !cell.CompareAndSwap(mvccFresh, mark) {
		if v := cell.Load(); v != mvccFresh { // else released since the CAS: try again
			return types.CommitID(v), v == mark
		}
	}
	return types.HeldBy(tid), true
}

// Release gives tid's claim on the row back: its end returns to MaxCommitID.
func (m *MvccData) Release(i types.ChunkOffset, tid types.TransactionID) {
	if mark := types.HeldBy(tid); m.End(i) == mark {
		m.cell(mvccEnd, i).CompareAndSwap(uint64(mark), mvccFresh)
	}
}

// MemoryUsage returns the heap footprint of the MVCC columns: the directory,
// the block headers of the groups stored into, and every materialized array.
func (m *MvccData) MemoryUsage() int64 {
	used := int64(len(m.groups)) * 8
	for gi := range m.groups {
		g := m.groups[gi].Load()
		if g == nil {
			continue
		}
		used += int64(unsafe.Sizeof(*g))
		for b := range g {
			for c := range g[b] {
				if g[b][c].cells.Load() != nil {
					used += int64(unsafe.Sizeof(mvccCells{}))
				}
			}
		}
	}
	return used
}

// ChunkIndex is the minimal interface the storage layer needs from a
// per-chunk secondary index (implemented in internal/index: the group-key
// index). Indexes yield qualifying chunk offsets for a predicate.
type ChunkIndex interface {
	// ColumnID returns the indexed column.
	ColumnID() types.ColumnID
	// Range returns the offsets whose value lies between lo and hi: a nil
	// bound is open, a strict one excludes its own value, and an equality is
	// Range(&v, &v, false, false). They come grouped by value in value order,
	// ascending within a value.
	Range(lo, hi *types.Value, strictLo, strictHi bool) []types.ChunkOffset
	// MemoryUsage returns the estimated heap footprint in bytes.
	MemoryUsage() int64
}

// Chunk is a horizontal partition of a table holding one segment per
// column. Chunks are append-only while mutable and become immutable when
// they reach their target size; only immutable chunks carry encodings,
// indexes, and the bins of their zones.
type Chunk struct {
	segments []Segment
	mvcc     *MvccData

	mu        sync.RWMutex // guards segments replacement, zones, indexes
	immutable atomic.Bool
	zones     []Zone // one per column; nil for chunks outside a stored table
	indexes   []ChunkIndex

	// rowCount is maintained explicitly because appends to the individual
	// value segments happen under the table's append lock.
	rowCount atomic.Int64

	// placeholders counts the rows log replay has reserved and not yet filled
	// (Table.padChunk, overwriteRow): while there are any, the chunk's values
	// can still change and it does not seal. Guarded by the table's append lock.
	placeholders int
	// sealNS is what the catalog's Sealer spent on the chunk; 0 if none ran.
	sealNS atomic.Int64
	// sealing is held from the write that makes the chunk due for its seal
	// until the seal is done (Table.takeSeal, Table.seal), and by
	// SealedSnapshot.
	sealing sync.Mutex

	// viewed is set when a reader is handed segment memory (GetSegment,
	// SnapshotSegments) and cleared when overwriteRow moves the segments to
	// fresh arrays: while it is clear, nobody else can see the arrays and log
	// replay may write into them in place.
	viewed atomic.Bool
}

// NewChunk creates a chunk over the given segments. mvcc may be nil when
// concurrency control is disabled. The chunk carries no zones until a data
// table takes it in (Table.AppendChunk).
func NewChunk(segments []Segment, mvcc *MvccData) *Chunk {
	c := &Chunk{segments: segments, mvcc: mvcc}
	if len(segments) > 0 {
		c.rowCount.Store(int64(segments[0].Len()))
	}
	return c
}

// Size returns the number of rows in the chunk.
func (c *Chunk) Size() int { return int(c.rowCount.Load()) }

// ColumnCount returns the number of segments.
func (c *Chunk) ColumnCount() int { return len(c.segments) }

// GetSegment returns the segment of the given column. For mutable chunks
// it returns a length-consistent snapshot: appends run under the chunk
// lock and may grow (or reallocate) the value slices, so readers get a
// view truncated to the row count at snapshot time — the appender only
// ever writes beyond that point or into a fresh backing array, never into
// the snapshot.
func (c *Chunk) GetSegment(col types.ColumnID) Segment {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.segmentView(col)
}

// SegmentWithZone is GetSegment plus the column's zone, both taken under one
// lock: the zone covers exactly the rows of the segment, so on the mutable
// tail too "Ascending >= Len()" means the whole view can be binary-searched.
// A chunk without zones answers the zero Zone, which is ascending nowhere.
func (c *Chunk) SegmentWithZone(col types.ColumnID) (Segment, Zone) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var z Zone
	if int(col) < len(c.zones) {
		z = c.zones[col]
	}
	return c.segmentView(col), z
}

// Zone returns the column's zone; ok is false for a chunk that carries none.
// The bounds cover every row appended so far, hence every row a transaction
// that started earlier may see.
func (c *Chunk) Zone(col types.ColumnID) (z Zone, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if int(col) >= len(c.zones) {
		return Zone{}, false
	}
	return c.zones[col], true
}

// segmentView is GetSegment under the caller's read lock.
func (c *Chunk) segmentView(col types.ColumnID) Segment {
	c.viewed.Store(true)
	return c.viewOf(c.segments[col], int(c.rowCount.Load()), false)
}

// viewOf is the segment as a reader of size rows gets it: a value segment as
// its view (ValueSegment.view), any other as is.
func (c *Chunk) viewOf(seg Segment, size int, flags bool) Segment {
	if vs, ok := seg.(interface{ view(int, bool, bool) Segment }); ok {
		return vs.view(size, c.immutable.Load(), flags)
	}
	return seg
}

// SnapshotSegments returns every segment truncated to one consistent row
// count, taken under a single lock acquisition, so all columns of a mutable
// chunk are captured at the same row boundary even while appends continue.
func (c *Chunk) SnapshotSegments() ([]Segment, int) { return c.snapshotSegments(false) }

func (c *Chunk) snapshotSegments(flags bool) ([]Segment, int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.viewed.Store(true)
	size := int(c.rowCount.Load())
	out := make([]Segment, len(c.segments))
	for i, seg := range c.segments {
		out[i] = c.viewOf(seg, size, flags)
	}
	return out, size
}

// SealedSnapshot is SnapshotSegments for a snapshot writer, which waits for a
// seal under way: the chunk is captured before its seal or after it, never
// halfway, and immutable says which. A nullable value segment that was
// appended to comes with NULL flags, all false while it holds no NULL.
func (c *Chunk) SealedSnapshot() (segs []Segment, rows int, immutable bool) {
	c.sealing.Lock()
	defer c.sealing.Unlock()
	segs, rows = c.snapshotSegments(true)
	return segs, rows, c.IsImmutable()
}

// ReplaceSegment swaps in a (typically encoded) segment for a column. Only
// legal on immutable chunks, where the data can no longer change underneath;
// the replacement holds the same values, so the column's zone stays.
func (c *Chunk) ReplaceSegment(col types.ColumnID, seg Segment) {
	if !c.IsImmutable() {
		panic("storage: cannot replace segment of mutable chunk")
	}
	if seg.Len() != c.Size() {
		panic("storage: replacement segment has wrong length")
	}
	c.mu.Lock()
	c.segments[col] = seg
	c.mu.Unlock()
}

// MvccData returns the chunk's MVCC columns (nil if MVCC is disabled).
func (c *Chunk) MvccData() *MvccData { return c.mvcc }

// IsImmutable reports whether the chunk has been finalized.
func (c *Chunk) IsImmutable() bool { return c.immutable.Load() }

// Finalize marks the chunk immutable. Idempotent.
func (c *Chunk) Finalize() { c.immutable.Store(true) }

// SealNS returns the nanoseconds the catalog's Sealer spent on the chunk when
// it filled up or its load published it. 0 for a chunk that was restored, is
// still mutable, or belongs to no catalog with a Sealer.
func (c *Chunk) SealNS() int64 { return c.sealNS.Load() }

// AddIndex attaches a secondary index to the chunk.
func (c *Chunk) AddIndex(idx ChunkIndex) {
	if !c.IsImmutable() {
		panic("storage: indexes may only be added to immutable chunks")
	}
	c.mu.Lock()
	c.indexes = append(c.indexes, idx)
	c.mu.Unlock()
}

// GetIndex returns an index on the column, or nil.
func (c *Chunk) GetIndex(col types.ColumnID) ChunkIndex {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, idx := range c.indexes {
		if idx.ColumnID() == col {
			return idx
		}
	}
	return nil
}

// SetBins gives the column's zone its bins (Zone.Bins). A chunk installed
// whole (snapshot restore) that has no zones yet gets them from its segments
// first, so Table.AppendChunk keeps them.
func (c *Chunk) SetBins(col types.ColumnID, bins [][2]float64) {
	if !c.IsImmutable() {
		panic("storage: bins may only be set on immutable chunks")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.zones == nil {
		c.zones = zonesOf(c.segments)
	}
	c.zones[col].Bins = bins
}

// SegmentMemoryUsage returns the heap footprint of the column's segment as the
// chunk holds it: on a mutable chunk its arrays with their spare room, which
// a view of its rows does not count. Over the columns it sums to the data
// MemoryUsage reports.
func (c *Chunk) SegmentMemoryUsage(col types.ColumnID) int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.segments[col].MemoryUsage()
}

// MemoryUsage returns the heap footprint of the chunk, split into data and
// metadata (MVCC columns, indexes, zones, bookkeeping). The metadata share
// is what §2.2 of the paper argues becomes negligible for large chunks.
func (c *Chunk) MemoryUsage() (data, metadata int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, s := range c.segments {
		data += s.MemoryUsage()
	}
	if c.mvcc != nil {
		metadata += c.mvcc.MemoryUsage()
	}
	for _, idx := range c.indexes {
		metadata += idx.MemoryUsage()
	}
	for _, z := range c.zones {
		metadata += z.memoryUsage()
	}
	metadata += 128 // struct headers, slice headers, atomics
	return data, metadata
}

// overwriteRow replaces the values of an existing row: log replay filling a
// placeholder (Table.RestoreRowAt). Readers scan the views they were handed
// without a lock, so once any view is out the row is written into copies of
// the value segments that replace the originals under the chunk lock; the
// views keep the old arrays. The zones take the new values in the same
// critical section, which keeps a replayed row findable. A chunk that holds a
// placeholder is not sealed yet; the values of a sealed one are frozen (its
// segments may be encoded), so overwriting there is an error, never a write.
// Caller must hold the table's append lock.
func (c *Chunk) overwriteRow(off types.ChunkOffset, vals []types.Value) error {
	if c.IsImmutable() {
		return fmt.Errorf("storage: cannot overwrite row %d of a sealed chunk", off)
	}
	if err := c.fits(vals); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	fresh := c.viewed.Swap(false)
	for i, v := range vals {
		seg, err := valueSegmentWith(c.segments[i], off, v, fresh)
		if err != nil {
			return err
		}
		c.segments[i] = seg
		c.zones[i].overwritten(int(off), v)
	}
	c.placeholders = max(0, c.placeholders-1)
	return nil
}

// fits checks that every string column can take its value of the row, so a
// row goes in whole or not at all (StringSegment.fits).
func (c *Chunk) fits(vals []types.Value) error {
	for i, v := range vals {
		if s, ok := c.segments[i].(*StringSegment); ok {
			if err := s.fits(len(v.S)); err != nil {
				return err
			}
		}
	}
	return nil
}

// appendRow adds one row to the chunk's value segments and folds it into the
// columns' zones. Caller must hold the table's append lock and have verified
// capacity; the chunk lock is taken so concurrent readers snapshot consistent
// segment states, zone included.
func (c *Chunk) appendRow(vals []types.Value) error {
	if err := c.fits(vals); err != nil {
		return err
	}
	if c.mvcc != nil {
		// A row is born uncommitted, which only a block that was stamped as a
		// whole (StampBegin) does not say of it already; end is never stamped,
		// so its cells are fresh wherever nobody stored.
		c.mvcc.SetBegin(types.ChunkOffset(c.Size()), types.MaxCommitID)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	row := int(c.rowCount.Load())
	for i, v := range vals {
		switch s := c.segments[i].(type) {
		case *ValueSegment[int64]:
			z := &c.zones[i]
			appendTo(s, z, &z.Min.I, &z.Max.I, row, v.AsInt(), v.IsNull())
		case *ValueSegment[float64]:
			z := &c.zones[i]
			appendTo(s, z, &z.Min.F, &z.Max.F, row, v.AsFloat(), v.IsNull())
		case *StringSegment:
			if err := s.Append(v.S, v.IsNull()); err != nil {
				return err
			}
			if z := &c.zones[i]; !v.IsNull() && includeString(z, v.S) && z.Ascending == row {
				z.Ascending++
			}
		default:
			return fmt.Errorf("storage: cannot append to segment of type %T", s)
		}
	}
	c.rowCount.Add(1)
	return nil
}
