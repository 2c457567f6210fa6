package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hyrise/internal/types"
)

// mvccBlockShift sizes the lazily allocated MVCC blocks (8k rows each):
// large enough for negligible indirection cost, small enough that the
// partially filled trailing chunk of a table wastes at most 8k slots.
const mvccBlockShift = 13
const mvccBlockSize = 1 << mvccBlockShift

type mvccBlock struct {
	begin []atomic.Uint64
	end   []atomic.Uint64
	tid   []atomic.Uint64
}

func newMvccBlock(size int) *mvccBlock {
	b := &mvccBlock{
		begin: make([]atomic.Uint64, size),
		end:   make([]atomic.Uint64, size),
		tid:   make([]atomic.Uint64, size),
	}
	for i := 0; i < size; i++ {
		b.begin[i].Store(uint64(types.MaxCommitID))
		b.end[i].Store(uint64(types.MaxCommitID))
	}
	return b
}

// MvccData holds the per-chunk concurrency-control columns (paper §2.8):
// for every row a begin commit id, an end commit id, and the id of the
// transaction currently owning the row. Cells are accessed atomically so
// readers never block writers; storage grows in blocks as rows are
// appended (EnsureCapacity runs under the table's append lock before the
// row becomes visible through the chunk's row count).
type MvccData struct {
	blocks []atomic.Pointer[mvccBlock]
	rows   int
}

// NewMvccData prepares MVCC columns for up to capacity rows; blocks are
// allocated on first use.
func NewMvccData(capacity int) *MvccData {
	nBlocks := (capacity + mvccBlockSize - 1) / mvccBlockSize
	if nBlocks < 1 {
		nBlocks = 1
	}
	return &MvccData{blocks: make([]atomic.Pointer[mvccBlock], nBlocks), rows: capacity}
}

// blockSizeFor returns the allocation size of block b: full blocks except
// for the (possibly short) last one, so small chunks pay only for their
// capacity.
func (m *MvccData) blockSizeFor(b int) int {
	size := m.rows - b*mvccBlockSize
	if size > mvccBlockSize {
		size = mvccBlockSize
	}
	if size < 1 {
		size = 1
	}
	return size
}

// EnsureCapacity makes the cells for row i usable. Called under the table
// append lock before the row is published.
func (m *MvccData) EnsureCapacity(i types.ChunkOffset) {
	b := int(i) >> mvccBlockShift
	if m.blocks[b].Load() == nil {
		m.blocks[b].CompareAndSwap(nil, newMvccBlock(m.blockSizeFor(b)))
	}
}

func (m *MvccData) block(i types.ChunkOffset) (*mvccBlock, int) {
	b := int(i) >> mvccBlockShift
	blk := m.blocks[b].Load()
	if blk == nil {
		// Reads may race with the first append into a block; allocate
		// idempotently (all cells start at MaxCommitID either way).
		m.blocks[b].CompareAndSwap(nil, newMvccBlock(m.blockSizeFor(b)))
		blk = m.blocks[b].Load()
	}
	return blk, int(i) & (mvccBlockSize - 1)
}

// Begin returns the begin commit id of the row.
func (m *MvccData) Begin(i types.ChunkOffset) types.CommitID {
	b, o := m.block(i)
	return types.CommitID(b.begin[o].Load())
}

// SetBegin stores the begin commit id of the row.
func (m *MvccData) SetBegin(i types.ChunkOffset, cid types.CommitID) {
	b, o := m.block(i)
	b.begin[o].Store(uint64(cid))
}

// End returns the end (invalidation) commit id of the row.
func (m *MvccData) End(i types.ChunkOffset) types.CommitID {
	b, o := m.block(i)
	return types.CommitID(b.end[o].Load())
}

// SetEnd stores the end commit id of the row.
func (m *MvccData) SetEnd(i types.ChunkOffset, cid types.CommitID) {
	b, o := m.block(i)
	b.end[o].Store(uint64(cid))
}

// TID returns the transaction id currently holding the row (0 = none).
func (m *MvccData) TID(i types.ChunkOffset) types.TransactionID {
	b, o := m.block(i)
	return types.TransactionID(b.tid[o].Load())
}

// ClaimTID atomically claims the row for tid if it is unclaimed or already
// held by tid. It returns false on a write-write conflict (paper §2.8: "if
// two transactions concurrently try to set the transaction id of a single
// row, only one can succeed and the other has to abort").
func (m *MvccData) ClaimTID(i types.ChunkOffset, tid types.TransactionID) bool {
	b, o := m.block(i)
	if b.tid[o].CompareAndSwap(0, uint64(tid)) {
		return true
	}
	return b.tid[o].Load() == uint64(tid)
}

// ReleaseTID clears the row's transaction id if held by tid.
func (m *MvccData) ReleaseTID(i types.ChunkOffset, tid types.TransactionID) {
	b, o := m.block(i)
	b.tid[o].CompareAndSwap(uint64(tid), 0)
}

// SetTID unconditionally stores a transaction id (used for fresh inserts
// where the slot cannot be contended).
func (m *MvccData) SetTID(i types.ChunkOffset, tid types.TransactionID) {
	b, o := m.block(i)
	b.tid[o].Store(uint64(tid))
}

// MemoryUsage returns the heap footprint of the allocated MVCC columns.
func (m *MvccData) MemoryUsage() int64 {
	var allocated int64
	for i := range m.blocks {
		if blk := m.blocks[i].Load(); blk != nil {
			allocated += int64(len(blk.begin)) * 24
		}
	}
	return allocated + int64(len(m.blocks))*8
}

// ChunkIndex is the minimal interface the storage layer needs from a
// per-chunk secondary index (implemented in internal/index). Indexes yield
// qualifying chunk offsets for a predicate.
type ChunkIndex interface {
	// IndexType names the index implementation ("ART", "BTree", "GroupKey").
	IndexType() string
	// ColumnID returns the indexed column.
	ColumnID() types.ColumnID
	// Equals returns the offsets whose value equals v, in ascending order.
	Equals(v types.Value) []types.ChunkOffset
	// Range returns the offsets with lo <= value <= hi. Nil bounds are open.
	Range(lo, hi *types.Value) []types.ChunkOffset
	// MemoryUsage returns the estimated heap footprint in bytes.
	MemoryUsage() int64
}

// ChunkFilter is the minimal interface for per-chunk pruning filters
// (implemented in internal/filter). Filters support approximate membership
// queries: CanPrune may only return true if the predicate definitely matches
// no row of the chunk (no false pruning).
type ChunkFilter interface {
	// FilterType names the implementation ("CQF", "RangeHist").
	FilterType() string
	// ColumnID returns the filtered column.
	ColumnID() types.ColumnID
	// CanPruneEquals reports that no row equals v.
	CanPruneEquals(v types.Value) bool
	// CanPruneRange reports that no row falls in [lo, hi]; nil bounds open.
	CanPruneRange(lo, hi *types.Value) bool
	// MemoryUsage returns the estimated heap footprint in bytes.
	MemoryUsage() int64
}

// Chunk is a horizontal partition of a table holding one segment per
// column. Chunks are append-only while mutable and become immutable when
// they reach their target size; only immutable chunks carry encodings,
// indexes, and filters.
type Chunk struct {
	segments []Segment
	mvcc     *MvccData

	mu        sync.RWMutex // guards segments replacement, zones, indexes, filters
	immutable atomic.Bool
	zones     []Zone // one per column; nil for chunks outside a stored table
	indexes   []ChunkIndex
	filters   []ChunkFilter

	// rowCount is maintained explicitly because appends to the individual
	// value segments happen under the table's append lock.
	rowCount atomic.Int64

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
	seg := c.segments[col]
	if c.immutable.Load() {
		return seg
	}
	size := int(c.rowCount.Load())
	switch vs := seg.(type) {
	case *ValueSegment[int64]:
		return vs.snapshot(size)
	case *ValueSegment[float64]:
		return vs.snapshot(size)
	case *ValueSegment[string]:
		return vs.snapshot(size)
	default:
		return seg
	}
}

// SnapshotSegments returns every segment truncated to one consistent row
// count, taken under a single lock acquisition. Serialization (snapshots)
// uses it so all columns of a mutable chunk are captured at the same row
// boundary even while appends continue.
func (c *Chunk) SnapshotSegments() ([]Segment, int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.viewed.Store(true)
	size := int(c.rowCount.Load())
	immutable := c.immutable.Load()
	out := make([]Segment, len(c.segments))
	for i, seg := range c.segments {
		if !immutable {
			switch vs := seg.(type) {
			case *ValueSegment[int64]:
				out[i] = vs.snapshot(size)
				continue
			case *ValueSegment[float64]:
				out[i] = vs.snapshot(size)
				continue
			case *ValueSegment[string]:
				out[i] = vs.snapshot(size)
				continue
			}
		}
		out[i] = seg
	}
	return out, size
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

// AddFilter attaches a pruning filter to the chunk.
func (c *Chunk) AddFilter(f ChunkFilter) {
	if !c.IsImmutable() {
		panic("storage: filters may only be added to immutable chunks")
	}
	c.mu.Lock()
	c.filters = append(c.filters, f)
	c.mu.Unlock()
}

// Filters returns the filters of the given column.
func (c *Chunk) Filters(col types.ColumnID) []ChunkFilter {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []ChunkFilter
	for _, f := range c.filters {
		if f.ColumnID() == col {
			out = append(out, f)
		}
	}
	return out
}

// MemoryUsage returns the heap footprint of the chunk, split into data and
// metadata (MVCC columns, indexes, filters, bookkeeping). The metadata share
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
	for _, f := range c.filters {
		metadata += f.MemoryUsage()
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
// critical section — the chunk may be sealed already, so this is what keeps a
// replayed row findable. Caller must hold the table's append lock.
func (c *Chunk) overwriteRow(off types.ChunkOffset, vals []types.Value) error {
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
	return nil
}

// appendRow adds one row to the chunk's value segments and folds it into the
// columns' zones. Caller must hold the table's append lock and have verified
// capacity; the chunk lock is taken so concurrent readers snapshot consistent
// segment states, zone included.
func (c *Chunk) appendRow(vals []types.Value) error {
	if c.mvcc != nil {
		c.mvcc.EnsureCapacity(types.ChunkOffset(c.Size()))
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
		case *ValueSegment[string]:
			z := &c.zones[i]
			appendTo(s, z, &z.Min.S, &z.Max.S, row, v.S, v.IsNull())
		default:
			return fmt.Errorf("storage: cannot append to segment of type %T", s)
		}
	}
	c.rowCount.Add(1)
	return nil
}
