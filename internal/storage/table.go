package storage

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"hyrise/internal/types"
)

// TableType distinguishes tables that own their data from tables whose
// chunks consist of reference segments into other tables.
type TableType uint8

const (
	// DataTable owns value/encoded segments.
	DataTable TableType = iota
	// ReferenceTable consists of reference segments (operator output).
	ReferenceTable
)

// ColumnDefinition describes one column of a table.
type ColumnDefinition struct {
	Name     string
	Type     types.DataType
	Nullable bool
}

// DefaultChunkSize is the default chunk capacity. The paper's evaluation
// (Figure 7) finds ~100k rows to be the throughput sweet spot and uses it as
// Hyrise's default setting.
const DefaultChunkSize = 100_000

// Table is a relation: an ordered list of column definitions plus a list of
// chunks. Appends go to the last chunk; the row that fills it to
// targetChunkSize seals it (seal), and the next append opens a fresh mutable
// chunk.
type Table struct {
	name            string
	defs            []ColumnDefinition
	tableType       TableType
	targetChunkSize int
	useMvcc         bool

	mu     sync.RWMutex // guards chunks slice growth
	chunks []*Chunk

	groups []posGroup // which columns are stored, which read through shared positions; fixed at construction

	appendMu sync.Mutex // serializes row appends; guards the chunks' placeholder counts

	// owner is the catalog the table is registered in (StorageManager.AddTable);
	// its Sealer finishes the chunks that fill up from then on.
	owner atomic.Pointer[StorageManager]
}

// NewTable creates an empty data table. targetChunkSize <= 0 selects
// DefaultChunkSize. useMvcc controls whether chunks carry MVCC columns.
func NewTable(name string, defs []ColumnDefinition, targetChunkSize int, useMvcc bool) *Table {
	if targetChunkSize <= 0 {
		targetChunkSize = DefaultChunkSize
	}
	t := &Table{
		name:            name,
		defs:            defs,
		tableType:       DataTable,
		targetChunkSize: targetChunkSize,
		useMvcc:         useMvcc,
		groups:          groupColumns(len(defs), nil),
	}
	return t
}

// NewReferenceTable creates a table whose chunks hold reference segments.
// Reference tables are operator outputs; they have no chunk size limit and
// no MVCC data. The invariants of reference columns are checked here, once
// (groupColumns).
func NewReferenceTable(defs []ColumnDefinition, chunks []*Chunk) *Table {
	return &Table{
		defs:      defs,
		tableType: ReferenceTable,
		chunks:    chunks,
		groups:    groupColumns(len(defs), chunks),
	}
}

// Name returns the table name ("" for intermediates).
func (t *Table) Name() string { return t.name }

// UsesMvcc reports whether chunks carry MVCC columns.
func (t *Table) UsesMvcc() bool { return t.useMvcc }

// TargetChunkSize returns the chunk capacity.
func (t *Table) TargetChunkSize() int { return t.targetChunkSize }

// ColumnDefinitions returns the schema.
func (t *Table) ColumnDefinitions() []ColumnDefinition { return t.defs }

// ColumnCount returns the number of columns.
func (t *Table) ColumnCount() int { return len(t.defs) }

// ColumnID resolves a column name (case-insensitive) to its id.
func (t *Table) ColumnID(name string) (types.ColumnID, error) {
	for i, d := range t.defs {
		if strings.EqualFold(d.Name, name) {
			return types.ColumnID(i), nil
		}
	}
	return 0, fmt.Errorf("storage: table %q has no column %q", t.name, name)
}

// ChunkCount returns the number of chunks.
func (t *Table) ChunkCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.chunks)
}

// GetChunk returns the chunk with the given id.
func (t *Table) GetChunk(id types.ChunkID) *Chunk {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.chunks[id]
}

// Chunks returns a snapshot of the chunk list.
func (t *Table) Chunks() []*Chunk {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*Chunk, len(t.chunks))
	copy(out, t.chunks)
	return out
}

// AppendChunk attaches a pre-built chunk (snapshot restore, bulk loads,
// reference tables). A data table summarizes the chunk's columns into zones here, once;
// from then on they are kept up with every write. The value segments of a
// mutable chunk (a restored tail) grow toward the chunk size from here, as a
// fresh chunk's do.
func (t *Table) AppendChunk(c *Chunk) {
	if t.tableType == DataTable && c.zones == nil {
		c.zones = zonesOf(c.segments)
	}
	if t.tableType == DataTable && !c.IsImmutable() {
		for _, seg := range c.segments {
			if vs, ok := seg.(interface{ growLimit(int) }); ok {
				vs.growLimit(t.targetChunkSize)
			}
		}
	}
	t.mu.Lock()
	t.chunks = append(t.chunks, c)
	t.mu.Unlock()
}

// RowCount returns the total number of rows across chunks (including rows
// that MVCC has invalidated — visibility is the scan's last rung).
func (t *Table) RowCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, c := range t.chunks {
		n += c.Size()
	}
	return n
}

// newMutableChunk opens a fresh append-target chunk.
func (t *Table) newMutableChunk() *Chunk {
	segs := make([]Segment, len(t.defs))
	for i, d := range t.defs {
		segs[i] = NewValueSegmentOfType(d.Type, t.targetChunkSize, d.Nullable)
	}
	var mvcc *MvccData
	if t.useMvcc {
		mvcc = NewMvccData(t.targetChunkSize)
	}
	c := NewChunk(segs, mvcc)
	c.zones = make([]Zone, len(segs))
	return c
}

// AppendRow appends one row, opening a new chunk when the current one is
// full, and returns the RowID of the new row. The append that fills a chunk
// seals it before it returns, outside the append lock.
func (t *Table) AppendRow(vals []types.Value) (types.RowID, error) {
	if t.tableType != DataTable {
		return types.NullRowID, fmt.Errorf("storage: cannot append to reference table")
	}
	if len(vals) != len(t.defs) {
		return types.NullRowID, fmt.Errorf("storage: row has %d values, table %q has %d columns", len(vals), t.name, len(t.defs))
	}
	for i, v := range vals {
		if v.IsNull() {
			if !t.defs[i].Nullable {
				return types.NullRowID, fmt.Errorf("storage: NULL in non-nullable column %q", t.defs[i].Name)
			}
			continue
		}
		if v.Type != t.defs[i].Type {
			return types.NullRowID, fmt.Errorf("storage: value type %s does not match column %q type %s", v.Type, t.defs[i].Name, t.defs[i].Type)
		}
	}

	t.appendMu.Lock()
	t.mu.RLock()
	n := len(t.chunks)
	var last *Chunk
	if n > 0 {
		last = t.chunks[n-1]
	}
	t.mu.RUnlock()

	if last == nil || last.Size() >= t.targetChunkSize || last.IsImmutable() {
		last = t.newMutableChunk()
		t.mu.Lock()
		t.chunks = append(t.chunks, last)
		n = len(t.chunks)
		t.mu.Unlock()
	}

	err := last.appendRow(vals)
	row := types.RowID{Chunk: types.ChunkID(n - 1), Offset: types.ChunkOffset(last.Size() - 1)}
	full := err == nil && t.takeSeal(last)
	t.appendMu.Unlock()
	if err != nil {
		return types.NullRowID, err
	}
	if full {
		t.seal(last)
	}
	return row, nil
}

// takeSeal reports that a chunk is due for seal — full, and no replayed commit
// can still write into it — and then takes its seal lock for the seal the
// caller runs. Caller must hold the append lock.
func (t *Table) takeSeal(c *Chunk) bool {
	due := c.placeholders == 0 && c.Size() >= t.targetChunkSize && !c.IsImmutable()
	if due {
		c.sealing.Lock()
	}
	return due
}

// seal makes a chunk immutable and, on a registered table, hands it to the
// catalog's Sealer, which may encode its segments and attach filters: the
// chunk's values are frozen from here on, only its MVCC columns still change.
// It runs in the goroutine whose write completed the chunk, outside the append
// lock, once per chunk, and releases the seal lock that write took.
func (t *Table) seal(c *Chunk) {
	defer c.sealing.Unlock()
	c.Finalize()
	if sm := t.owner.Load(); sm != nil {
		sm.seal(c)
	}
}

// releasePlaceholders ends a replay: the placeholders still standing belong to
// transactions that never committed, so nothing will overwrite them, and the
// full chunks that waited on them are sealed.
func (t *Table) releasePlaceholders() {
	t.appendMu.Lock()
	var full []*Chunk
	for _, c := range t.Chunks() {
		c.placeholders = 0
		if t.takeSeal(c) {
			full = append(full, c)
		}
	}
	t.appendMu.Unlock()
	for _, c := range full {
		t.seal(c)
	}
}

// RestoreRowAt places a row at an exact RowID during log replay. The log
// carries transactions in commit order, which under concurrent sessions is
// not offset order: offsets below the target that no replayed commit has
// filled yet are padded with invisible placeholder rows (placeholderBegin), so
// the chunk geometry the log's RowIDs reference is reproduced exactly, and a
// later commit that owns such an offset overwrites the placeholder with its
// values. A chunk therefore seals when it is full and holds no placeholder —
// with the write that makes it so, as on the live table; the chunks a replay
// leaves waiting are sealed by ReleasePlaceholders. It reports whether the
// offset already existed; a row that is there for real (restored from the
// snapshot, or an already applied frame) is left alone, which keeps replay
// idempotent.
func (t *Table) RestoreRowAt(row types.RowID, vals []types.Value) (existed bool, err error) {
	if t.tableType != DataTable {
		return false, fmt.Errorf("storage: cannot restore into reference table")
	}
	if len(vals) != len(t.defs) {
		return false, fmt.Errorf("storage: restore row has %d values, table %q has %d columns", len(vals), t.name, len(t.defs))
	}
	if int(row.Offset) >= t.targetChunkSize {
		return false, fmt.Errorf("storage: restore offset %d exceeds chunk capacity %d of table %q", row.Offset, t.targetChunkSize, t.name)
	}
	for i, v := range vals {
		if v.IsNull() {
			if !t.defs[i].Nullable {
				return false, fmt.Errorf("storage: restore NULL in non-nullable column %q", t.defs[i].Name)
			}
			continue
		}
		if v.Type != t.defs[i].Type {
			return false, fmt.Errorf("storage: restore value type %s does not match column %q type %s", v.Type, t.defs[i].Name, t.defs[i].Type)
		}
	}

	// The chunks this row completes — its own, the one before it — seal once
	// the append lock is released.
	var full []*Chunk
	t.appendMu.Lock()
	defer func() {
		t.appendMu.Unlock()
		for _, c := range full {
			t.seal(c)
		}
	}()

	// Create missing chunks up to the target. The live table opened the new
	// chunk because the predecessor was full, so the predecessor's slots the log
	// has not filled yet belong to transactions that commit later (or never):
	// reserve them.
	for t.ChunkCount() <= int(row.Chunk) {
		if n := t.ChunkCount(); n > 0 {
			last := t.GetChunk(types.ChunkID(n - 1))
			if !last.IsImmutable() && last.MvccData() != nil {
				if err := t.padChunk(last, t.targetChunkSize); err != nil {
					return false, err
				}
			}
			if t.takeSeal(last) {
				full = append(full, last)
			}
		}
		t.mu.Lock()
		t.chunks = append(t.chunks, t.newMutableChunk())
		t.mu.Unlock()
	}

	chunk := t.GetChunk(row.Chunk)
	mvcc := chunk.MvccData()
	if int(row.Offset) < chunk.Size() {
		if mvcc == nil || mvcc.Begin(row.Offset) != placeholderBegin {
			return true, nil
		}
		existed, err = true, chunk.overwriteRow(row.Offset, vals)
	} else {
		if chunk.IsImmutable() {
			return false, fmt.Errorf("storage: restore offset %d beyond immutable chunk %d of table %q", row.Offset, row.Chunk, t.name)
		}
		if mvcc == nil && chunk.Size() < int(row.Offset) {
			return false, fmt.Errorf("storage: cannot pad rows of table %q without MVCC data", t.name)
		}
		if err := t.padChunk(chunk, int(row.Offset)); err != nil {
			return false, err
		}
		err = chunk.appendRow(vals)
	}
	if err == nil && t.takeSeal(chunk) {
		full = append(full, chunk)
	}
	return existed, err
}

// placeholderBegin is the begin commit id of a placeholder row: inserted, but
// by no transaction (transaction ids start at 1), so it is invisible to
// everyone and cannot be mistaken for a row whose values are real.
var placeholderBegin = types.InsertedBy(0)

// padChunk appends placeholder rows until the chunk holds size rows.
// Placeholders stand in for rows whose transaction has not been replayed
// (yet): invisible to everyone until RestoreRowAt overwrites them.
func (t *Table) padChunk(chunk *Chunk, size int) error {
	placeholder := t.placeholderRow()
	for chunk.Size() < size {
		off := types.ChunkOffset(chunk.Size())
		if err := chunk.appendRow(placeholder); err != nil {
			return err
		}
		chunk.MvccData().SetBegin(off, placeholderBegin)
		chunk.placeholders++
	}
	return nil
}

// placeholderRow builds a typed all-zero row used to pad recovery gaps.
func (t *Table) placeholderRow() []types.Value {
	vals := make([]types.Value, len(t.defs))
	for i, d := range t.defs {
		switch d.Type {
		case types.TypeFloat64:
			vals[i] = types.Float(0)
		case types.TypeString:
			vals[i] = types.Str("")
		default:
			vals[i] = types.Int(0)
		}
	}
	return vals
}

// SealTail seals the last chunk though it is not full: the end of a load by
// AppendRow, whose full chunks sealed as they filled (a Loader's Close does
// this for its own last chunk). On a table outside any catalog, or
// in one without a Sealer, the chunk only becomes immutable. Nothing happens
// when that chunk is sealed already.
func (t *Table) SealTail() {
	if last := t.lastChunk(); last != nil && !last.IsImmutable() {
		last.sealing.Lock()
		t.seal(last)
	}
}

func (t *Table) lastChunk() *Chunk {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.chunks) == 0 {
		return nil
	}
	return t.chunks[len(t.chunks)-1]
}

// GetValue fetches a single cell by RowID (dynamic path, boundary use only).
func (t *Table) GetValue(col types.ColumnID, row types.RowID) types.Value {
	return t.GetChunk(row.Chunk).GetSegment(col).ValueAt(row.Offset)
}

// MemoryUsage returns the table's data and metadata footprints in bytes.
func (t *Table) MemoryUsage() (data, metadata int64) {
	for _, c := range t.Chunks() {
		d, m := c.MemoryUsage()
		data += d
		metadata += m
	}
	return data, metadata
}

// RowAsValues materializes one full row (boundary use only).
func (t *Table) RowAsValues(row types.RowID) []types.Value {
	out := make([]types.Value, len(t.defs))
	c := t.GetChunk(row.Chunk)
	for i := range t.defs {
		out[i] = c.GetSegment(types.ColumnID(i)).ValueAt(row.Offset)
	}
	return out
}

// NewTableView creates a table that shares every chunk of src under other
// column definitions (Alias renames columns with it). The view has src's
// type and chunk numbering; segments are shared, not copied.
func NewTableView(src *Table, defs []ColumnDefinition) *Table {
	return &Table{
		name:            src.name,
		defs:            defs,
		tableType:       src.tableType,
		targetChunkSize: src.targetChunkSize,
		useMvcc:         src.useMvcc,
		chunks:          src.Chunks(),
		groups:          src.groups,
	}
}
