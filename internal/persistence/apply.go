package persistence

import (
	"bytes"
	"fmt"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Applier is the shared WAL-replay core: crash recovery feeds it the local
// log's records, and a replication follower feeds it the exact same framed
// bytes shipped from the primary. Insert and delete records buffer until
// their transaction's commit record arrives (each commit batch is appended
// atomically on the primary, so records of one transaction are contiguous);
// DDL records apply immediately. An Applier is not safe for concurrent use —
// one goroutine replays, while concurrent readers are protected by the
// storage layer's chunk locks and atomic MVCC cells.
type Applier struct {
	sm *storage.StorageManager
	// onCommit, when non-nil, fires in ApplyFrames after each commit
	// record's operations have been applied and its row versions stamped,
	// with the offset just past the commit's frame in the applied buffer. A
	// replication follower publishes the commit id and its log position
	// here, so readers advance to the new commit barrier only once it is
	// fully materialized, and see the position with it.
	onCommit func(cid types.CommitID, end int)

	pending []*record
	maxCID  types.CommitID
	maxTID  types.TransactionID
}

// NewApplier creates an applier over a catalog. onCommit may be nil.
func NewApplier(sm *storage.StorageManager, onCommit func(cid types.CommitID, end int)) *Applier {
	return &Applier{sm: sm, onCommit: onCommit}
}

// MaxIDs returns the highest commit and transaction ids seen so far.
func (a *Applier) MaxIDs() (types.CommitID, types.TransactionID) {
	return a.maxCID, a.maxTID
}

// Reset drops buffered, uncommitted operations (a follower re-bootstrapping
// from a fresh snapshot must not leak half a transaction into the new state).
func (a *Applier) Reset() { a.pending = nil }

// apply applies one decoded record.
func (a *Applier) apply(rec *record) error {
	if rec.tid > a.maxTID {
		a.maxTID = rec.tid
	}
	switch rec.kind {
	case recInsert, recDelete:
		a.pending = append(a.pending, rec)
		return nil
	case recCommit:
		if rec.cid > a.maxCID {
			a.maxCID = rec.cid
		}
		ops := a.pending
		a.pending = nil
		for _, op := range ops {
			if err := a.applyOp(op, rec.cid); err != nil {
				return err
			}
		}
		return nil
	case recCreateTable:
		if a.sm.HasTable(rec.table) {
			return nil // checkpoint raced the DDL append: already in snapshot
		}
		return a.sm.AddTable(rec.created)
	case recDropTable:
		if !a.sm.HasTable(rec.table) {
			return nil
		}
		return a.sm.DropTable(rec.table)
	case recCreateView:
		if _, ok := a.sm.GetView(rec.view); ok {
			return nil
		}
		return a.sm.AddView(rec.view, rec.viewSQL)
	case recDropView:
		if _, ok := a.sm.GetView(rec.view); !ok {
			return nil
		}
		return a.sm.DropView(rec.view)
	default:
		return fmt.Errorf("persistence: replay: unknown record kind %d", rec.kind)
	}
}

// applyOp applies one committed redo operation.
func (a *Applier) applyOp(rec *record, cid types.CommitID) error {
	t, err := a.sm.GetTable(rec.table)
	if err != nil {
		return fmt.Errorf("persistence: replay references %w", err)
	}
	switch rec.kind {
	case recInsert:
		if _, err := t.RestoreRowAt(rec.row, rec.values); err != nil {
			return fmt.Errorf("persistence: replay insert into %q: %w", rec.table, err)
		}
		if mvcc := t.GetChunk(rec.row.Chunk).MvccData(); mvcc != nil {
			mvcc.SetBegin(rec.row.Offset, cid)
			mvcc.SetEnd(rec.row.Offset, types.MaxCommitID)
		}
	case recDelete:
		if int(rec.row.Chunk) >= t.ChunkCount() {
			return fmt.Errorf("persistence: replay delete from %q: chunk %d missing", rec.table, rec.row.Chunk)
		}
		chunk := t.GetChunk(rec.row.Chunk)
		if int(rec.row.Offset) >= chunk.Size() {
			return fmt.Errorf("persistence: replay delete from %q: row %d/%d missing", rec.table, rec.row.Chunk, rec.row.Offset)
		}
		if mvcc := chunk.MvccData(); mvcc != nil {
			mvcc.SetEnd(rec.row.Offset, cid)
		}
	}
	return nil
}

// ApplyFrames decodes and applies a run of complete on-disk WAL frames —
// the exact bytes a primary ships. Unlike local replay, a torn or corrupt
// frame is an error here: the transport delivers whole frames or nothing.
func (a *Applier) ApplyFrames(buf []byte) error {
	r := bytes.NewReader(buf)
	var payload []byte
	for r.Len() > 0 {
		var err error
		if payload, err = ReadFrame(r, int64(r.Len()), payload); err != nil {
			return err
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return err
		}
		if err := a.apply(rec); err != nil {
			return err
		}
		if rec.kind == recCommit && a.onCommit != nil {
			a.onCommit(rec.cid, len(buf)-r.Len())
		}
	}
	return nil
}

// completeFramesPrefix returns the length of the longest prefix of buf that
// consists of whole frames (ReadWAL cuts a read at a frame boundary; LSNs
// always address such boundaries). A whole frame that fails its CRC still
// counts: the follower's ApplyFrames reports it.
func completeFramesPrefix(buf []byte) int {
	r := bytes.NewReader(buf)
	off := 0
	var payload []byte
	for {
		var err error
		if payload, err = ReadFrame(r, int64(r.Len()), payload); err != nil && err != errFrameCRC {
			return off
		}
		off += frameHeader + len(payload)
	}
}
