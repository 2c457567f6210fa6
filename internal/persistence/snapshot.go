package persistence

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"hyrise/internal/encoding"
	"hyrise/internal/filter"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Snapshot file layout: 8-byte magic, a body of primitive encodings, and a
// trailing little-endian CRC32 over the body. Segments are serialized in
// whatever physical form they currently have (value, dictionary, run-length,
// frame-of-reference), so an encoded immutable chunk restores encoded, and
// with the default filters it had.
//
// Every chunk body is prefixed with its byte length, which lets recovery
// decode chunks in parallel: the chunk boundaries can be sliced out without
// decoding any segment. Any other magic is rejected.
//
// MVCC state collapses to two bitmaps per chunk — committed (begin != ∞)
// and deleted (end != ∞). Restored rows are stamped begin=0 (visible since
// the beginning of time) or left invisible; WAL replay over the snapshot
// re-stamps rows whose commits landed after the snapshot cut.
const (
	snapMagic = "HYSNAP02"
	// SnapshotFileName is the name of the snapshot inside the data directory.
	SnapshotFileName = "snapshot.db"
	// WALFileName is the name of the write-ahead log inside the data directory.
	WALFileName = "wal.log"
)

// encodeSnapshot serializes all tables and views into a snapshot body tagged
// with the WAL cut (lsn, lastCID).
func encodeSnapshot(sm *storage.StorageManager, lsn int64, lastCID types.CommitID) ([]byte, error) {
	w := &writer{buf: make([]byte, 0, 1<<16)}
	w.bytes([]byte(snapMagic))
	w.uvarint(uint64(lsn))
	w.uvarint(uint64(lastCID))

	names := sm.TableNames()
	w.uvarint(uint64(len(names)))
	for _, name := range names {
		t, err := sm.GetTable(name)
		if err != nil {
			return nil, err
		}
		if err := encodeTable(w, t); err != nil {
			return nil, fmt.Errorf("persistence: snapshot table %q: %w", name, err)
		}
	}

	views := sm.Views()
	w.uvarint(uint64(len(views)))
	for _, name := range sortedKeys(views) {
		w.string_(name)
		w.string_(views[name])
	}

	crc := crc32.ChecksumIEEE(w.buf[len(snapMagic):])
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc)
	return w.buf, nil
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func encodeTable(w *writer, t *storage.Table) error {
	w.string_(t.Name())
	w.uvarint(uint64(t.TargetChunkSize()))
	if t.UsesMvcc() {
		w.byte(1)
	} else {
		w.byte(0)
	}
	defs := t.ColumnDefinitions()
	w.uvarint(uint64(len(defs)))
	for _, d := range defs {
		w.string_(d.Name)
		w.byte(byte(d.Type))
		if d.Nullable {
			w.byte(1)
		} else {
			w.byte(0)
		}
	}

	chunks := t.Chunks()
	w.uvarint(uint64(len(chunks)))
	cw := &writer{buf: make([]byte, 0, 1<<12)} // scratch, reused per chunk
	for _, c := range chunks {
		// Encode the chunk body into the scratch writer first so it can be
		// prefixed with its byte length (what makes parallel chunk decode
		// possible on restore).
		cw.buf = cw.buf[:0]
		if err := encodeChunk(cw, c); err != nil {
			return err
		}
		w.uvarint(uint64(len(cw.buf)))
		w.bytes(cw.buf)
	}
	return nil
}

// The state byte a chunk body starts with. Restore re-attaches the default
// filters of a chunk that had them (filter.AttachDefaults) from its segments as
// persisted: it never re-encodes.
const (
	chunkMutable byte = iota
	chunkImmutable
	chunkFiltered // immutable, with its default filters
)

// encodeChunk serializes one chunk body (state byte, row count, segments, MVCC
// bitmaps) — the unit a snapshot length-prefixes.
func encodeChunk(w *writer, c *storage.Chunk) error {
	segs, rows, immutable := c.SealedSnapshot()
	switch {
	case !immutable:
		w.byte(chunkMutable)
	case filter.HasDefaults(c):
		w.byte(chunkFiltered)
	default:
		w.byte(chunkImmutable)
	}
	w.uvarint(uint64(rows))
	for _, seg := range segs {
		buf, err := encoding.AppendSegment(w.buf, seg)
		if err != nil {
			return err
		}
		w.buf = buf
	}
	mvcc := c.MvccData()
	if mvcc == nil {
		w.byte(0)
		return nil
	}
	w.byte(1)
	committed := make([]bool, rows)
	deleted := make([]bool, rows)
	for i := 0; i < rows; i++ {
		off := types.ChunkOffset(i)
		committed[i] = mvcc.Begin(off).Committed()
		deleted[i] = mvcc.End(off) != types.MaxCommitID
	}
	w.bitmap(committed)
	w.bitmap(deleted)
	return nil
}

// readSnapshot loads the snapshot file into the (empty) storage manager and
// returns the WAL cut it was taken at. A missing file returns (0, 0, nil).
func readSnapshot(path string, sm *storage.StorageManager) (lsn int64, lastCID types.CommitID, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, err
	}
	lsn, lastCID, err = DecodeSnapshot(buf, sm)
	if err != nil {
		return 0, 0, fmt.Errorf("persistence: snapshot %s: %w", path, err)
	}
	return lsn, lastCID, nil
}

// DecodeSnapshot loads serialized snapshot bytes — a snapshot file's exact
// contents, or the stream a replication primary ships for bootstrap — into
// the (empty) storage manager and returns the WAL cut they were taken at.
// Chunk decode runs with one worker per CPU.
func DecodeSnapshot(buf []byte, sm *storage.StorageManager) (lsn int64, lastCID types.CommitID, err error) {
	return decodeSnapshot(buf, sm, runtime.NumCPU())
}

// decodeSnapshot is DecodeSnapshot with an explicit worker budget for the
// parallel chunk decode; tests pass 1 for the serial reference.
func decodeSnapshot(buf []byte, sm *storage.StorageManager, workers int) (lsn int64, lastCID types.CommitID, err error) {
	if len(buf) < len(snapMagic)+4 || string(buf[:len(snapMagic)]) != snapMagic {
		return 0, 0, fmt.Errorf("not a snapshot image")
	}
	body := buf[len(snapMagic) : len(buf)-4]
	wantCRC := binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.ChecksumIEEE(body) != wantCRC {
		return 0, 0, fmt.Errorf("snapshot fails CRC check")
	}
	r := &reader{buf: body}
	lsn = int64(r.uvarint())
	lastCID = types.CommitID(r.uvarint())

	nTables := r.uvarint()
	if r.err == nil && nTables > uint64(len(body)) {
		r.fail("table count exceeds snapshot size")
	}
	for i := uint64(0); i < nTables && r.err == nil; i++ {
		t, err := decodeTable(r, workers)
		if err != nil {
			return 0, 0, fmt.Errorf("persistence: snapshot table %d: %w", i, err)
		}
		if t == nil {
			break // r.err set
		}
		if err := sm.AddTable(t); err != nil {
			return 0, 0, err
		}
	}

	nViews := r.uvarint()
	if r.err == nil && nViews > uint64(len(body)) {
		r.fail("view count exceeds snapshot size")
	}
	for i := uint64(0); i < nViews && r.err == nil; i++ {
		name := r.string_()
		sql := r.string_()
		if r.err == nil {
			if err := sm.AddView(name, sql); err != nil {
				return 0, 0, err
			}
		}
	}
	if r.err != nil {
		return 0, 0, r.err
	}
	return lsn, lastCID, nil
}

func decodeTable(r *reader, workers int) (*storage.Table, error) {
	name := r.string_()
	chunkSize := int(r.uvarint())
	useMvcc := r.byte_() == 1
	nCols := r.uvarint()
	if r.err == nil && nCols > uint64(len(r.buf))+1 {
		r.fail("column count exceeds snapshot size")
	}
	if r.err != nil {
		return nil, r.err
	}
	defs := make([]storage.ColumnDefinition, 0, nCols)
	for i := uint64(0); i < nCols && r.err == nil; i++ {
		n := r.string_()
		ty := types.DataType(r.byte_())
		nullable := r.byte_() == 1
		defs = append(defs, storage.ColumnDefinition{Name: n, Type: ty, Nullable: nullable})
	}
	if r.err != nil {
		return nil, r.err
	}

	t := storage.NewTable(name, defs, chunkSize, useMvcc)
	nChunks := r.uvarint()
	if r.err == nil && nChunks > uint64(len(r.buf))+1 {
		r.fail("chunk count exceeds snapshot size")
	}
	if r.err != nil {
		return nil, r.err
	}

	// Slice out the length-prefixed chunk bodies sequentially (cheap),
	// decode the bodies in parallel, then append in chunk order so chunk ids
	// come out identical to a serial restore.
	bodies := make([][]byte, 0, nChunks)
	for ci := uint64(0); ci < nChunks && r.err == nil; ci++ {
		n := r.uvarint()
		if r.err != nil {
			break
		}
		if n > uint64(len(r.buf)) {
			r.fail("chunk body exceeds snapshot size")
			break
		}
		bodies = append(bodies, r.buf[:n])
		r.buf = r.buf[n:]
	}
	if r.err != nil {
		return nil, r.err
	}
	chunks := make([]*storage.Chunk, len(bodies))
	errs := make([]error, len(bodies))
	runParallel(len(bodies), workers, func(ci int) {
		cr := &reader{buf: bodies[ci]}
		chunk, err := decodeChunk(cr, defs, chunkSize)
		if err == nil && len(cr.buf) != 0 {
			err = fmt.Errorf("persistence: corrupt record: %d trailing bytes in chunk body", len(cr.buf))
		}
		chunks[ci], errs[ci] = chunk, err
	})
	for ci := range bodies {
		if errs[ci] != nil {
			return nil, fmt.Errorf("chunk %d: %w", ci, errs[ci])
		}
		t.AppendChunk(chunks[ci])
	}
	return t, nil
}

// runParallel invokes fn(0..n-1) with at most workers goroutines in flight;
// workers <= 1 (or n <= 1) is a plain serial loop. Restore runs before the
// engine's scheduler exists, so chunk decode fans out over plain goroutines.
func runParallel(n, workers int, fn func(i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	sem := make(chan struct{}, min(workers, n))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// decodeChunk decodes one chunk body (the unit encodeChunk writes) from r;
// decodeTable calls it concurrently over disjoint body slices.
func decodeChunk(r *reader, defs []storage.ColumnDefinition, chunkSize int) (*storage.Chunk, error) {
	state := r.byte_()
	immutable := state != chunkMutable
	rows := int(r.uvarint())
	if r.err != nil {
		return nil, r.err
	}
	if state > chunkFiltered {
		return nil, fmt.Errorf("unknown chunk state %d", state)
	}
	segs := make([]storage.Segment, len(defs))
	for i := range defs {
		seg, rest, err := encoding.DecodeSegment(r.buf)
		if err != nil {
			return nil, fmt.Errorf("column %d: %w", i, err)
		}
		if seg.Len() != rows {
			return nil, fmt.Errorf("column %d: segment has %d rows, want %d", i, seg.Len(), rows)
		}
		segs[i] = seg
		r.buf = rest
	}
	var mvcc *storage.MvccData
	hasMvcc := r.byte_() == 1
	if hasMvcc {
		committed := r.bitmap()
		deleted := r.bitmap()
		if r.err != nil {
			return nil, r.err
		}
		if len(committed) != rows || len(deleted) != rows {
			// bitmap() returns nil for zero-length maps, which matches
			// rows == 0; anything else is corruption.
			if !(rows == 0 && committed == nil && deleted == nil) {
				return nil, fmt.Errorf("MVCC bitmap length mismatch")
			}
		}
		capacity := rows
		if !immutable {
			capacity = chunkSize // mutable tail keeps growing after restore
		}
		// Committed and not deleted is the rule, stamped block-wise; only the
		// blocks that hold an exception get cells.
		mvcc = storage.NewMvccData(capacity)
		mvcc.StampBegin(rows, 0)
		for i := 0; i < rows; i++ {
			off := types.ChunkOffset(i)
			if !committed[i] {
				mvcc.SetBegin(off, types.MaxCommitID)
			}
			if deleted[i] {
				mvcc.SetEnd(off, 0)
			}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	chunk := storage.NewChunk(segs, mvcc)
	if immutable {
		chunk.Finalize()
	}
	if state == chunkFiltered {
		filter.AttachDefaults(chunk)
	}
	return chunk, nil
}

// writeSnapshotFile atomically replaces the snapshot in dir: write to a temp
// file, fsync, rename, fsync the directory.
func writeSnapshotFile(dir string, buf []byte) error {
	final := filepath.Join(dir, SnapshotFileName)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	syncDir(final)
	return nil
}
