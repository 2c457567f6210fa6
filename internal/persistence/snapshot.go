package persistence

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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
// with the bins it had.
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

// writeSnapshot streams all tables and views to w as a snapshot image tagged
// with the WAL cut (lsn, lastCID): table by table and chunk by chunk, every
// chunk body built in one reused buffer and prefixed with its byte length
// (what makes parallel chunk decode possible on restore), the CRC kept
// running over the body.
func writeSnapshot(w io.Writer, sm *storage.StorageManager, lsn int64, lastCID types.CommitID) error {
	_, werr := io.WriteString(w, snapMagic)
	crc := crc32.NewIEEE()
	body := io.MultiWriter(w, crc)
	// put writes b to the body; after a write error it does nothing.
	put := func(b []byte) {
		if werr == nil {
			_, werr = body.Write(b)
		}
	}
	// head holds the body's bytes up to the next chunk.
	head := binary.AppendUvarint(nil, uint64(lsn))
	head = binary.AppendUvarint(head, uint64(lastCID))
	names := sm.TableNames()
	head = binary.AppendUvarint(head, uint64(len(names)))
	chunk := make([]byte, 0, 1<<12)
	for _, name := range names {
		t, err := sm.GetTable(name)
		if err != nil {
			return err
		}
		chunks := t.Chunks()
		head = binary.AppendUvarint(appendSchema(head, t), uint64(len(chunks)))
		for _, c := range chunks {
			if chunk, err = appendChunk(chunk[:0], c); err != nil {
				return fmt.Errorf("persistence: snapshot table %q: %w", name, err)
			}
			head = binary.AppendUvarint(head, uint64(len(chunk)))
			put(head)
			put(chunk)
			head = head[:0]
		}
	}

	views := sm.Views()
	head = binary.AppendUvarint(head, uint64(len(views)))
	for _, name := range slices.Sorted(maps.Keys(views)) {
		head = encoding.AppendString(encoding.AppendString(head, name), views[name])
	}
	put(head)
	if werr == nil {
		_, werr = w.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
	}
	return werr
}

// The state byte a chunk body starts with. Restore derives the bins of a chunk
// that had them (filter.AttachDefaults) from its segments as persisted: it
// never re-encodes.
const (
	chunkMutable byte = iota
	chunkImmutable
	chunkFiltered // immutable, with its bins
)

// appendChunk appends one chunk body (state byte, row count, segments, MVCC
// bitmaps) — the unit a snapshot length-prefixes.
func appendChunk(dst []byte, c *storage.Chunk) ([]byte, error) {
	segs, rows, immutable := c.SealedSnapshot()
	state := chunkImmutable
	switch {
	case !immutable:
		state = chunkMutable
	case filter.HasDefaults(c):
		state = chunkFiltered
	}
	dst = binary.AppendUvarint(append(dst, state), uint64(rows))
	for _, seg := range segs {
		var err error
		if dst, err = encoding.AppendSegment(dst, seg); err != nil {
			return nil, err
		}
	}
	mvcc := c.MvccData()
	if mvcc == nil {
		return append(dst, 0), nil
	}
	committed := make([]bool, rows)
	deleted := make([]bool, rows)
	for i := 0; i < rows; i++ {
		off := types.ChunkOffset(i)
		committed[i] = mvcc.Begin(off).Committed()
		deleted[i] = mvcc.End(off).Committed() // a claim still open keeps the row
	}
	return encoding.AppendBools(encoding.AppendBools(append(dst, 1), committed), deleted), nil
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

// DecodeSnapshot loads a snapshot file's contents — read from disk, or shipped
// by a replication primary for bootstrap — into the (empty) storage manager
// and returns the WAL cut its header holds. Chunk decode runs with one worker
// per CPU.
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
	r := encoding.NewReader(body)
	lsn, lastCID = int64(r.Uvarint()), types.CommitID(r.Uvarint())

	nTables := r.Uvarint()
	if nTables > uint64(r.Len()) {
		r.Fail("table count exceeds snapshot size")
	}
	for i := uint64(0); i < nTables && r.Err() == nil; i++ {
		t, err := decodeTable(r, workers)
		if err != nil {
			return 0, 0, fmt.Errorf("persistence: snapshot table %d: %w", i, err)
		}
		if err := sm.AddTable(t); err != nil {
			return 0, 0, err
		}
	}

	nViews := r.Uvarint()
	if nViews > uint64(r.Len()) {
		r.Fail("view count exceeds snapshot size")
	}
	for i := uint64(0); i < nViews && r.Err() == nil; i++ {
		if name, sql := r.Str(), r.Str(); r.Err() == nil {
			if err := sm.AddView(name, sql); err != nil {
				return 0, 0, err
			}
		}
	}
	if r.Err() != nil {
		return 0, 0, r.Err()
	}
	return lsn, lastCID, nil
}

func decodeTable(r *encoding.Reader, workers int) (*storage.Table, error) {
	t := readSchema(r)
	nChunks := r.Uvarint()
	if nChunks > uint64(r.Len()) {
		r.Fail("chunk count exceeds snapshot size")
	}
	if r.Err() != nil {
		return nil, r.Err()
	}

	// Slice out the length-prefixed chunk bodies sequentially (cheap),
	// decode the bodies in parallel, then append in chunk order so chunk ids
	// come out identical to a serial restore.
	bodies := make([][]byte, 0, nChunks)
	for ci := uint64(0); ci < nChunks && r.Err() == nil; ci++ {
		bodies = append(bodies, r.Prefixed())
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	chunks := make([]*storage.Chunk, len(bodies))
	errs := make([]error, len(bodies))
	runParallel(len(bodies), workers, func(ci int) {
		chunks[ci], errs[ci] = decodeChunk(encoding.NewReader(bodies[ci]), t.ColumnDefinitions(), t.TargetChunkSize())
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

// decodeChunk decodes one chunk body (the unit appendChunk writes) from r;
// decodeTable calls it concurrently over disjoint body slices.
func decodeChunk(r *encoding.Reader, defs []storage.ColumnDefinition, chunkSize int) (*storage.Chunk, error) {
	state := r.Byte()
	immutable := state != chunkMutable
	rows := int(r.Uvarint())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if state > chunkFiltered {
		return nil, fmt.Errorf("unknown chunk state %d", state)
	}
	if !immutable && rows > chunkSize {
		return nil, fmt.Errorf("mutable chunk of %d rows exceeds the chunk size %d", rows, chunkSize)
	}
	segs := make([]storage.Segment, len(defs))
	for i := range defs {
		if segs[i] = r.Segment(); r.Err() != nil {
			return nil, fmt.Errorf("column %d: %w", i, r.Err())
		}
		if segs[i].Len() != rows {
			return nil, fmt.Errorf("column %d: segment has %d rows, want %d", i, segs[i].Len(), rows)
		}
	}
	var mvcc *storage.MvccData
	hasMvcc := r.Byte() == 1
	if hasMvcc {
		committed := r.Bools()
		deleted := r.Bools()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if len(committed) != rows || len(deleted) != rows {
			// Bools returns nil for zero-length maps, which matches
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
		// blocks that hold an uncommitted row get begin cells, and those that
		// hold a deleted one a frozen end.
		mvcc = storage.NewMvccData(capacity)
		mvcc.StampBegin(rows, 0)
		for i := 0; i < rows; i++ {
			if !committed[i] {
				mvcc.SetBegin(types.ChunkOffset(i), types.MaxCommitID)
			}
		}
		mvcc.StampEnd(deleted, 0)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes in chunk body", r.Len())
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

// writeSnapshotFile atomically replaces the snapshot in the data directory
// with the catalog cut at (lsn, lastCID): stream it into a temp file, fsync
// the WAL, fsync the file, rename it, fsync the directory. It returns the
// bytes written.
func (m *Manager) writeSnapshotFile(lsn int64, lastCID types.CommitID) (size int64, err error) {
	path := filepath.Join(m.opts.Dir, SnapshotFileName)
	err = replaceFile(path, func(f *os.File) error {
		bw := bufio.NewWriterSize(f, 1<<16)
		if err := writeSnapshot(bw, m.sm, lsn, lastCID); err != nil {
			return err
		}
		// Rows committed while the image was written may be in it: their
		// commit records reach the disk before the image replaces the old one.
		if err := m.wal.Sync(); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		size, err = f.Seek(0, io.SeekCurrent)
		return err
	})
	if err != nil {
		return 0, err
	}
	return size, syncDir(path)
}
