package persistence

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"hyrise/internal/types"
)

// SyncMode controls when WAL appends reach stable storage.
type SyncMode uint8

const (
	// SyncOff never fsyncs (except on clean close): fastest, durability only
	// up to the OS page cache. Process crashes lose nothing; power loss may.
	SyncOff SyncMode = iota
	// SyncCommit fsyncs before a commit is acknowledged or made visible to
	// new snapshots. Concurrent commits are grouped under one fsync.
	SyncCommit
	// SyncBatch acknowledges commits immediately and fsyncs in the
	// background at a fixed interval, bounding the loss window.
	SyncBatch
)

// String names the sync mode as accepted by ParseSyncMode.
func (m SyncMode) String() string {
	switch m {
	case SyncOff:
		return "off"
	case SyncCommit:
		return "commit"
	case SyncBatch:
		return "batch"
	default:
		return "?"
	}
}

// ParseSyncMode parses a command-line sync mode name.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "off":
		return SyncOff, nil
	case "commit", "":
		return SyncCommit, nil
	case "batch":
		return SyncBatch, nil
	default:
		return SyncOff, fmt.Errorf("persistence: unknown sync mode %q (want off/commit/batch)", s)
	}
}

// WAL file layout: a 16-byte header (8-byte magic + little-endian start
// LSN) followed by length+CRC32-framed records. LSNs are logical stream
// offsets that survive front-truncation: the byte right after the header
// has offset startLSN.
//
// Frame: [uint32 LE payload length][uint32 LE CRC32(payload)][payload].
const (
	walMagic     = "HYWAL001"
	walHeaderLen = 16
	frameHeader  = 8
	// maxRecordLen bounds a single record so a corrupt length field cannot
	// trigger a giant allocation during replay.
	maxRecordLen = 1 << 30
)

type pendingCommit struct {
	cid  types.CommitID
	done chan struct{}
	err  error
}

// WAL is the append side of the write-ahead log. Appends are buffered and
// flushed to the OS on every batch (so a process crash loses nothing);
// fsync policy is governed by the sync mode.
type WAL struct {
	path string
	mode SyncMode

	// publish raises the transaction manager's last visible commit id once
	// a deferred-sync commit is durable.
	publish func(types.CommitID)
	// onAppend/onSync feed the metrics registry (may be nil).
	onAppend func(bytes int)
	onSync   func()

	mu      sync.Mutex
	cond    *sync.Cond // signals the group-commit syncer
	f       *os.File
	w       *bufio.Writer
	start   int64 // LSN of the first byte after the header
	size    int64 // end LSN (next append position)
	dirty   bool  // bytes written since the last fsync
	broken  error // a failed write poisons the log
	closed  bool
	pending []*pendingCommit

	wg    sync.WaitGroup
	stopc chan struct{}
}

// openWAL opens (or creates) the log at path for appending and starts the
// sync goroutine appropriate for the mode. The file's tail must already be
// truncated to the last valid frame (replayWAL does that). A fresh file is
// created with createStartLSN in its header so logical offsets continue
// from the snapshot cut even after the log itself was lost or reset.
func openWAL(path string, mode SyncMode, createStartLSN int64, publish func(types.CommitID)) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	var start int64
	if st.Size() == 0 {
		start = createStartLSN
		var hdr [walHeaderLen]byte
		copy(hdr[:], walMagic)
		binary.LittleEndian.PutUint64(hdr[8:], uint64(start))
		if _, err := f.Write(hdr[:]); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		start, err = readWALHeader(f)
		if err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	w := &WAL{
		path:    path,
		mode:    mode,
		publish: publish,
		f:       f,
		w:       bufio.NewWriterSize(f, 1<<16),
		start:   start,
		size:    start + max(st.Size()-walHeaderLen, 0),
		stopc:   make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	switch mode {
	case SyncCommit:
		w.wg.Add(1)
		go w.syncLoop()
	case SyncBatch:
		w.wg.Add(1)
		go w.batchLoop()
	}
	return w, nil
}

func readWALHeader(f *os.File) (start int64, err error) {
	var hdr [walHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, fmt.Errorf("persistence: short WAL header: %w", err)
	}
	if string(hdr[:8]) != walMagic {
		return 0, fmt.Errorf("persistence: bad WAL magic")
	}
	return int64(binary.LittleEndian.Uint64(hdr[8:])), nil
}

// frame wraps a payload in the on-disk framing.
func frame(payload []byte) []byte {
	out := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(out, uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:], crc32.ChecksumIEEE(payload))
	copy(out[frameHeader:], payload)
	return out
}

// EndLSN returns the logical end offset of the log.
func (w *WAL) EndLSN() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// StartLSN returns the logical offset of the first byte still in the log
// (raised by front-truncation).
func (w *WAL) StartLSN() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.start
}

// appendLocked writes raw framed bytes and flushes them to the OS.
func (w *WAL) appendLocked(framed []byte) error {
	if w.broken != nil {
		return w.broken
	}
	if w.closed {
		return fmt.Errorf("persistence: WAL is closed")
	}
	if _, err := w.w.Write(framed); err != nil {
		w.broken = fmt.Errorf("persistence: WAL write: %w", err)
		return w.broken
	}
	// Flush to the OS on every append: a killed process then loses nothing,
	// and crash-simulation tests can copy the file at any moment.
	if err := w.w.Flush(); err != nil {
		w.broken = fmt.Errorf("persistence: WAL flush: %w", err)
		return w.broken
	}
	w.size += int64(len(framed))
	w.dirty = true
	if w.onAppend != nil {
		w.onAppend(len(framed))
	}
	return nil
}

// AppendCommitBatch atomically appends a transaction's framed records
// (redo operations followed by the commit record). Under SyncCommit it
// registers the commit for group fsync and returns a wait function; under
// SyncOff/SyncBatch it returns a nil wait and the caller may publish the
// commit immediately.
func (w *WAL) AppendCommitBatch(framed []byte, cid types.CommitID) (wait func() error, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.appendLocked(framed); err != nil {
		return nil, err
	}
	if w.mode != SyncCommit {
		return nil, nil
	}
	p := &pendingCommit{cid: cid, done: make(chan struct{})}
	w.pending = append(w.pending, p)
	w.cond.Signal()
	return func() error {
		<-p.done
		return p.err
	}, nil
}

// AppendDDL appends a framed DDL record. DDL is rare, so it is fsynced
// inline in every mode except SyncOff.
func (w *WAL) AppendDDL(framed []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.appendLocked(framed); err != nil {
		return err
	}
	if w.mode == SyncOff {
		return nil
	}
	return w.syncLocked()
}

// syncLocked fsyncs the file (buffer already flushed by appendLocked).
func (w *WAL) syncLocked() error {
	if w.broken != nil {
		return w.broken
	}
	if !w.dirty {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.broken = fmt.Errorf("persistence: WAL fsync: %w", err)
		return w.broken
	}
	w.dirty = false
	if w.onSync != nil {
		w.onSync()
	}
	return nil
}

// Sync flushes and fsyncs up to the current end of the log.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

// syncLoop is the group-commit worker (SyncCommit mode): it collects all
// commits that arrived since the last fsync, syncs once, then publishes
// their commit ids in order and releases the waiters.
func (w *WAL) syncLoop() {
	defer w.wg.Done()
	for {
		w.mu.Lock()
		for len(w.pending) == 0 && !w.closed {
			w.cond.Wait()
		}
		if len(w.pending) == 0 && w.closed {
			w.mu.Unlock()
			return
		}
		batch := w.pending
		w.pending = nil
		err := w.syncLocked()
		w.mu.Unlock()
		w.release(batch, err)
	}
}

// release publishes and wakes a batch of synced commits (ascending cid:
// batches are collected in append order).
func (w *WAL) release(batch []*pendingCommit, err error) {
	for _, p := range batch {
		p.err = err
		if err == nil && w.publish != nil {
			w.publish(p.cid)
		}
		close(p.done)
	}
}

// batchInterval is the fsync cadence of SyncBatch mode.
const batchInterval = 5 * time.Millisecond

// batchLoop fsyncs dirty state at a fixed interval (SyncBatch mode).
func (w *WAL) batchLoop() {
	defer w.wg.Done()
	t := time.NewTicker(batchInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stopc:
			return
		case <-t.C:
			w.mu.Lock()
			_ = w.syncLocked()
			w.mu.Unlock()
		}
	}
}

// TruncateFront drops the log prefix below upTo (a snapshot LSN at a batch
// boundary): the suffix is copied to a temp file with an updated header and
// atomically renamed over the log. Pending group commits are synced and
// released first, so no waiter spans the file swap.
func (w *WAL) TruncateFront(upTo int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	if upTo <= w.start {
		return nil
	}
	if upTo > w.size {
		return fmt.Errorf("persistence: truncate LSN %d beyond log end %d", upTo, w.size)
	}
	// Drain pending commits: sync the old file and release the waiters.
	batch := w.pending
	w.pending = nil
	if err := w.syncLocked(); err != nil {
		w.release(batch, err)
		return err
	}
	w.release(batch, nil)

	tmpPath := w.path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var hdr [walHeaderLen]byte
	copy(hdr[:], walMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(upTo))
	if _, err := tmp.Write(hdr[:]); err != nil {
		tmp.Close()
		return err
	}
	if _, err := w.f.Seek(walHeaderLen+(upTo-w.start), io.SeekStart); err != nil {
		tmp.Close()
		return err
	}
	if _, err := io.Copy(tmp, w.f); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, w.path); err != nil {
		return err
	}
	old := w.f
	f, err := os.OpenFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		// The old handle still points at the (renamed-over) inode; poison
		// the log rather than continue appending to an unlinked file.
		w.broken = fmt.Errorf("persistence: reopen after truncation: %w", err)
		return w.broken
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		w.broken = err
		return err
	}
	old.Close()
	w.f = f
	w.w = bufio.NewWriterSize(f, 1<<16)
	w.start = upTo
	w.dirty = false
	syncDir(w.path)
	return nil
}

// Close flushes, fsyncs, and closes the log. Outstanding group commits are
// synced and released.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	batch := w.pending
	w.pending = nil
	err := w.syncLocked()
	w.release(batch, err)
	w.cond.Broadcast()
	w.mu.Unlock()
	close(w.stopc)
	w.wg.Wait()

	w.mu.Lock()
	defer w.mu.Unlock()
	cerr := w.f.Close()
	if err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs the directory containing path (best effort — required for
// rename durability on POSIX filesystems).
func syncDir(path string) {
	dir := "."
	if i := lastSlash(path); i >= 0 {
		dir = path[:i]
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' || s[i] == os.PathSeparator {
			return i
		}
	}
	return -1
}

// walReplayBatch is how many frames a parallel replay verifies and decodes
// per round. Framing is inherently sequential (each frame's position depends
// on the previous length field), so replay reads a batch of raw frames, fans
// the CRC checks and payload decodes out across workers, then applies the
// decoded records strictly in log order.
const walReplayBatch = 256

// replayWAL scans the log from LSN from, invoking apply for every decoded
// record in order. It stops cleanly at a torn or truncated tail (short
// frame, bad CRC, undecodable payload) and truncates the file back to the
// last valid frame so appending can resume. It returns the end LSN of the
// valid prefix. CRC verification and record decoding fan out over workers
// (apply order and torn-tail semantics are identical for every worker
// count).
func replayWAL(path string, from int64, workers int, apply func(*record) error) (end int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		if os.IsNotExist(err) {
			return from, nil
		}
		return 0, err
	}
	defer f.Close()

	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	if st.Size() < walHeaderLen {
		// Torn header (crash during creation): reset to an empty log.
		if err := f.Truncate(0); err != nil {
			return 0, err
		}
		return from, nil
	}
	start, err := readWALHeader(f)
	if err != nil {
		return 0, err
	}
	if from < start {
		return 0, fmt.Errorf("persistence: snapshot LSN %d precedes WAL start %d", from, start)
	}
	skip := from - start
	if skip > st.Size()-walHeaderLen {
		// The snapshot is newer than the whole log (the log was lost or cut
		// below the snapshot point; the snapshot is complete without it).
		// Reset the file so it is recreated with the snapshot's LSN in its
		// header — appending below the snapshot cut would strand commits.
		if err := f.Truncate(0); err != nil {
			return 0, err
		}
		return from, nil
	}
	if _, err := f.Seek(walHeaderLen+skip, io.SeekStart); err != nil {
		return 0, err
	}

	br := bufio.NewReaderSize(f, 1<<16)
	lsn := from
	goodFileOff := walHeaderLen + skip
	if workers < 1 {
		workers = 1
	}
	batchCap := 1
	if workers > 1 {
		batchCap = walReplayBatch
	}
	type walFrame struct {
		payload []byte
		wantCRC uint32
		rec     *record
		bad     bool
	}
	frames := make([]walFrame, 0, batchCap)
	var hdr [frameHeader]byte
	torn, eof := false, false
	for !torn && !eof {
		// Phase 1 (sequential): read a batch of raw frames off the file.
		frames = frames[:0]
		for len(frames) < batchCap {
			if _, err := io.ReadFull(br, hdr[:]); err != nil {
				eof = true // clean EOF or torn frame header
				break
			}
			length := binary.LittleEndian.Uint32(hdr[:4])
			wantCRC := binary.LittleEndian.Uint32(hdr[4:])
			if length == 0 || length > maxRecordLen {
				eof = true
				break
			}
			payload := make([]byte, length)
			if _, err := io.ReadFull(br, payload); err != nil {
				eof = true // truncated payload
				break
			}
			frames = append(frames, walFrame{payload: payload, wantCRC: wantCRC})
		}
		// Phase 2 (parallel): verify CRCs and decode payloads.
		runParallel(len(frames), workers, func(i int) {
			fr := &frames[i]
			if crc32.ChecksumIEEE(fr.payload) != fr.wantCRC {
				fr.bad = true // torn write
				return
			}
			rec, derr := decodeRecord(fr.payload)
			if derr != nil {
				fr.bad = true // CRC-valid but structurally corrupt
				return
			}
			fr.rec = rec
		})
		// Phase 3 (sequential): apply in log order, stopping at the first bad
		// frame — everything behind it is discarded, exactly as if the serial
		// loop had hit it.
		for i := range frames {
			if frames[i].bad {
				torn = true
				break
			}
			if aerr := apply(frames[i].rec); aerr != nil {
				// Semantic failure (e.g. insert into a missing table) means
				// the snapshot/log pair is inconsistent; surface it instead
				// of silently dropping committed data.
				return 0, aerr
			}
			lsn += int64(frameHeader + len(frames[i].payload))
			goodFileOff += int64(frameHeader + len(frames[i].payload))
		}
	}
	if goodFileOff < st.Size() {
		if err := f.Truncate(goodFileOff); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}
