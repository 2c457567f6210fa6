package persistence

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
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
	f       *os.File   // O_APPEND: writes land at the end, whatever a read moved
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
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
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
		if _, err := f.Write(walHeader(start)); err != nil {
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

// walHeader is the header of a log whose first byte after it has LSN start.
func walHeader(start int64) []byte {
	return binary.LittleEndian.AppendUint64([]byte(walMagic), uint64(start))
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

// OpenFrame reserves the header of a frame at the end of dst; the bytes
// appended after it are the frame's payload, and CloseFrame fills the header
// in. WAL records and replication messages are both framed this way.
func OpenFrame(dst []byte) []byte { return append(dst, make([]byte, frameHeader)...) }

// CloseFrame writes the length and CRC of the payload of frame, which starts
// with the header OpenFrame reserved and ends with the payload.
func CloseFrame(frame []byte) {
	payload := frame[frameHeader:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
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

	err := replaceFile(w.path, func(tmp *os.File) error {
		if _, err := tmp.Write(walHeader(upTo)); err != nil {
			return err
		}
		if _, err := w.f.Seek(walHeaderLen+(upTo-w.start), io.SeekStart); err != nil {
			return err
		}
		_, err := io.Copy(tmp, w.f)
		return err
	})
	if err != nil {
		return err
	}
	// A failure from here on poisons the log: the old handle points at the
	// renamed-over inode, and until the directory is synced the new file's
	// name may not survive a crash, nor would the commits appended to it.
	f, err := os.OpenFile(w.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err == nil {
		w.f.Close()
		w.f, w.w = f, bufio.NewWriterSize(f, 1<<16)
		w.start, w.dirty = upTo, false
		err = syncDir(w.path)
	}
	if err != nil {
		w.broken = fmt.Errorf("persistence: WAL after truncation: %w", err)
	}
	return w.broken
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

// replaceFile replaces path with the file write fills: a temp file, written,
// fsynced and renamed over path. On any error the temp file is removed. The
// caller makes the rename durable with syncDir.
func replaceFile(path string, write func(f *os.File) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// syncDir fsyncs the directory containing path, which makes a rename in it
// durable on POSIX filesystems. A variable, so tests can fail it.
var syncDir = func(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

var (
	// errTornFrame: the bytes end inside a frame, or its length field is out
	// of bounds — what a crash mid-append leaves at the end of the log.
	errTornFrame = errors.New("persistence: torn WAL frame")
	// errFrameCRC: a whole frame whose payload fails its checksum.
	errFrameCRC = errors.New("persistence: WAL frame fails CRC check")
)

// ReadFrame reads the frame at r's position, r holding avail more bytes, and
// returns its payload, read into buf when it fits. It returns io.EOF when
// avail is 0, errTornFrame when the frame does not fit in avail or its
// length is out of bounds, and errFrameCRC — the payload consumed and
// returned — when the checksum fails. A payload over 64 KiB that buf cannot
// hold grows as its bytes arrive, so a length nobody fills costs nothing.
// Every reader of frames walks them through here: crash replay, a follower's
// ApplyFrames, the ReadWAL trim and replication messages (avail unbounded).
func ReadFrame(r io.Reader, avail int64, buf []byte) ([]byte, error) {
	if avail == 0 {
		return nil, io.EOF
	}
	if avail < frameHeader {
		return nil, errTornFrame
	}
	if cap(buf) < frameHeader {
		buf = make([]byte, frameHeader)
	}
	hdr := buf[:frameHeader]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	length := int64(binary.LittleEndian.Uint32(hdr))
	wantCRC := binary.LittleEndian.Uint32(hdr[4:])
	if length == 0 || length > maxRecordLen || length > avail-frameHeader {
		return nil, errTornFrame
	}
	if int64(cap(buf)) < length && length <= 1<<16 {
		buf = make([]byte, length)
	}
	var payload []byte
	var err error
	if int64(cap(buf)) >= length {
		payload = buf[:length]
		_, err = io.ReadFull(r, payload)
	} else {
		var grown bytes.Buffer
		_, err = io.CopyN(&grown, r, length)
		payload = grown.Bytes()
	}
	if err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return payload, errFrameCRC
	}
	return payload, nil
}

// replayWAL scans the log from LSN from, invoking apply for every decoded
// record in order, one frame in memory at a time. It stops cleanly at a torn
// or truncated tail (short frame, bad CRC, undecodable payload) and truncates
// the file back to the last valid frame so appending can resume. It returns
// the end LSN of the valid prefix.
func replayWAL(path string, from int64, apply func(*record) error) (end int64, err error) {
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
	off := walHeaderLen + skip // file offset of the next frame
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return 0, err
	}
	br := bufio.NewReaderSize(f, 1<<16)
	var payload []byte
	for {
		payload, err = ReadFrame(br, st.Size()-off, payload)
		if err == io.EOF || err == errTornFrame || err == errFrameCRC {
			break // the end of the log, or the torn write a crash left there
		}
		if err != nil {
			return 0, fmt.Errorf("persistence: read WAL: %w", err)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			break // CRC-valid but structurally corrupt
		}
		if err := apply(rec); err != nil {
			// Semantic failure (e.g. insert into a missing table) means the
			// snapshot/log pair is inconsistent; surface it instead of
			// silently dropping committed data.
			return 0, err
		}
		off += frameHeader + int64(len(payload))
	}
	if off < st.Size() {
		if err := f.Truncate(off); err != nil {
			return 0, err
		}
	}
	return start + off - walHeaderLen, nil
}
