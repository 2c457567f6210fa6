// Package persistence adds durability to the engine: a group-commit
// write-ahead log (WAL) plus background snapshots that serialize chunks in
// their encoded segment form and truncate the log up to the snapshot LSN.
// On boot, the manager restores the latest snapshot and replays the log
// suffix; recovery is crash-safe against torn and truncated tails — a bad
// CRC ends replay at the last durable commit. Records and snapshot bodies
// are written with encoding's primitives and read through encoding.Reader.
package persistence

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hyrise/internal/concurrency"
	"hyrise/internal/observe"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Options configures a persistence manager.
type Options struct {
	// Dir is the data directory (created if missing). It holds the WAL
	// (wal.log) and the latest snapshot (snapshot.db).
	Dir string
	// Mode selects when commits reach stable storage (off/commit/batch).
	Mode SyncMode
	// SnapshotInterval, when > 0, checkpoints in the background at this
	// cadence, truncating the WAL each time.
	SnapshotInterval time.Duration
	// Registry receives wal.* / snapshot.* / recovery.* metrics (may be nil).
	Registry *observe.Registry
}

// Manager owns the durability machinery: it restores state on open, appends
// commit batches to the WAL as transactions commit (it is the transaction
// manager's DurabilityHook), and periodically checkpoints snapshots.
type Manager struct {
	opts Options
	sm   *storage.StorageManager
	tm   *concurrency.TransactionManager
	wal  *WAL

	// checkpointMu serializes Checkpoint calls (ticker vs. explicit).
	checkpointMu sync.Mutex

	// pinMu guards the WAL retention pins (see PinWAL). Checkpoint clamps
	// front-truncation to the lowest pinned LSN so a replication follower's
	// unshipped log suffix is never deleted out from under it.
	pinMu  sync.Mutex
	pins   map[int]int64
	pinSeq int

	walBytes      *observe.Counter
	walSyncs      *observe.Counter
	walAppends    *observe.Counter
	snapshots     *observe.Counter
	snapshotBytes *observe.Gauge
	recoveryMs    *observe.Gauge

	stopc chan struct{}
	wg    sync.WaitGroup
}

// Open restores the snapshot and WAL found in opts.Dir into sm/tm, then
// opens the log for appending and installs the manager as the transaction
// manager's durability hook. sm must not contain user tables yet.
func Open(sm *storage.StorageManager, tm *concurrency.TransactionManager, opts Options) (*Manager, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("persistence: empty data directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	m := &Manager{opts: opts, sm: sm, tm: tm, stopc: make(chan struct{})}
	if reg := opts.Registry; reg != nil {
		m.walBytes = reg.Counter("wal.bytes")
		m.walSyncs = reg.Counter("wal.syncs")
		m.walAppends = reg.Counter("wal.appends")
		m.snapshots = reg.Counter("snapshot.count")
		m.snapshotBytes = reg.Gauge("snapshot.bytes")
		m.recoveryMs = reg.Gauge("recovery.duration_ms")
	}

	start := time.Now()
	snapLSN, snapCID, err := readSnapshot(filepath.Join(opts.Dir, SnapshotFileName), sm)
	if err != nil {
		return nil, err
	}
	maxCID, maxTID, err := m.replay(snapLSN)
	if err != nil {
		return nil, err
	}
	// The log ends here: what it has not filled, nothing will.
	sm.ReleasePlaceholders()
	if snapCID > maxCID {
		maxCID = snapCID
	}
	tm.RecoverState(maxCID, maxTID)
	if m.recoveryMs != nil {
		m.recoveryMs.Set(time.Since(start).Milliseconds())
	}

	wal, err := openWAL(filepath.Join(opts.Dir, WALFileName), opts.Mode, snapLSN, tm.PublishCommitID)
	if err != nil {
		return nil, err
	}
	if m.walBytes != nil {
		wal.onAppend = func(n int) { m.walBytes.Add(int64(n)); m.walAppends.Inc() }
		wal.onSync = func() { m.walSyncs.Inc() }
	}
	m.wal = wal
	tm.SetDurabilityHook(m)

	if opts.SnapshotInterval > 0 {
		m.wg.Add(1)
		go m.snapshotLoop(opts.SnapshotInterval)
	}
	return m, nil
}

// replay applies the WAL suffix past the snapshot cut through an Applier
// (shared with replication followers). Ops without a commit record cannot
// survive a torn tail (batches are atomic), but the applier drops them
// anyway. It returns the highest commit and transaction ids seen.
func (m *Manager) replay(fromLSN int64) (maxCID types.CommitID, maxTID types.TransactionID, err error) {
	a := NewApplier(m.sm, nil)
	if _, err := replayWAL(filepath.Join(m.opts.Dir, WALFileName), fromLSN, a.apply); err != nil {
		return 0, 0, err
	}
	maxCID, maxTID = a.MaxIDs()
	return maxCID, maxTID, nil
}

// AppendCommit implements concurrency.DurabilityHook: it encodes the
// transaction's redo operations plus the commit record as one atomic framed
// batch. Called inside the commit critical section, in commit-id order.
func (m *Manager) AppendCommit(tid types.TransactionID, cid types.CommitID, ops []concurrency.RedoOp) (func() error, error) {
	batch, err := appendCommitBatch(nil, tid, cid, ops)
	if err != nil {
		return nil, err
	}
	return m.wal.AppendCommitBatch(batch, cid)
}

// appendCommitBatch appends a transaction's frames to dst: one per redo
// operation, then the commit record's, each built in place.
func appendCommitBatch(dst []byte, tid types.TransactionID, cid types.CommitID, ops []concurrency.RedoOp) ([]byte, error) {
	for _, op := range ops {
		at := len(dst)
		var err error
		if dst, err = appendRedoOp(OpenFrame(dst), tid, op); err != nil {
			return nil, err
		}
		CloseFrame(dst[at:])
	}
	at := len(dst)
	dst = appendCommitRecord(OpenFrame(dst), tid, cid)
	CloseFrame(dst[at:])
	return dst, nil
}

// appendDDL appends a catalog-change frame: a header OpenFrame reserved and
// the record after it.
func (m *Manager) appendDDL(frame []byte) error {
	CloseFrame(frame)
	return m.wal.AppendDDL(frame)
}

// LogCreateTable durably records a CREATE TABLE.
func (m *Manager) LogCreateTable(t *storage.Table) error {
	return m.appendDDL(appendSchema(append(OpenFrame(nil), recCreateTable), t))
}

// LogDropTable durably records a DROP TABLE.
func (m *Manager) LogDropTable(name string) error {
	return m.appendDDL(appendNamesRecord(OpenFrame(nil), recDropTable, name))
}

// LogCreateView durably records a CREATE VIEW.
func (m *Manager) LogCreateView(name, sql string) error {
	return m.appendDDL(appendNamesRecord(OpenFrame(nil), recCreateView, name, sql))
}

// LogDropView durably records a DROP VIEW.
func (m *Manager) LogDropView(name string) error {
	return m.appendDDL(appendNamesRecord(OpenFrame(nil), recDropView, name))
}

// Checkpoint takes a snapshot of the whole catalog and truncates the WAL up
// to the snapshot's cut. The cut is taken at a commit barrier, so every
// commit below the cut LSN is fully stamped; the WAL is fsynced before the
// snapshot is installed so every commit whose stamps may have been captured
// is durable and replayable.
func (m *Manager) Checkpoint() error {
	f, _, err := m.OpenCheckpoint()
	if err != nil {
		return err
	}
	return f.Close()
}

// OpenCheckpoint checkpoints and opens the snapshot file it wrote, before any
// later checkpoint can rename another over it, and returns the file and its
// cut LSN: what a bootstrapping replication follower is sent. The caller
// closes the file.
func (m *Manager) OpenCheckpoint() (*os.File, int64, error) {
	m.checkpointMu.Lock()
	defer m.checkpointMu.Unlock()
	var cutLSN int64
	var cutCID types.CommitID
	m.tm.CommitBarrier(func(highestCID types.CommitID) {
		cutLSN = m.wal.EndLSN()
		cutCID = highestCID
	})
	size, err := m.writeSnapshotFile(cutLSN, cutCID)
	if err != nil {
		return nil, 0, err
	}
	// The snapshot records the true cut; only the log trim is clamped, so a
	// pinned follower can still read the suffix it has not shipped yet.
	truncTo := cutLSN
	if pinned, ok := m.minPinnedLSN(); ok && pinned < truncTo {
		truncTo = pinned
	}
	if err := m.wal.TruncateFront(truncTo); err != nil {
		return nil, 0, err
	}
	if m.snapshots != nil {
		m.snapshots.Inc()
		m.snapshotBytes.Set(size)
	}
	f, err := os.Open(filepath.Join(m.opts.Dir, SnapshotFileName))
	return f, cutLSN, err
}

// snapshotLoop checkpoints at a fixed cadence until Close.
func (m *Manager) snapshotLoop(interval time.Duration) {
	defer m.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.stopc:
			return
		case <-t.C:
			_ = m.Checkpoint()
		}
	}
}

// Dir returns the data directory.
func (m *Manager) Dir() string { return m.opts.Dir }

// Close detaches the durability hook, stops background work, and closes the
// WAL (flushing and fsyncing it). The engine must have stopped accepting
// transactions first.
func (m *Manager) Close() error {
	m.tm.SetDurabilityHook(nil)
	close(m.stopc)
	m.wg.Wait()
	return m.wal.Close()
}
