package replication

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"hyrise/internal/concurrency"
	"hyrise/internal/observe"
	"hyrise/internal/persistence"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// State is a follower's lifecycle phase.
type State string

// Follower states.
const (
	StateIdle          State = "idle"          // created, not started
	StateBootstrapping State = "bootstrapping" // loading the primary's checkpoint
	StateStreaming     State = "streaming"     // applying the WAL tail
	StateDisconnected  State = "disconnected"  // lost the primary, reconnecting
	StatePromoted      State = "promoted"      // standalone read-write
	StateStopped       State = "stopped"
)

// Follower tails a primary: it bootstraps from the primary's checkpoint file
// when needed, replays shipped WAL frames into its catalog through the shared
// persistence.Applier, and publishes each replayed commit id so concurrent
// readers advance to the new commit barrier atomically. Reads are served by
// the follower's own engine while replay runs; the storage layer's chunk
// locks and atomic MVCC cells make that safe.
type Follower struct {
	sm   *storage.StorageManager
	tm   *concurrency.TransactionManager
	dial func() (io.ReadWriteCloser, error)

	applier *persistence.Applier

	mu           sync.Mutex
	state        State
	conn         io.ReadWriteCloser
	appliedLSN   int64
	appliedCID   types.CommitID
	primaryEnd   int64
	primaryCID   types.CommitID
	lagNS        int64
	bootstrapped bool
	bootstraps   int64
	waitCh       chan struct{}
	// batchLSN is where the WAL batch being applied starts; only the
	// streaming goroutine, which runs onCommit, touches it.
	batchLSN int64

	stopc chan struct{}
	wg    sync.WaitGroup

	appliedLSNGauge *observe.Gauge
	lagBytesGauge   *observe.Gauge
	lagNSGauge      *observe.Gauge
	appliedBytes    *observe.Counter
	bootstrapsCtr   *observe.Counter
}

// NewFollower creates a follower over an engine's catalog and transaction
// manager. dial opens a fresh transport to the primary (called on every
// connect and reconnect); reg receives replication.* metrics (may be nil).
func NewFollower(sm *storage.StorageManager, tm *concurrency.TransactionManager, reg *observe.Registry, dial func() (io.ReadWriteCloser, error)) *Follower {
	f := &Follower{
		sm:     sm,
		tm:     tm,
		dial:   dial,
		state:  StateIdle,
		waitCh: make(chan struct{}),
		stopc:  make(chan struct{}),
	}
	f.applier = persistence.NewApplier(sm, f.onCommit)
	if reg != nil {
		f.appliedLSNGauge = reg.Gauge("replication.applied_lsn")
		f.lagBytesGauge = reg.Gauge("replication.lag_bytes")
		f.lagNSGauge = reg.Gauge("replication.lag_ns")
		f.appliedBytes = reg.Counter("replication.applied_bytes")
		f.bootstrapsCtr = reg.Counter("replication.bootstraps")
	}
	return f
}

// onCommit runs inside ApplyFrames after one commit's rows are fully
// stamped, end bytes into the batch: publish the commit id (advancing the
// read barrier) and the log position past it, then wake barrier waiters —
// a reader they release sees both.
func (f *Follower) onCommit(cid types.CommitID, end int) {
	f.tm.PublishCommitID(cid)
	lsn := f.batchLSN + int64(end)
	if f.appliedLSNGauge != nil {
		f.appliedLSNGauge.Set(lsn)
	}
	f.mu.Lock()
	f.appliedCID = cid
	f.appliedLSN = lsn
	close(f.waitCh)
	f.waitCh = make(chan struct{})
	f.mu.Unlock()
}

// Start launches the replication loop: connect, bootstrap if needed, stream,
// reconnect with backoff on failure.
func (f *Follower) Start() {
	f.wg.Add(1)
	go f.loop()
}

func (f *Follower) loop() {
	defer f.wg.Done()
	backoff := 10 * time.Millisecond
	for {
		if f.stopping() {
			return
		}
		start := time.Now()
		_ = f.streamOnce() // transport errors end the session; reconnect below
		if f.stopping() {
			return
		}
		f.setState(StateDisconnected)
		if time.Since(start) > time.Second {
			backoff = 10 * time.Millisecond // a healthy session resets the backoff
		}
		select {
		case <-f.stopc:
			return
		case <-time.After(backoff):
		}
		if backoff < time.Second {
			backoff *= 2
		}
	}
}

// streamOnce runs one session against the primary: hello, optional snapshot
// bootstrap, then continuous WAL replay until the transport fails or the
// follower stops.
func (f *Follower) streamOnce() error {
	conn, err := f.dial()
	if err != nil {
		return err
	}
	f.mu.Lock()
	if f.state == StateStopped || f.state == StatePromoted {
		f.mu.Unlock()
		conn.Close()
		return nil
	}
	f.conn = conn
	from := int64(-1)
	if f.bootstrapped {
		from = f.appliedLSN
	}
	f.mu.Unlock()
	defer func() {
		conn.Close()
		f.mu.Lock()
		f.conn = nil
		f.mu.Unlock()
	}()

	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)
	var hello [8]byte
	putU64(hello[:], uint64(from))
	if err := writeMsg(bw, msgHello, hello[:]); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	var snapImage []byte // the checkpoint file as its chunks arrive
	for {
		typ, payload, err := readMsg(br)
		if err != nil {
			return err
		}
		switch typ {
		case msgSnapChunk:
			if snapImage == nil {
				f.setState(StateBootstrapping)
			}
			snapImage = append(snapImage, payload...)
		case msgSnapEnd:
			if snapImage == nil {
				return fmt.Errorf("replication: snapshot end before any chunk")
			}
			if err := f.installSnapshot(snapImage); err != nil {
				return err
			}
			snapImage = nil
			f.setState(StateStreaming)
		case msgWAL:
			if len(payload) < 8 {
				return fmt.Errorf("replication: short WAL batch")
			}
			startLSN := getI64(payload, 0)
			frames := payload[8:]
			f.mu.Lock()
			applied := f.appliedLSN
			f.mu.Unlock()
			if startLSN != applied {
				return fmt.Errorf("replication: batch starts at %d, follower at %d", startLSN, applied)
			}
			f.batchLSN = startLSN
			if err := f.applier.ApplyFrames(frames); err != nil {
				return err
			}
			applied = startLSN + int64(len(frames))
			f.mu.Lock()
			f.appliedLSN = applied
			f.mu.Unlock()
			f.setState(StateStreaming)
			if f.appliedLSNGauge != nil {
				f.appliedLSNGauge.Set(applied)
				f.appliedBytes.Add(int64(len(frames)))
			}
			if err := f.sendAck(bw); err != nil {
				return err
			}
		case msgHeartbeat:
			if len(payload) < 24 {
				return fmt.Errorf("replication: short heartbeat")
			}
			f.mu.Lock()
			f.primaryEnd = getI64(payload, 0)
			f.primaryCID = types.CommitID(getU64(payload, 1))
			lagBytes := f.primaryEnd - f.appliedLSN
			if lagBytes < 0 {
				lagBytes = 0
			}
			f.lagNS = time.Now().UnixNano() - getI64(payload, 2)
			lagNS := f.lagNS
			f.mu.Unlock()
			if f.lagBytesGauge != nil {
				f.lagBytesGauge.Set(lagBytes)
				f.lagNSGauge.Set(lagNS)
			}
			if err := f.sendAck(bw); err != nil {
				return err
			}
		default:
			return fmt.Errorf("replication: unexpected message %q", typ)
		}
	}
}

// installSnapshot replaces the catalog with a shipped checkpoint file and
// takes the cut from its header. The swap is not atomic with respect to
// concurrent readers: queries racing a re-bootstrap may fail transiently (the
// router does not route to a bootstrapping follower).
func (f *Follower) installSnapshot(img []byte) error {
	f.applier.Reset()
	for _, name := range f.sm.TableNames() {
		_ = f.sm.DropTable(name)
	}
	for name := range f.sm.Views() {
		_ = f.sm.DropView(name)
	}
	cutLSN, cutCID, err := persistence.DecodeSnapshot(img, f.sm)
	if err != nil {
		return fmt.Errorf("replication: install snapshot: %w", err)
	}
	// A chunk the image caught full but before its seal seals now, as it did
	// on the primary; no log write will fill it.
	f.sm.ReleasePlaceholders()
	f.tm.PublishCommitID(cutCID)
	f.mu.Lock()
	f.appliedLSN = cutLSN
	if cutCID > f.appliedCID {
		f.appliedCID = cutCID
	}
	f.bootstrapped = true
	f.bootstraps++
	close(f.waitCh)
	f.waitCh = make(chan struct{})
	f.mu.Unlock()
	if f.bootstrapsCtr != nil {
		f.bootstrapsCtr.Inc()
		f.appliedLSNGauge.Set(cutLSN)
	}
	return nil
}

func (f *Follower) sendAck(bw *bufio.Writer) error {
	f.mu.Lock()
	lsn, cid := f.appliedLSN, f.appliedCID
	f.mu.Unlock()
	var ack [16]byte
	putU64(ack[:], uint64(lsn), uint64(cid))
	if err := writeMsg(bw, msgAck, ack[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// WaitForCommit blocks until the follower has applied commit id cid (the
// consistent-read barrier: capture the primary's LastCommitID, wait here,
// then read). It fails when ctx expires first.
func (f *Follower) WaitForCommit(ctx context.Context, cid types.CommitID) error {
	for {
		f.mu.Lock()
		cur, ch := f.appliedCID, f.waitCh
		f.mu.Unlock()
		if cur >= cid {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// Promote detaches the follower from its primary and turns it into a
// standalone read-write node: the stream stops, and the transaction manager
// is fast-forwarded past every replayed transaction so new writes get fresh
// ids. The caller flips its engine out of read-only mode.
func (f *Follower) Promote() {
	f.mu.Lock()
	if f.state == StatePromoted || f.state == StateStopped {
		f.mu.Unlock()
		return
	}
	f.state = StatePromoted
	conn := f.conn
	f.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	f.wg.Wait()
	// The stream has ended: the full chunks still waiting on transactions the
	// old primary never committed seal now, and appends may follow them.
	f.sm.ReleasePlaceholders()
	_, maxTID := f.applier.MaxIDs()
	f.mu.Lock()
	cid := f.appliedCID
	f.mu.Unlock()
	f.tm.RecoverState(cid, maxTID)
}

// Repoint re-targets the follower at a different primary (failover: a peer
// was promoted). The current session is dropped and the next connect forces
// a snapshot bootstrap — the new primary's LSN space need not line up with
// the old one's.
func (f *Follower) Repoint(dial func() (io.ReadWriteCloser, error)) {
	f.mu.Lock()
	f.dial = dial
	f.bootstrapped = false
	conn := f.conn
	f.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// Stop ends replication permanently (shutdown, not failover).
func (f *Follower) Stop() {
	f.mu.Lock()
	if f.state == StateStopped {
		f.mu.Unlock()
		return
	}
	prev := f.state
	f.state = StateStopped
	conn := f.conn
	f.mu.Unlock()
	close(f.stopc)
	if conn != nil {
		conn.Close()
	}
	if prev != StatePromoted { // Promote already waited for the loop
		f.wg.Wait()
	}
}

func (f *Follower) setState(s State) {
	f.mu.Lock()
	// Terminal states win races against the streaming goroutine.
	if f.state != StateStopped && f.state != StatePromoted {
		f.state = s
	}
	f.mu.Unlock()
}

func (f *Follower) stopping() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.state == StateStopped || f.state == StatePromoted
}

// Status is a point-in-time view of the follower, surfaced in
// meta_replication and the facade.
type Status struct {
	State      State
	AppliedLSN int64
	AppliedCID types.CommitID
	PrimaryEnd int64
	PrimaryCID types.CommitID
	LagBytes   int64
	LagNS      int64
	Bootstraps int64
}

// Status snapshots the follower's position.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	lag := f.primaryEnd - f.appliedLSN
	if lag < 0 {
		lag = 0
	}
	return Status{
		State:      f.state,
		AppliedLSN: f.appliedLSN,
		AppliedCID: f.appliedCID,
		PrimaryEnd: f.primaryEnd,
		PrimaryCID: f.primaryCID,
		LagBytes:   lag,
		LagNS:      f.lagNS,
		Bootstraps: f.bootstraps,
	}
}

// AppliedLSN returns the follower's replay position.
func (f *Follower) AppliedLSN() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.appliedLSN
}
