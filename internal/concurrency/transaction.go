// Package concurrency implements Hyrise's multi-version concurrency control
// (paper §2.8): transactions carry a begin commit id (their snapshot) and
// receive an end commit id when they commit; updates are insert-only with
// invalidations; write-write conflicts are detected by one CAS of a row's end
// cell — if two transactions try to claim one row, only one succeeds and the
// other has to abort.
package concurrency

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hyrise/internal/observe"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// ErrConflict is returned when a transaction loses a write-write race and
// must abort.
var ErrConflict = errors.New("transaction conflict")

// Phase is a transaction's lifecycle state.
type Phase uint8

// Transaction phases.
const (
	Active Phase = iota
	Committed
	RolledBack
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case Active:
		return "Active"
	case Committed:
		return "Committed"
	case RolledBack:
		return "RolledBack"
	default:
		return "?"
	}
}

// RedoKind tags a logged write operation.
type RedoKind uint8

// Redo operation kinds. Updates are logged as delete + insert pairs,
// matching their insert-only MVCC implementation.
const (
	RedoInsert RedoKind = iota + 1
	RedoDelete
)

// RedoOp is one logical write of a transaction, captured for the
// write-ahead log. Inserts carry the physical RowID the row was placed at
// so replay reproduces chunk geometry exactly (delete records reference
// rows by RowID).
type RedoOp struct {
	Kind   RedoKind
	Table  string
	Row    types.RowID
	Values []types.Value // RedoInsert only
}

// DurabilityHook is the seam between the transaction manager and the
// write-ahead log. AppendCommit is called inside the commit critical
// section, in commit-id order, with the transaction's redo operations; the
// hook must buffer the batch atomically. It returns a wait function that
// blocks until the commit record is durable (nil when the commit may be
// acknowledged immediately, e.g. relaxed sync modes). An error aborts the
// commit before any row version is stamped.
type DurabilityHook interface {
	AppendCommit(tid types.TransactionID, cid types.CommitID, ops []RedoOp) (wait func() error, err error)
}

// TransactionManager hands out transaction ids and serializes commit-id
// assignment.
type TransactionManager struct {
	nextTID atomic.Uint64
	lastCID atomic.Uint64
	// commitMu serializes the commit critical section: assign the commit
	// id, append the commit to the log, stamp all row versions, then
	// publish the new last commit id. Readers that start mid-commit still
	// see the previous snapshot.
	commitMu sync.Mutex
	// nextCID is the highest commit id ever assigned (guarded by commitMu).
	// It runs ahead of lastCID while commits await durability: their rows
	// are stamped but not yet visible to new snapshots.
	nextCID uint64

	hook atomic.Pointer[DurabilityHook]

	committed atomic.Int64
	aborted   atomic.Int64

	// lowMu guards the snapshots of the live transactions (snapshot → how
	// many hold it) and the freeze queue: the blocks whose begin or end arrays
	// wait for the low-water mark, a min-heap by the commit id the mark must
	// reach, each block in it at most once (queued).
	lowMu          sync.Mutex
	live           map[types.CommitID]int
	queue          freezeQueue
	queued         map[rowRef]bool
	frozen, thawed *observe.Counter
}

// queuedBlock names an MVCC block by its first row.
type queuedBlock struct {
	rowRef
	at types.CommitID
}

// freezeQueue is a binary min-heap by at. It is typed, not a container/heap,
// whose Push and Pop box every element: a write would allocate for each.
type freezeQueue []queuedBlock

func (q *freezeQueue) push(b queuedBlock) {
	h := append(*q, b)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	*q = h
}

// pop removes and returns the block with the smallest at.
func (q *freezeQueue) pop() queuedBlock {
	h := *q
	top, n := h[0], len(h)-1
	h[0], h[n] = h[n], queuedBlock{} // the vacated cell keeps no chunk alive
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].at < h[c].at {
			c = r
		}
		if h[i].at <= h[c].at {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h
	return top
}

// Instrument publishes in r the begin and end arrays that froze
// (mvcc_frozen_blocks), the frozen ends a row claim turned back into arrays
// (mvcc_thawed_blocks) and how many commits the oldest live snapshot trails
// the last one (txn_low_water_lag). Call it before the first transaction.
func (tm *TransactionManager) Instrument(r *observe.Registry) {
	tm.frozen, tm.thawed = r.Counter("mvcc_frozen_blocks"), r.Counter("mvcc_thawed_blocks")
	// The mark first: the last commit id only grows, so the lag is never negative.
	r.RegisterFunc("txn_low_water_lag", func() int64 { mark := tm.LowWaterMark(); return int64(tm.LastCommitID() - mark) })
}

// LowWaterMark returns the oldest snapshot a live transaction holds, or the
// last published commit id when that is older: every transaction that can
// still start or read sees every commit at or below the mark. A commit still
// waiting for durability is above it.
func (tm *TransactionManager) LowWaterMark() types.CommitID {
	tm.lowMu.Lock()
	defer tm.lowMu.Unlock()
	return tm.lowWaterMarkLocked()
}

func (tm *TransactionManager) lowWaterMarkLocked() types.CommitID {
	mark := tm.LastCommitID()
	for s := range tm.live {
		mark = min(mark, s)
	}
	return mark
}

// end is every transaction's last step, taken once and outside commitMu: it
// drops the transaction's snapshot, queues the blocks it wrote — at its commit
// id cid, or at the last commit after a rollback (cid 0), so a block that only
// released claims reached goes back to the fresh form — and freezes the queued
// blocks the low-water mark has passed (storage.Chunk.FreezeBegin,
// storage.MvccData.FreezeEnd). A block one of whose rows is committed above
// the mark goes back into the queue under that id; one that holds a row that
// is not committed leaves it, and the end of that row's writer queues it
// again — so the queue never holds more than the blocks that hold arrays.
func (tm *TransactionManager) end(tc *TransactionContext, cid types.CommitID) {
	tm.lowMu.Lock()
	if tm.live[tc.snapshot]--; tm.live[tc.snapshot] == 0 {
		delete(tm.live, tc.snapshot)
	}
	at := cmp.Or(cid, tm.LastCommitID())
	tm.queueLocked(tc.inserts, at)
	tm.queueLocked(tc.invalidations, at)
	var ready []rowRef
	mark := tm.lowWaterMarkLocked()
	for len(tm.queue) > 0 && tm.queue[0].at <= mark {
		b := tm.queue.pop()
		delete(tm.queued, b.rowRef)
		ready = append(ready, b.rowRef)
	}
	tm.lowMu.Unlock()
	for _, b := range ready {
		frozeBegin, aboveBegin := b.chunk.FreezeBegin(b.row, mark)
		frozeEnd, aboveEnd := b.chunk.MvccData().FreezeEnd(b.row, mark)
		if frozeBegin {
			tm.frozen.Inc()
		}
		if frozeEnd {
			tm.frozen.Inc()
		}
		// The earlier of the commits that kept an array, 0 if none did.
		if above := cmp.Or(min(aboveBegin, aboveEnd), max(aboveBegin, aboveEnd)); above != 0 {
			tm.lowMu.Lock()
			tm.queueLocked([]rowRef{b}, above)
			tm.lowMu.Unlock()
		}
	}
}

// queueLocked queues the blocks of rows, each at most once.
func (tm *TransactionManager) queueLocked(rows []rowRef, at types.CommitID) {
	var last rowRef
	for _, r := range rows {
		b := rowRef{r.chunk, r.row &^ (storage.MvccBlockRows - 1)}
		if b != last && !tm.queued[b] {
			tm.queued[b] = true
			tm.queue.push(queuedBlock{b, at})
		}
		last = b
	}
}

// SetDurabilityHook installs (or, with nil, removes) the write-ahead-log
// hook. It must be called before transactions start writing.
func (tm *TransactionManager) SetDurabilityHook(h DurabilityHook) {
	if h == nil {
		tm.hook.Store(nil)
		return
	}
	tm.hook.Store(&h)
}

// LoggingEnabled reports whether a durability hook is installed (operators
// use it to skip redo collection entirely when running in-memory only).
func (tm *TransactionManager) LoggingEnabled() bool { return tm.hook.Load() != nil }

func (tm *TransactionManager) durabilityHook() DurabilityHook {
	p := tm.hook.Load()
	if p == nil {
		return nil
	}
	return *p
}

// PublishCommitID raises the published last commit id to cid (monotonic;
// late smaller publishes are no-ops). The write-ahead log calls this after
// a deferred-sync commit becomes durable.
func (tm *TransactionManager) PublishCommitID(cid types.CommitID) {
	for {
		cur := tm.lastCID.Load()
		if uint64(cid) <= cur || tm.lastCID.CompareAndSwap(cur, uint64(cid)) {
			return
		}
	}
}

// RecoverState fast-forwards the commit-id and transaction-id counters
// after log replay, before the engine accepts transactions.
func (tm *TransactionManager) RecoverState(lastCID types.CommitID, lastTID types.TransactionID) {
	tm.commitMu.Lock()
	if uint64(lastCID) > tm.nextCID {
		tm.nextCID = uint64(lastCID)
	}
	tm.commitMu.Unlock()
	tm.PublishCommitID(lastCID)
	for {
		cur := tm.nextTID.Load()
		if uint64(lastTID) <= cur || tm.nextTID.CompareAndSwap(cur, uint64(lastTID)) {
			return
		}
	}
}

// CommitBarrier runs fn while holding the commit critical section: no
// commit can stamp rows or append to the log while fn runs. fn receives
// the highest commit id assigned so far (every such commit has fully
// stamped its rows and appended its log record). The persistence layer
// uses it to take a consistent snapshot cut at a commit boundary.
func (tm *TransactionManager) CommitBarrier(fn func(highestCID types.CommitID)) {
	tm.commitMu.Lock()
	defer tm.commitMu.Unlock()
	fn(types.CommitID(tm.nextCID))
}

// Stats reports lifetime transaction counts (started, committed, aborted).
func (tm *TransactionManager) Stats() (started, committed, aborted int64) {
	return int64(tm.nextTID.Load()), tm.committed.Load(), tm.aborted.Load()
}

// NewTransactionManager creates a manager; commit id 0 is "the beginning of
// time" (bulk-loaded rows are stamped with it and visible to everyone).
func NewTransactionManager() *TransactionManager {
	return &TransactionManager{live: map[types.CommitID]int{}, queued: map[rowRef]bool{}, frozen: new(observe.Counter), thawed: new(observe.Counter)}
}

// LastCommitID returns the most recently published commit id.
func (tm *TransactionManager) LastCommitID() types.CommitID {
	return types.CommitID(tm.lastCID.Load())
}

// New starts a transaction with a fresh id and the current snapshot. The
// snapshot is registered under the lock LowWaterMark takes, so it never falls
// below a mark already handed out.
func (tm *TransactionManager) New() *TransactionContext {
	tm.lowMu.Lock()
	snapshot := tm.LastCommitID()
	tm.live[snapshot]++
	tm.lowMu.Unlock()
	return &TransactionContext{
		tm:       tm,
		tid:      types.TransactionID(tm.nextTID.Add(1)),
		snapshot: snapshot,
		phase:    Active,
	}
}

type rowRef struct {
	chunk *storage.Chunk
	row   types.ChunkOffset
}

// TransactionContext is the per-transaction state threaded through the
// operators (paper Figure 1: operators receive the transaction context to
// validate and stamp rows).
type TransactionContext struct {
	tm       *TransactionManager
	tid      types.TransactionID
	snapshot types.CommitID
	phase    Phase

	mu            sync.Mutex
	inserts       []rowRef
	invalidations []rowRef
	redo          []RedoOp
	waitObs       func(kind observe.WaitKind) (end func())
}

// SetWaitObserver installs a callback fired when the transaction is about to
// block — awaiting WAL durability at commit, or retrying a contended row
// claim. The returned end function is called once the wait finishes; the
// pipeline uses the pair to flip the active query to "waiting" and attribute
// the blocked nanoseconds. The observer must not call back into the
// transaction.
func (tc *TransactionContext) SetWaitObserver(fn func(kind observe.WaitKind) (end func())) {
	tc.mu.Lock()
	tc.waitObs = fn
	tc.mu.Unlock()
}

func (tc *TransactionContext) waitObserver() func(kind observe.WaitKind) (end func()) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.waitObs
}

// TID returns the transaction id.
func (tc *TransactionContext) TID() types.TransactionID { return tc.tid }

// Snapshot returns the commit id this transaction reads as of.
func (tc *TransactionContext) Snapshot() types.CommitID { return tc.snapshot }

// RegisterInsert records a freshly appended row: its begin cell names the
// transaction (types.HeldBy), so the row is visible to this transaction
// only, until commit assigns the begin commit id.
func (tc *TransactionContext) RegisterInsert(chunk *storage.Chunk, row types.ChunkOffset) {
	chunk.MvccData().SetBegin(row, types.HeldBy(tc.tid))
	tc.mu.Lock()
	tc.inserts = append(tc.inserts, rowRef{chunk, row})
	tc.mu.Unlock()
}

// TryInvalidate claims a visible row for deletion. It fails with
// ErrConflict when another transaction holds or has already invalidated the
// row.
func (tc *TransactionContext) TryInvalidate(chunk *storage.Chunk, row types.ChunkOffset) error {
	mvcc := chunk.MvccData()
	if mvcc == nil {
		return fmt.Errorf("concurrency: table has no MVCC data")
	}
	if mvcc.Begin(row) == types.HeldBy(tc.tid) {
		// Deleting a row this transaction inserted: hide it immediately —
		// no other transaction can see it anyway.
		if _, thawed := mvcc.SwapEnd(row, types.MaxCommitID, 0); thawed {
			tc.tm.thawed.Inc()
		}
		return nil
	}
	// One word says whether the row is still valid and who holds it.
	end, ok, thawed := mvcc.Claim(row, tc.tid)
	if thawed {
		tc.tm.thawed.Inc()
	}
	if !ok {
		if end.Committed() {
			return fmt.Errorf("%w: row already invalidated", ErrConflict)
		}
		return fmt.Errorf("%w: row held by transaction %d", ErrConflict, end.Owner())
	}
	tc.mu.Lock()
	tc.invalidations = append(tc.invalidations, rowRef{chunk, row})
	tc.mu.Unlock()
	return nil
}

// TryInvalidateWait is TryInvalidate with a bounded lock wait: when the row
// is merely *held* by another live transaction (not permanently
// invalidated), the claim is retried with exponential backoff for up to
// maxWait before giving up with the original conflict. A maxWait of zero
// keeps the immediate-abort behavior. Waiting is cut short when ctx dies
// (returning the context's error, so cancellation maps to SQLSTATE 57014)
// or when the holder commits its delete (the row can never come back). The
// full blocked span is reported through the wait observer.
func (tc *TransactionContext) TryInvalidateWait(ctx context.Context, chunk *storage.Chunk, row types.ChunkOffset, maxWait time.Duration) error {
	err := tc.TryInvalidate(chunk, row)
	if err == nil || !errors.Is(err, ErrConflict) || maxWait <= 0 {
		return err
	}
	mvcc := chunk.MvccData()
	if obs := tc.waitObserver(); obs != nil {
		if end := obs(observe.WaitMVCCConflict); end != nil {
			defer end()
		}
	}
	deadline := time.Now().Add(maxWait)
	backoff := 50 * time.Microsecond
	for {
		if mvcc.End(row).Committed() {
			// The holder committed its delete: permanently invalidated.
			return err
		}
		if !time.Now().Before(deadline) {
			return err
		}
		if ctx != nil {
			timer := time.NewTimer(backoff)
			select {
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			case <-timer.C:
			}
		} else {
			time.Sleep(backoff)
		}
		err = tc.TryInvalidate(chunk, row)
		if err == nil || !errors.Is(err, ErrConflict) {
			return err
		}
		if backoff *= 2; backoff > time.Millisecond {
			backoff = time.Millisecond
		}
	}
}

// LogInsert records a redo entry for a freshly appended row, carrying its
// physical placement and values for the write-ahead log. No-op unless a
// durability hook is installed.
func (tc *TransactionContext) LogInsert(table string, row types.RowID, vals []types.Value) {
	if !tc.tm.LoggingEnabled() {
		return
	}
	tc.mu.Lock()
	tc.redo = append(tc.redo, RedoOp{Kind: RedoInsert, Table: table, Row: row, Values: vals})
	tc.mu.Unlock()
}

// LogDelete records a redo entry for an invalidated row. No-op unless a
// durability hook is installed.
func (tc *TransactionContext) LogDelete(table string, row types.RowID) {
	if !tc.tm.LoggingEnabled() {
		return
	}
	tc.mu.Lock()
	tc.redo = append(tc.redo, RedoOp{Kind: RedoDelete, Table: table, Row: row})
	tc.mu.Unlock()
}

// Commit stamps all registered rows with a fresh commit id and publishes
// it. With a durability hook installed, the commit record is appended to
// the log before any row version is stamped, and — depending on the sync
// mode — Commit blocks until the record is durable before returning. After
// Commit the transaction is immutable.
func (tc *TransactionContext) Commit() error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.phase != Active {
		return fmt.Errorf("concurrency: commit in phase %s", tc.phase)
	}
	tm := tc.tm
	// Read-only transactions change nothing: consume no commit id, log
	// nothing.
	if len(tc.inserts) == 0 && len(tc.invalidations) == 0 {
		tc.phase = Committed
		tm.committed.Add(1)
		tm.end(tc, 0)
		return nil
	}
	tm.commitMu.Lock()
	cid := types.CommitID(tm.nextCID + 1)
	var wait func() error
	if hook := tm.durabilityHook(); hook != nil {
		w, err := hook.AppendCommit(tc.tid, cid, tc.redo)
		if err != nil {
			// The log rejected the commit (e.g. disk failure): abort so row
			// claims are released instead of dangling forever.
			tm.commitMu.Unlock()
			tc.rollbackLocked()
			return fmt.Errorf("concurrency: write-ahead log append: %w", err)
		}
		wait = w
	}
	tm.nextCID = uint64(cid)
	for _, r := range tc.inserts {
		r.chunk.MvccData().SetBegin(r.row, cid)
	}
	for _, r := range tc.invalidations {
		r.chunk.MvccData().SetEnd(r.row, cid) // over the claim's mark
	}
	if wait == nil {
		// Immediately visible; otherwise the log publishes the commit id
		// once the record is durable, keeping unsynced commits out of new
		// snapshots.
		tm.PublishCommitID(cid)
	}
	tm.commitMu.Unlock()
	tc.phase = Committed
	tm.committed.Add(1)
	var err error
	if wait != nil {
		var end func()
		if obs := tc.waitObs; obs != nil {
			end = obs(observe.WaitWALSync)
		}
		err = wait()
		if end != nil {
			end()
		}
	}
	// After the wait: a durable commit is published by now, so the blocks it
	// stamped can freeze at once.
	tm.end(tc, cid)
	if err != nil {
		return fmt.Errorf("concurrency: commit %d not durable: %w", cid, err)
	}
	return nil
}

// Rollback undoes all registered changes: inserted rows are hidden forever,
// claimed rows are released.
func (tc *TransactionContext) Rollback() {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.rollbackLocked()
}

// rollbackLocked is Rollback with tc.mu already held; a no-op on a transaction
// that is not active any more.
func (tc *TransactionContext) rollbackLocked() {
	if tc.phase != Active {
		return
	}
	for _, r := range tc.inserts {
		r.chunk.MvccData().SetBegin(r.row, types.MaxCommitID) // nobody's, never visible
	}
	for _, r := range tc.invalidations {
		r.chunk.MvccData().Release(r.row, tc.tid)
	}
	tc.phase = RolledBack
	tc.tm.aborted.Add(1)
	tc.tm.end(tc, 0)
}

// Visible reports whether a row version is visible to the transaction
// (the test behind the scan's visibility rung, paper §2.8).
func Visible(mvcc *storage.MvccData, row types.ChunkOffset, tid types.TransactionID, snapshot types.CommitID) bool {
	return visibleIn(mvcc.Block(row), row, tid, snapshot)
}

func visibleIn(mvcc storage.MvccBlock, row types.ChunkOffset, tid types.TransactionID, snapshot types.CommitID) bool {
	if begin := mvcc.Begin(row); begin > snapshot {
		// Not committed as of the snapshot: visible only as this transaction's
		// own insert, unless self-deleted.
		return tid != 0 && begin == types.HeldBy(tid) && mvcc.End(row) == types.MaxCommitID
	}
	// A pending delete (a mark above every snapshot) hides the row from its owner.
	end := mvcc.End(row)
	return end > snapshot && end != types.HeldBy(tid)
}

// VisibleOffsets keeps, in place, the offsets (ascending) of the rows visible
// to the transaction. It walks them block by block: where the block answers
// for all its rows (storage.MvccBlock.AllVisible — data nobody rewrote) no row
// is asked, elsewhere each is, by the rule of Visible.
func VisibleOffsets(mvcc *storage.MvccData, offsets []types.ChunkOffset, tid types.TransactionID, snapshot types.CommitID) []types.ChunkOffset {
	kept := 0
	for i := 0; i < len(offsets); {
		j, blockEnd := i+1, offsets[i]|(storage.MvccBlockRows-1)
		for j < len(offsets) && offsets[j] <= blockEnd {
			j++
		}
		if block := mvcc.Block(offsets[i]); block.AllVisible(snapshot) {
			kept += copy(offsets[kept:], offsets[i:j])
		} else {
			for _, o := range offsets[i:j] {
				if visibleIn(block, o, tid, snapshot) {
					offsets[kept] = o
					kept++
				}
			}
		}
		i = j
	}
	return offsets[:kept]
}

// MarkRowCommitted stamps a row as committed "at the beginning of time"
// (begin commit id 0). Bulk loaders use this for rows created outside any
// transaction.
func MarkRowCommitted(chunk *storage.Chunk, row types.ChunkOffset) {
	if mvcc := chunk.MvccData(); mvcc != nil {
		mvcc.SetBegin(row, 0)
	}
}

// MarkTableLoaded stamps every existing row of a table as committed at
// commit id 0 (bulk-load path).
func MarkTableLoaded(t *storage.Table) {
	for _, c := range t.Chunks() {
		if mvcc := c.MvccData(); mvcc != nil {
			mvcc.StampBegin(c.Size(), 0)
		}
	}
}
