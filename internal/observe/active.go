package observe

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// QueryState is the lifecycle state of an in-flight statement.
type QueryState int32

// Query states, in rough lifecycle order. A statement may bounce between
// Executing and Waiting several times (WAL sync, MVCC conflict retries).
const (
	StateParsing QueryState = iota
	StatePlanning
	StateQueued
	StateExecuting
	StateWaiting
)

// String names the state as it appears in meta_active_queries.
func (s QueryState) String() string {
	switch s {
	case StateParsing:
		return "parsing"
	case StatePlanning:
		return "planning"
	case StateQueued:
		return "queued"
	case StateExecuting:
		return "executing"
	case StateWaiting:
		return "waiting"
	default:
		return "?"
	}
}

// ActiveQuery is the registry's handle for one in-flight statement. State
// and row-count updates are atomic stores, so the executor can flip them
// from scheduler workers without locking.
type ActiveQuery struct {
	id          int64
	sessionID   int64
	backendPID  int64
	sql         string
	fingerprint string
	start       time.Time

	state  atomic.Int32
	rows   atomic.Int64
	cancel context.CancelFunc
	reg    *ActiveRegistry
}

// ID returns the query id (the argument to cancel_query).
func (q *ActiveQuery) ID() int64 { return q.id }

// SetState publishes the statement's lifecycle state. Nil-safe so callers
// can hold a possibly-nil handle without checking.
func (q *ActiveQuery) SetState(s QueryState) {
	if q != nil {
		q.state.Store(int32(s))
	}
}

// State returns the current lifecycle state.
func (q *ActiveQuery) State() QueryState { return QueryState(q.state.Load()) }

// AddRows accumulates produced rows (the executor adds the root operator's
// output count). Nil-safe.
func (q *ActiveQuery) AddRows(n int64) {
	if q != nil && n > 0 {
		q.rows.Add(n)
	}
}

// Cancel kills the statement by canceling its context: cancel_query and the
// wire protocol's CancelRequest both end here. Nil-safe; a no-op once the
// statement has finished.
func (q *ActiveQuery) Cancel() {
	if q != nil {
		q.cancel()
	}
}

// Finish deregisters the query and releases its cancel context. Idempotent.
func (q *ActiveQuery) Finish() {
	if q == nil {
		return
	}
	q.reg.remove(q.id)
	q.cancel()
}

// ActiveQueryInfo is one row of a registry snapshot.
type ActiveQueryInfo struct {
	ID          int64
	SessionID   int64
	BackendPID  int64
	SQL         string
	Fingerprint string
	State       QueryState
	Start       time.Time
	Elapsed     time.Duration
	Rows        int64
}

// ActiveRegistry tracks every in-flight statement process-wide, backing the
// meta_active_queries virtual table and SQL-callable cancellation. Begin and
// Finish take a short mutex (once per statement, not per row); state and row
// updates on the returned handle are lock-free.
type ActiveRegistry struct {
	mu      sync.Mutex
	nextID  int64
	queries map[int64]*ActiveQuery
}

// NewActiveRegistry creates an empty registry.
func NewActiveRegistry() *ActiveRegistry {
	return &ActiveRegistry{queries: make(map[int64]*ActiveQuery)}
}

// Begin registers an in-flight statement and returns its handle plus the
// statement's one cancel context: derived from ctx, it dies when the handle
// is canceled (cancel_query, a wire CancelRequest). The caller must call
// Finish on the handle when the statement completes.
func (r *ActiveRegistry) Begin(ctx context.Context, sessionID, backendPID int64, sql, fingerprint string) (*ActiveQuery, context.Context) {
	qctx, cancel := context.WithCancel(ctx)
	q := &ActiveQuery{
		sessionID:   sessionID,
		backendPID:  backendPID,
		sql:         sql,
		fingerprint: fingerprint,
		start:       time.Now(),
		cancel:      cancel,
		reg:         r,
	}
	r.mu.Lock()
	r.nextID++
	q.id = r.nextID
	r.queries[q.id] = q
	r.mu.Unlock()
	return q, qctx
}

func (r *ActiveRegistry) remove(id int64) {
	r.mu.Lock()
	delete(r.queries, id)
	r.mu.Unlock()
}

// Cancel kills the in-flight statement with the given id by canceling its
// context; the victim fails with context.Canceled (SQLSTATE 57014 on the
// wire). Returns false when no such statement is running.
func (r *ActiveRegistry) Cancel(id int64) bool {
	r.mu.Lock()
	q := r.queries[id]
	r.mu.Unlock()
	if q == nil {
		return false
	}
	q.Cancel()
	return true
}

// Len returns the number of in-flight statements.
func (r *ActiveRegistry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.queries)
}

// Snapshot returns the in-flight statements ordered by id.
func (r *ActiveRegistry) Snapshot() []ActiveQueryInfo {
	now := time.Now()
	r.mu.Lock()
	out := make([]ActiveQueryInfo, 0, len(r.queries))
	for _, q := range r.queries {
		out = append(out, ActiveQueryInfo{
			ID:          q.id,
			SessionID:   q.sessionID,
			BackendPID:  q.backendPID,
			SQL:         q.sql,
			Fingerprint: q.fingerprint,
			State:       q.State(),
			Start:       q.start,
			Elapsed:     now.Sub(q.start),
			Rows:        q.rows.Load(),
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
