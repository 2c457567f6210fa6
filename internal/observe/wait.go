package observe

// Wait-event attribution: the places a statement spends time blocked without
// running — queued behind scheduler workers, waiting for the WAL group
// commit to reach disk, retrying a contended MVCC row claim, or parked in
// admission control. Each wait is recorded twice from the same measurement:
// as a per-query wait span on the statement's Trace (rendered by EXPLAIN
// ANALYZE) and into a global wait.*_ns histogram, so per-query and fleet-wide
// views always agree on the nanoseconds.

// WaitKind enumerates the instrumented wait events.
type WaitKind uint8

// Wait kinds.
const (
	// WaitSchedulerQueue is time between a task becoming ready (enqueued on
	// the ready queue) and a worker starting it.
	WaitSchedulerQueue WaitKind = iota
	// WaitWALSync is time a committing transaction blocks on the write-ahead
	// log's group commit/fsync before the commit is acknowledged.
	WaitWALSync
	// WaitMVCCConflict is time spent retrying a row claim held by another
	// live transaction (bounded by Config.LockWaitTimeout).
	WaitMVCCConflict
	// WaitAdmission is time a connection waits for a session slot when the
	// server is at max-connections (bounded by the admission-wait setting).
	WaitAdmission
	// WaitExecutorQueue is time a statement spends queued for an executor
	// pool slot before execution starts (pgwire backpressure).
	WaitExecutorQueue

	// NumWaitKinds is the number of wait kinds (for fixed-size aggregation).
	NumWaitKinds
)

// String names the wait kind as it appears in EXPLAIN ANALYZE output.
func (k WaitKind) String() string {
	switch k {
	case WaitSchedulerQueue:
		return "scheduler_queue"
	case WaitWALSync:
		return "wal_sync"
	case WaitMVCCConflict:
		return "mvcc_conflict"
	case WaitAdmission:
		return "admission"
	case WaitExecutorQueue:
		return "executor_queue"
	default:
		return "?"
	}
}

// MetricName is the registry name of the kind's global histogram.
func (k WaitKind) MetricName() string { return "wait." + k.String() + "_ns" }

// WaitMetrics bundles the pre-resolved wait.*_ns histograms, mirroring the
// ExecMetrics pattern: resolve once at engine construction, update lock-free
// on the hot path. A nil *WaitMetrics discards observations.
type WaitMetrics struct {
	hists [NumWaitKinds]*Histogram
}

// NewWaitMetrics resolves the wait histograms from a registry.
func NewWaitMetrics(r *Registry) *WaitMetrics {
	m := &WaitMetrics{}
	for k := WaitKind(0); k < NumWaitKinds; k++ {
		m.hists[k] = r.Histogram(k.MetricName())
	}
	return m
}

// Observe records one wait of ns nanoseconds into the kind's histogram.
func (m *WaitMetrics) Observe(kind WaitKind, ns int64) {
	if m == nil || kind >= NumWaitKinds {
		return
	}
	m.hists[kind].Observe(ns)
}
