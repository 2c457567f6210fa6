// Bounded executor pool: a slot set per class of work (read, write, slow)
// bounds how many statements of that class run at once. A statement takes
// its class's slot on its connection goroutine and runs there; a full class
// makes it wait — that back-pressure is the point: a burst of heavy queries
// waits at the server instead of fanning out into an unbounded set of
// competing executions. Statements whose historical mean latency exceeds the
// slow threshold take the small slow class so they cannot hold every slot.
package server

import (
	"runtime"
	"time"

	"hyrise/internal/observe"
	"hyrise/internal/pipeline"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// DefaultSlowQueueThreshold routes statements to the slow class once their
// mean latency exceeds it, when EnableExecutorPool is given a zero threshold.
const DefaultSlowQueueThreshold = 100 * time.Millisecond

// executorPool groups the per-class slot sets.
type executorPool struct {
	read, write, slow *slots
	slowAfter         time.Duration
	queueWait         *observe.Histogram
}

// EnableExecutorPool bounds statement execution: `workers` read slots
// (default GOMAXPROCS), half as many write slots, a quarter as many slow
// slots. slowAfter sets the mean-latency threshold beyond which a
// statement's fingerprint takes the slow class; zero selects
// DefaultSlowQueueThreshold. Call before Serve.
func (s *Server) EnableExecutorPool(workers int, slowAfter time.Duration) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if slowAfter <= 0 {
		slowAfter = DefaultSlowQueueThreshold
	}
	// A statement waiting for its class when a drain starts still runs: its
	// connection is busy, and the drain lets busy connections finish.
	s.pool.Store(&executorPool{
		read:      newSlots(workers, nil),
		write:     newSlots(max(1, workers/2), nil),
		slow:      newSlots(max(1, workers/4), nil),
		slowAfter: slowAfter,
		queueWait: s.engine.Metrics().Histogram(observe.WaitExecutorQueue.MetricName()),
	})
}

// poolColumns are meta_executor_pool's columns: one row per class.
var poolColumns = []storage.ColumnDefinition{
	{Name: "queue", Type: types.TypeString}, // "read" | "write" | "slow"
	{Name: "slots", Type: types.TypeInt64},
	{Name: "waiting", Type: types.TypeInt64}, // statements waiting for a slot now
	{Name: "submitted", Type: types.TypeInt64},
	{Name: "executed", Type: types.TypeInt64},
	{Name: "rejected", Type: types.TypeInt64},
	{Name: "wait_ns", Type: types.TypeInt64}, // cumulative wait nanoseconds
}

// metaExecutorPool snapshots the executor pool: `SELECT * FROM
// meta_executor_pool`, empty until EnableExecutorPool runs.
func (s *Server) metaExecutorPool() (*storage.Table, error) {
	var rows [][]types.Value
	if p := s.pool.Load(); p != nil {
		for _, c := range []struct {
			name string
			*slots
		}{{"read", p.read}, {"write", p.write}, {"slow", p.slow}} {
			rows = append(rows, []types.Value{
				types.Str(c.name),
				types.Int(int64(cap(c.held))),
				types.Int(c.waiting.Load()),
				types.Int(c.submitted.Load()),
				types.Int(c.executed.Load()),
				types.Int(c.rejected.Load()),
				types.Int(c.waitNS.Load()),
			})
		}
	}
	return storage.NewTableFromRows("meta_executor_pool", poolColumns, rows)
}

// class picks p's slot set for a statement; nil runs it unbounded, as every
// statement runs without a pool (nil p). Transaction control and any
// statement inside an explicit transaction bypass the pool: a session
// holding a transaction must never wait behind statements that may need its
// locks. SELECTs take the read class unless their fingerprint's mean latency
// crosses the slow threshold; everything else is a write.
func (p *executorPool) class(engine *pipeline.Engine, session *pipeline.Session, tag, fingerprint string) *slots {
	if p == nil || session.InTransaction() {
		return nil
	}
	switch tag {
	case "BEGIN", "COMMIT", "ROLLBACK":
		return nil
	case "SELECT":
		if fingerprint != "" && engine.StatementMeanNS(fingerprint) >= p.slowAfter.Nanoseconds() {
			return p.slow
		}
		return p.read
	default:
		return p.write
	}
}
