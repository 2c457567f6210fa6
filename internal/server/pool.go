// Bounded executor pool: statement execution is decoupled from connection
// goroutines. Each admitted connection still owns its socket, but the actual
// engine work is handed to a fixed set of workers fed by per-class queues
// (read, write, slow). A full queue blocks the submitting connection — that
// back-pressure is the point: a burst of heavy queries queues at the server
// instead of fanning out into an unbounded set of competing goroutines.
// Statements whose historical mean latency exceeds the slow threshold are
// routed to the small slow queue so they cannot occupy every worker.
package server

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hyrise/internal/observe"
	"hyrise/internal/pipeline"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// errPoolStopped reports a statement refused because the server is shutting
// down.
var errPoolStopped = errors.New("server is shutting down")

// DefaultSlowQueueThreshold routes statements to the slow queue once their
// mean latency exceeds it, when EnableExecutorPool is given a zero threshold.
const DefaultSlowQueueThreshold = 100 * time.Millisecond

// poolTask is one queued statement execution.
type poolTask struct {
	run      func()
	enqueued time.Time
	done     chan struct{}
}

// execQueue is one class of work: a bounded task channel drained by a fixed
// number of workers, with counters feeding meta_executor_pool.
type execQueue struct {
	name    string
	tasks   chan *poolTask
	workers int

	submitted atomic.Int64
	executed  atomic.Int64
	rejected  atomic.Int64
	waitNS    atomic.Int64
}

// executorPool groups the per-class queues.
type executorPool struct {
	queues    []*execQueue
	byName    map[string]*execQueue
	slowAfter time.Duration
	queueWait *observe.Histogram

	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup
}

// EnableExecutorPool installs a bounded executor pool: `workers` read
// workers (default GOMAXPROCS), half as many write workers, a quarter as
// many slow workers, each class with a `queueDepth`-deep queue (default 4x
// its worker count). slowAfter sets the mean-latency threshold beyond which
// a statement's fingerprint is routed to the slow queue; zero selects
// DefaultSlowQueueThreshold. Call before Serve.
func (s *Server) EnableExecutorPool(workers, queueDepth int, slowAfter time.Duration) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if slowAfter <= 0 {
		slowAfter = DefaultSlowQueueThreshold
	}
	p := &executorPool{
		slowAfter: slowAfter,
		queueWait: s.engine.Metrics().Histogram(observe.WaitExecutorQueue.MetricName()),
		stopped:   make(chan struct{}),
		byName:    make(map[string]*execQueue),
	}
	classes := []struct {
		name    string
		workers int
	}{
		{"read", workers},
		{"write", max(1, workers/2)},
		{"slow", max(1, workers/4)},
	}
	for _, c := range classes {
		depth := queueDepth
		if depth <= 0 {
			depth = 4 * c.workers
		}
		q := &execQueue{name: c.name, tasks: make(chan *poolTask, depth), workers: c.workers}
		p.queues = append(p.queues, q)
		p.byName[c.name] = q
		for i := 0; i < c.workers; i++ {
			p.wg.Add(1)
			go p.worker(q)
		}
	}
	s.pool.Store(p)
}

func (p *executorPool) worker(q *execQueue) {
	defer p.wg.Done()
	for {
		select {
		case <-p.stopped:
			// Drain what is already queued so blocked submitters are released.
			for {
				select {
				case t := <-q.tasks:
					p.runTask(q, t)
				default:
					return
				}
			}
		case t := <-q.tasks:
			p.runTask(q, t)
		}
	}
}

func (p *executorPool) runTask(q *execQueue, t *poolTask) {
	wait := time.Since(t.enqueued).Nanoseconds()
	q.waitNS.Add(wait)
	p.queueWait.Observe(wait)
	t.run()
	q.executed.Add(1)
	close(t.done)
}

// submit enqueues fn on the class queue and blocks until a worker has run
// it. A full queue exerts back-pressure on the submitting connection;
// cancellation while queued abandons the wait (the statement never started).
func (p *executorPool) submit(ctx context.Context, class string, fn func()) error {
	q := p.byName[class]
	if q == nil {
		fn()
		return nil
	}
	q.submitted.Add(1)
	t := &poolTask{run: fn, enqueued: time.Now(), done: make(chan struct{})}
	select {
	case q.tasks <- t:
	case <-ctx.Done():
		q.rejected.Add(1)
		return ctx.Err()
	case <-p.stopped:
		q.rejected.Add(1)
		return errPoolStopped
	}
	<-t.done
	return nil
}

// stop ends the pool: queued tasks finish, new submissions are refused.
func (p *executorPool) stop() {
	p.stopOnce.Do(func() { close(p.stopped) })
	p.wg.Wait()
}

// poolColumns are meta_executor_pool's columns: one row per queue.
var poolColumns = []storage.ColumnDefinition{
	{Name: "queue", Type: types.TypeString}, // "read" | "write" | "slow"
	{Name: "workers", Type: types.TypeInt64},
	{Name: "depth", Type: types.TypeInt64}, // statements waiting in the queue now
	{Name: "capacity", Type: types.TypeInt64},
	{Name: "submitted", Type: types.TypeInt64},
	{Name: "executed", Type: types.TypeInt64},
	{Name: "rejected", Type: types.TypeInt64},
	{Name: "wait_ns", Type: types.TypeInt64}, // cumulative queue-wait nanoseconds
}

// metaExecutorPool snapshots the executor pool: `SELECT * FROM
// meta_executor_pool`, empty until EnableExecutorPool runs.
func (s *Server) metaExecutorPool() (*storage.Table, error) {
	var rows [][]types.Value
	if p := s.pool.Load(); p != nil {
		for _, q := range p.queues {
			rows = append(rows, []types.Value{
				types.Str(q.name),
				types.Int(int64(q.workers)),
				types.Int(int64(len(q.tasks))),
				types.Int(int64(cap(q.tasks))),
				types.Int(q.submitted.Load()),
				types.Int(q.executed.Load()),
				types.Int(q.rejected.Load()),
				types.Int(q.waitNS.Load()),
			})
		}
	}
	return storage.NewTableFromRows("meta_executor_pool", poolColumns, rows)
}

// execute runs ps on session on a worker of the class queue and waits for
// it. A statement canceled while it waits for room in the queue never runs.
func (p *executorPool) execute(ctx context.Context, class string, session *pipeline.Session, ps *pipeline.PreparedStatement, params []types.Value) (*pipeline.Result, error) {
	var res *pipeline.Result
	var err error
	if runErr := p.submit(ctx, class, func() { res, err = session.ExecutePreparedStatement(ctx, ps, params) }); runErr != nil {
		return nil, runErr
	}
	return res, err
}

// execClass picks p's queue for a statement; "" runs it on the connection
// goroutine, as it does every statement without a pool (nil p).
// Transaction control and any statement inside an explicit transaction
// bypass the pool: a session holding a transaction must never wait behind
// statements that may need its locks. SELECTs go to the read queue unless
// their fingerprint's mean latency crosses the slow threshold; everything
// else is a write.
func (s *Server) execClass(p *executorPool, session *pipeline.Session, tag, fingerprint string) string {
	if p == nil || session.InTransaction() {
		return ""
	}
	switch tag {
	case "BEGIN", "COMMIT", "ROLLBACK":
		return ""
	case "SELECT":
		if fingerprint != "" &&
			s.engine.StatementMeanNS(fingerprint) >= p.slowAfter.Nanoseconds() {
			return "slow"
		}
		return "read"
	default:
		return "write"
	}
}
