// Package scheduler implements Hyrise's cooperative task-based scheduler
// (paper §2.9): the unit of work is a task (an operator, a subroutine
// within an operator, or any other closure); tasks can depend on other
// tasks and are enqueued only once their dependencies are fulfilled. One
// worker runs per core; all of them take from one FIFO ready queue and park
// while it is empty. Placing workers on cores and balancing work between
// them is left to the Go runtime, which can pin neither (DESIGN.md S11).
// Without a scheduler — a nil *Scheduler, which is what New returns for one
// worker — plans and job groups run inline on the calling goroutine.
package scheduler

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Task is a schedulable unit of work.
type Task struct {
	fn  func()
	ctx context.Context // nil = never canceled

	// enqueuedAt is stamped when the task is pushed onto the ready queue and
	// read by the goroutine that pops it — the queue mutex orders the two, so
	// no atomic is needed. Zero for inline execution (no queue, no wait).
	enqueuedAt time.Time
	// onQueueWait, when set before scheduling, receives the nanoseconds the
	// task sat in the queue between becoming ready and starting to run.
	onQueueWait func(ns int64)

	// pending counts what still keeps the task from running: its unfinished
	// predecessors plus one for "not scheduled yet". Exactly one decrement
	// reaches zero — Schedule's or the last predecessor's — and that one
	// hands the task to the scheduler, so a task is queued, and run, once.
	pending    atomic.Int32
	mu         sync.Mutex
	successors []*Task
	done       chan struct{}
	sched      *Scheduler // set by Schedule
}

// NewTask wraps a closure (modeled after std::thread's constructor, paper:
// "the easiest type of task has been modeled after std::thread to take a
// function object or a lambda").
func NewTask(fn func()) *Task {
	t := &Task{fn: fn, done: make(chan struct{})}
	t.pending.Store(1)
	return t
}

// WithContext attaches a cancellation context and returns the task. A task
// whose context is dead by the time a worker picks it up is skipped: its
// closure never runs, but the task still completes (successors unblock,
// waiters wake) so cancellation can never deadlock a task DAG. Must be set
// before the task is scheduled.
func (t *Task) WithContext(ctx context.Context) *Task { t.ctx = ctx; return t }

// ObserveQueueWait registers a callback that receives the time (ns) the task
// spent sitting in the ready queue before it was picked up. Run's inline
// route has no queue and reports nothing. Must be set before the task is
// scheduled.
func (t *Task) ObserveQueueWait(fn func(ns int64)) *Task {
	t.onQueueWait = fn
	return t
}

// DependsOn registers pred as a prerequisite. Must be called before either
// task is scheduled.
func (t *Task) DependsOn(pred *Task) {
	t.pending.Add(1)
	pred.mu.Lock()
	pred.successors = append(pred.successors, t)
	pred.mu.Unlock()
}

// IsDone reports whether the task has finished.
func (t *Task) IsDone() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// Wait blocks until the task has finished. The caller runs queued tasks
// while it waits, so a task that spawns subtasks and waits for them keeps
// its worker busy and nested spawning cannot deadlock.
func (t *Task) Wait() {
	if t.sched != nil {
		t.sched.await(t)
	}
	<-t.done
}

// release drops one of the holds counted in pending; the last one makes the
// task ready.
func (t *Task) release() {
	if t.pending.Add(-1) == 0 {
		t.sched.enqueueReady(t)
	}
}

// run executes the task and notifies successors. Tasks whose context is dead
// are skipped, not executed: the closure never runs, but completion still
// propagates so dependent tasks and waiters make progress.
func (t *Task) run() {
	if t.ctx != nil && t.ctx.Err() != nil {
		t.sched.skipped.Add(1)
	} else {
		if t.onQueueWait != nil && !t.enqueuedAt.IsZero() {
			ns := time.Since(t.enqueuedAt).Nanoseconds()
			if ns < 1 {
				ns = 1
			}
			t.onQueueWait(ns)
		}
		if t.fn != nil {
			t.fn()
		}
		t.sched.ran.Add(1)
	}
	close(t.done)
	// "Once a task finishes, it iterates over its list of successors and
	// asks them to check if they are now ready to be scheduled."
	t.mu.Lock()
	succs := t.successors
	t.mu.Unlock()
	for _, s := range succs {
		s.release()
	}
}

// Stats is a point-in-time snapshot of a scheduler's activity (exposed
// through the metrics registry and the meta_metrics table).
type Stats struct {
	// TasksRun counts tasks executed since the scheduler was created.
	TasksRun int64
	// TasksSkipped counts tasks whose context was dead when a worker picked
	// them up; their closures never ran.
	TasksSkipped int64
	// QueueDepth is the number of tasks currently waiting in the ready queue
	// (always 0 without a scheduler).
	QueueDepth int64
}

// WaitAll waits for all given tasks.
func WaitAll(tasks []*Task) {
	for _, t := range tasks {
		t.Wait()
	}
}

// Scheduler runs a fixed number of worker goroutines over one FIFO ready
// queue. Nobody polls: a goroutine with nothing to run — an idle worker, or a
// Wait whose task runs elsewhere — parks on the wake channel, and every push
// leaves a token there that wakes one of them.
type Scheduler struct {
	ran, skipped atomic.Int64 // tasks run and skipped, for Stats

	mu    sync.Mutex
	queue []*Task
	// wake carries one token per push: handed to a parked goroutine if there
	// is one, buffered otherwise. A goroutine parks only by receiving from
	// wake, and only after pop found the queue empty, so a buffered token
	// means nobody is parked. A push that finds the buffer full may therefore
	// drop its token: every worker is awake and pops until the queue is empty
	// before it parks. A Wait, which may stop popping earlier, passes a token
	// on when it leaves tasks behind (await).
	wake    chan struct{}
	quit    chan struct{} // closed by Shutdown
	stop    sync.Once
	workers int
	wg      sync.WaitGroup
}

// New creates a scheduler with the given number of workers; workers <= 0
// selects one per CPU core. One worker has nothing to run in parallel, so
// New returns nil for it: no scheduler, and everything runs inline.
func New(workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers == 1 {
		return nil
	}
	return start(workers)
}

// start launches the worker goroutines. New never starts one worker; tests
// do, as the tightest case for a lost wake-up.
func start(workers int) *Scheduler {
	s := &Scheduler{
		workers: workers,
		wake:    make(chan struct{}, workers),
		quit:    make(chan struct{}),
	}
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go s.worker()
	}
	return s
}

// worker pops and runs tasks until Shutdown. After each task it yields its
// P, as Run's inline route does between jobs: a worker that finds the next
// task at once never blocks, and with few Ps the GC's mark worker would
// otherwise wait for the runtime to preempt it.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		t := s.pop()
		if t == nil {
			select {
			case <-s.wake:
				continue
			case <-s.quit:
				// Tasks queued before Shutdown still run.
				if t = s.pop(); t == nil {
					return
				}
			}
		}
		t.run()
		runtime.Gosched()
	}
}

func (s *Scheduler) pop() *Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return nil
	}
	t := s.queue[0]
	s.queue[0] = nil
	s.queue = s.queue[1:]
	return t
}

// signal leaves a wake-up token unless the buffer is full.
func (s *Scheduler) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Schedule submits tasks: ready tasks are enqueued immediately, blocked
// tasks by their last dependency to finish. s must not be nil.
func (s *Scheduler) Schedule(tasks ...*Task) {
	for _, t := range tasks {
		t.sched = s
		t.release()
	}
}

func (s *Scheduler) enqueueReady(t *Task) {
	// Stamp for queue-wait attribution; the queue mutex orders this write
	// against the popping goroutine's read.
	if t.onQueueWait != nil {
		t.enqueuedAt = time.Now()
	}
	s.mu.Lock()
	s.queue = append(s.queue, t)
	s.mu.Unlock()
	s.signal()
}

// await helps drain the queue until t is done, parking like a worker while
// the queue is empty and yielding like one after each task it runs.
func (s *Scheduler) await(t *Task) {
	for !t.IsDone() {
		if next := s.pop(); next != nil {
			next.run()
			runtime.Gosched()
			continue
		}
		select {
		case <-t.done:
		case <-s.wake:
		}
	}
	// The caller stops popping here, possibly with the token of a task that
	// is still queued in hand and every worker parked.
	if s.Stats().QueueDepth > 0 {
		s.signal()
	}
}

// WorkerCount returns the number of workers: 1 without a scheduler.
func (s *Scheduler) WorkerCount() int {
	if s == nil {
		return 1
	}
	return s.workers
}

// Stats reports tasks run and the current queue depth: zero without a
// scheduler.
func (s *Scheduler) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	depth := len(s.queue)
	s.mu.Unlock()
	return Stats{TasksRun: s.ran.Load(), TasksSkipped: s.skipped.Load(), QueueDepth: int64(depth)}
}

// Shutdown stops the workers once the queue is drained; without a
// scheduler there is nothing to stop.
func (s *Scheduler) Shutdown() {
	if s == nil {
		return
	}
	s.stop.Do(func() { close(s.quit) })
	s.wg.Wait()
}
