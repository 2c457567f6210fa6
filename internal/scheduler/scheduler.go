// Package scheduler implements Hyrise's cooperative task-based scheduler
// (paper §2.9): the unit of work is a task (an operator, a subroutine
// within an operator, or any other closure); tasks can depend on other
// tasks and are enqueued only once their dependencies are fulfilled. One
// worker runs per core; all of them take from one FIFO ready queue and park
// while it is empty. Placing workers on cores and balancing work between
// them is left to the Go runtime, which can pin neither (DESIGN.md S11). The
// scheduler can be replaced by immediate execution (tasks run inline, still
// guaranteeing progress) to measure its own cost.
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
	pending      atomic.Int32
	mu           sync.Mutex
	successors   []*Task
	predecessors []*Task
	done         chan struct{}
	sched        Scheduler // set by Schedule
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
// spent sitting in the ready queue before it was picked up. Inline execution
// (immediate scheduler, a group's inline path) reports nothing. Must be set
// before the task is scheduled.
func (t *Task) ObserveQueueWait(fn func(ns int64)) *Task {
	t.onQueueWait = fn
	return t
}

// DependsOn registers pred as a prerequisite. Must be called before either
// task is scheduled.
func (t *Task) DependsOn(pred *Task) {
	t.pending.Add(1)
	t.mu.Lock()
	t.predecessors = append(t.predecessors, pred)
	t.mu.Unlock()
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
		t.sched.noteTaskSkipped()
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
		t.sched.noteTaskRun()
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
	// (always 0 for immediate execution).
	QueueDepth int64
}

// Scheduler executes tasks.
type Scheduler interface {
	// Schedule submits tasks; tasks with open dependencies start once those
	// finish.
	Schedule(tasks ...*Task)
	// WorkerCount returns the number of workers (1 for immediate).
	WorkerCount() int
	// Stats reports tasks run and current queue depth.
	Stats() Stats
	// Shutdown stops all workers after the queue drains.
	Shutdown()

	enqueueReady(t *Task)
	// await runs queued tasks on the calling goroutine until t is done or
	// the scheduler has nothing the caller could run.
	await(t *Task)
	noteTaskRun()
	noteTaskSkipped()
}

// taskCounts is the tasks-run / tasks-skipped half of Stats.
type taskCounts struct{ run, skipped atomic.Int64 }

func (c *taskCounts) noteTaskRun()     { c.run.Add(1) }
func (c *taskCounts) noteTaskSkipped() { c.skipped.Add(1) }

// WaitAll waits for all given tasks.
func WaitAll(tasks []*Task) {
	for _, t := range tasks {
		t.Wait()
	}
}

// --- immediate execution ------------------------------------------------------

// ImmediateScheduler executes tasks synchronously on the calling goroutine.
// When a task has unfinished predecessors, those are executed first (paper:
// "when schedule is called on a task, it is either directly executed or,
// if it has predecessors, their predecessors are executed first").
type ImmediateScheduler struct{ taskCounts }

// NewImmediateScheduler creates the inline scheduler.
func NewImmediateScheduler() *ImmediateScheduler { return &ImmediateScheduler{} }

// Schedule implements Scheduler.
func (s *ImmediateScheduler) Schedule(tasks ...*Task) {
	for _, t := range tasks {
		if t.sched != nil {
			continue // already run as a predecessor of an earlier task
		}
		t.mu.Lock()
		preds := append([]*Task(nil), t.predecessors...)
		t.mu.Unlock()
		s.Schedule(preds...)
		t.sched = s
		t.release()
	}
}

// WorkerCount implements Scheduler.
func (s *ImmediateScheduler) WorkerCount() int { return 1 }

// Stats implements Scheduler.
func (s *ImmediateScheduler) Stats() Stats {
	return Stats{TasksRun: s.run.Load(), TasksSkipped: s.skipped.Load()}
}

// Shutdown implements Scheduler.
func (s *ImmediateScheduler) Shutdown() {}

func (s *ImmediateScheduler) enqueueReady(t *Task) { t.run() }

func (s *ImmediateScheduler) await(*Task) {}

// --- queue scheduler ------------------------------------------------------------

// QueueScheduler runs a fixed number of worker goroutines over one FIFO ready
// queue. Nobody polls: a goroutine with nothing to run — an idle worker, or a
// Wait whose task runs elsewhere — parks on the wake channel, and every push
// leaves a token there that wakes one of them.
type QueueScheduler struct {
	taskCounts
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
// selects one per CPU core.
func New(workers int) *QueueScheduler {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	s := &QueueScheduler{
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
// P, as TaskGroup.Wait's inline path does between closures: a worker that
// finds the next task at once never blocks, and with few Ps the GC's mark
// worker would otherwise wait for the runtime to preempt it.
func (s *QueueScheduler) worker() {
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

func (s *QueueScheduler) pop() *Task {
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
func (s *QueueScheduler) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Schedule implements Scheduler: ready tasks are enqueued immediately;
// blocked tasks are enqueued by their last dependency to finish.
func (s *QueueScheduler) Schedule(tasks ...*Task) {
	for _, t := range tasks {
		t.sched = s
		t.release()
	}
}

func (s *QueueScheduler) enqueueReady(t *Task) {
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
func (s *QueueScheduler) await(t *Task) {
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

// WorkerCount implements Scheduler.
func (s *QueueScheduler) WorkerCount() int { return s.workers }

// Stats implements Scheduler.
func (s *QueueScheduler) Stats() Stats {
	s.mu.Lock()
	depth := len(s.queue)
	s.mu.Unlock()
	return Stats{TasksRun: s.run.Load(), TasksSkipped: s.skipped.Load(), QueueDepth: int64(depth)}
}

// Shutdown implements Scheduler: workers exit once the queue is drained.
func (s *QueueScheduler) Shutdown() {
	s.stop.Do(func() { close(s.quit) })
	s.wg.Wait()
}
