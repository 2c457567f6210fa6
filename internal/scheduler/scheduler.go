// Package scheduler implements Hyrise's cooperative task-based scheduler
// (paper §2.9): the unit of work is a task (an operator, a subroutine
// within an operator, or any other closure); tasks can depend on other
// tasks and are enqueued only once their dependencies are fulfilled. One
// worker runs per core, polling a per-node queue; when a node's queue runs
// dry, its workers steal from other nodes and back off briefly when
// stealing fails. The scheduler can be replaced by immediate execution
// (tasks run inline, still guaranteeing progress) to measure its own cost.
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
	fn            func()
	name          string
	preferredNode int
	ctx           context.Context // nil = never canceled

	// enqueuedAt is stamped when the task is pushed onto a node queue and
	// read by the worker that pops it — the queue mutex orders the two, so
	// no atomic is needed. Zero for inline execution (no queue, no wait).
	enqueuedAt time.Time
	// onQueueWait, when set before scheduling, receives the nanoseconds the
	// task sat in a queue between becoming ready and starting to run.
	onQueueWait func(ns int64)

	pending      atomic.Int32 // unfinished predecessors
	mu           sync.Mutex
	successors   []*Task
	predecessors []*Task
	scheduled    atomic.Bool
	enqueued     atomic.Bool
	started      atomic.Bool
	finished     atomic.Bool
	done         chan struct{}
	sched        Scheduler
}

// NewTask wraps a closure (modeled after std::thread's constructor, paper:
// "the easiest type of task has been modeled after std::thread to take a
// function object or a lambda").
func NewTask(fn func()) *Task {
	return &Task{fn: fn, done: make(chan struct{}), preferredNode: -1}
}

// Named sets a diagnostic name and returns the task.
func (t *Task) Named(name string) *Task { t.name = name; return t }

// WithContext attaches a cancellation context and returns the task. A task
// whose context is dead by the time a worker picks it up is skipped: its
// closure never runs, but the task still completes (successors unblock,
// waiters wake) so cancellation can never deadlock a task DAG. Must be set
// before the task is scheduled.
func (t *Task) WithContext(ctx context.Context) *Task { t.ctx = ctx; return t }

// Name returns the diagnostic name.
func (t *Task) Name() string { return t.name }

// ObserveQueueWait registers a callback that receives the time (ns) the task
// spent sitting in a scheduler queue before a worker picked it up. Inline
// execution (immediate scheduler, Wait's helper path before the task was
// queued) reports nothing. Must be set before the task is scheduled.
func (t *Task) ObserveQueueWait(fn func(ns int64)) *Task {
	t.onQueueWait = fn
	return t
}

// SetPreferredNode pins the task to a scheduler node (e.g. close to the
// data it processes). -1 means "any node".
func (t *Task) SetPreferredNode(n int) { t.preferredNode = n }

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
func (t *Task) IsDone() bool { return t.finished.Load() }

// Wait blocks until the task has finished. When called from within another
// task, the caller helps drain the queues instead of blocking a worker,
// which keeps nested task spawning deadlock-free.
func (t *Task) Wait() {
	if s, ok := t.sched.(*NodeQueueScheduler); ok {
		for {
			select {
			case <-t.done:
				return
			default:
			}
			if !s.tryRunOne() {
				select {
				case <-t.done:
					return
				case <-time.After(50 * time.Microsecond):
				}
			}
		}
	}
	<-t.done
}

// run executes the task exactly once and notifies successors. Tasks whose
// context is dead are skipped, not executed: the closure never runs, but
// completion still propagates so dependent tasks and waiters make progress.
func (t *Task) run() {
	if !t.started.CompareAndSwap(false, true) {
		return
	}
	if t.ctx != nil && t.ctx.Err() != nil {
		if t.sched != nil {
			t.sched.noteTaskSkipped()
		}
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
		if t.sched != nil {
			t.sched.noteTaskRun()
		}
	}
	t.finished.Store(true)
	close(t.done)
	// "Once a task finishes, it iterates over its list of successors and
	// asks them to check if they are now ready to be scheduled."
	t.mu.Lock()
	succs := t.successors
	t.mu.Unlock()
	for _, s := range succs {
		if s.pending.Add(-1) == 0 && s.scheduled.Load() {
			if s.sched != nil {
				s.sched.enqueueReady(s)
			}
		}
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
	// QueueDepth is the number of tasks currently waiting in queues
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
	// Shutdown stops all workers after the queues drain.
	Shutdown()

	enqueueReady(t *Task)
	noteTaskRun()
	noteTaskSkipped()
}

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
type ImmediateScheduler struct {
	tasksRun     atomic.Int64
	tasksSkipped atomic.Int64
}

// NewImmediateScheduler creates the inline scheduler.
func NewImmediateScheduler() *ImmediateScheduler { return &ImmediateScheduler{} }

// Schedule implements Scheduler.
func (s *ImmediateScheduler) Schedule(tasks ...*Task) {
	for _, t := range tasks {
		t.sched = s
		t.scheduled.Store(true)
		s.runWithPredecessors(t)
	}
}

func (s *ImmediateScheduler) runWithPredecessors(t *Task) {
	if t.IsDone() || t.started.Load() {
		return
	}
	t.mu.Lock()
	preds := append([]*Task(nil), t.predecessors...)
	t.mu.Unlock()
	for _, p := range preds {
		s.runWithPredecessors(p)
	}
	t.run()
}

// WorkerCount implements Scheduler.
func (s *ImmediateScheduler) WorkerCount() int { return 1 }

// Stats implements Scheduler.
func (s *ImmediateScheduler) Stats() Stats {
	return Stats{TasksRun: s.tasksRun.Load(), TasksSkipped: s.tasksSkipped.Load()}
}

// Shutdown implements Scheduler.
func (s *ImmediateScheduler) Shutdown() {}

func (s *ImmediateScheduler) enqueueReady(t *Task) { t.run() }

func (s *ImmediateScheduler) noteTaskRun() { s.tasksRun.Add(1) }

func (s *ImmediateScheduler) noteTaskSkipped() { s.tasksSkipped.Add(1) }

// --- node-queue scheduler -------------------------------------------------------

// stealBackoff is how long a worker sleeps after an unsuccessful steal
// attempt. The paper uses 10 milliseconds; we keep the mechanism but use a
// shorter pause suited to Go's cheap goroutine parking.
const stealBackoff = 200 * time.Microsecond

// NodeQueueScheduler runs one worker goroutine per (virtual) core, grouped
// into per-node task queues with work stealing across nodes.
type NodeQueueScheduler struct {
	queues       []*taskQueue
	workers      int
	wg           sync.WaitGroup
	closed       atomic.Bool
	rr           atomic.Uint64 // round-robin for unpinned tasks
	tasksRun     atomic.Int64
	tasksSkipped atomic.Int64
	// queueDepth mirrors the summed queue lengths as a single atomic so
	// Stats never takes the queue locks; incremented before push, decremented
	// after a successful pop/steal, so it can transiently over-report but
	// never goes negative.
	queueDepth atomic.Int64
}

type taskQueue struct {
	mu    sync.Mutex
	tasks []*Task
}

func (q *taskQueue) push(t *Task) {
	q.mu.Lock()
	q.tasks = append(q.tasks, t)
	q.mu.Unlock()
}

func (q *taskQueue) pop() *Task {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.tasks) == 0 {
		return nil
	}
	t := q.tasks[0]
	q.tasks = q.tasks[1:]
	return t
}

// steal takes from the back of a foreign queue.
func (q *taskQueue) steal() *Task {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.tasks) == 0 {
		return nil
	}
	t := q.tasks[len(q.tasks)-1]
	q.tasks = q.tasks[:len(q.tasks)-1]
	return t
}

// NewNodeQueueScheduler creates a scheduler with the given number of nodes
// and workers. workers <= 0 selects one per CPU core; nodes <= 0 selects 1.
func NewNodeQueueScheduler(nodes, workers int) *NodeQueueScheduler {
	if nodes <= 0 {
		nodes = 1
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers < nodes {
		workers = nodes
	}
	s := &NodeQueueScheduler{workers: workers}
	for i := 0; i < nodes; i++ {
		s.queues = append(s.queues, &taskQueue{})
	}
	for w := 0; w < workers; w++ {
		node := w % nodes
		s.wg.Add(1)
		go s.workerLoop(node)
	}
	return s
}

func (s *NodeQueueScheduler) workerLoop(node int) {
	defer s.wg.Done()
	for {
		if t := s.queues[node].pop(); t != nil {
			s.queueDepth.Add(-1)
			t.run()
			continue
		}
		// Work stealing: "when the queue on one node runs dry, workers on
		// that node perform work stealing and attempt to help other nodes".
		stolen := false
		for i := 1; i < len(s.queues); i++ {
			other := (node + i) % len(s.queues)
			if t := s.queues[other].steal(); t != nil {
				s.queueDepth.Add(-1)
				t.run()
				stolen = true
				break
			}
		}
		if stolen {
			continue
		}
		if s.closed.Load() {
			return
		}
		time.Sleep(stealBackoff)
	}
}

// Schedule implements Scheduler: ready tasks are enqueued immediately;
// blocked tasks enqueue themselves when their last dependency finishes.
func (s *NodeQueueScheduler) Schedule(tasks ...*Task) {
	for _, t := range tasks {
		t.sched = s
		t.scheduled.Store(true)
		if t.pending.Load() == 0 {
			s.enqueueReady(t)
		}
	}
}

func (s *NodeQueueScheduler) enqueueReady(t *Task) {
	// Schedule and the last predecessor to finish can both find the task
	// ready; only the first of them queues it.
	if !t.enqueued.CompareAndSwap(false, true) {
		return
	}
	node := t.preferredNode
	if node < 0 || node >= len(s.queues) {
		node = int(s.rr.Add(1)) % len(s.queues)
	}
	// Stamp for queue-wait attribution; the queue mutex on push/pop orders
	// this write against the popping worker's read.
	if t.onQueueWait != nil {
		t.enqueuedAt = time.Now()
	}
	s.queueDepth.Add(1)
	s.queues[node].push(t)
}

// tryRunOne pops one task from any queue and runs it (used by Wait to help
// instead of blocking).
func (s *NodeQueueScheduler) tryRunOne() bool {
	for _, q := range s.queues {
		if t := q.pop(); t != nil {
			s.queueDepth.Add(-1)
			t.run()
			return true
		}
	}
	return false
}

// WorkerCount implements Scheduler.
func (s *NodeQueueScheduler) WorkerCount() int { return s.workers }

// Stats implements Scheduler.
func (s *NodeQueueScheduler) Stats() Stats {
	return Stats{
		TasksRun:     s.tasksRun.Load(),
		TasksSkipped: s.tasksSkipped.Load(),
		QueueDepth:   s.queueDepth.Load(),
	}
}

func (s *NodeQueueScheduler) noteTaskRun() { s.tasksRun.Add(1) }

func (s *NodeQueueScheduler) noteTaskSkipped() { s.tasksSkipped.Add(1) }

// NodeCount returns the number of queues.
func (s *NodeQueueScheduler) NodeCount() int { return len(s.queues) }

// Shutdown implements Scheduler: workers exit once all queues are drained.
func (s *NodeQueueScheduler) Shutdown() {
	s.closed.Store(true)
	s.wg.Wait()
}

// RunJobs schedules one task per closure and waits for all of them — the
// helper operators use for per-chunk parallelism (paper: "a task can also
// spawn subtasks, which are then enqueued in the scheduling queue and
// executed in parallel").
func RunJobs(s Scheduler, jobs []func()) {
	RunJobsContext(nil, s, jobs)
}

// RunJobsContext is RunJobs with cooperative cancellation: jobs not yet
// started when ctx dies are skipped (the call still waits for in-flight jobs
// to finish, so no job runs after return). A nil ctx never cancels.
func RunJobsContext(ctx context.Context, s Scheduler, jobs []func()) {
	if len(jobs) == 0 {
		return
	}
	if len(jobs) == 1 {
		if ctx == nil || ctx.Err() == nil {
			jobs[0]()
		}
		return
	}
	_ = RunGroup(ctx, s, jobs)
}
