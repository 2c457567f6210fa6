package scheduler

import (
	"context"
	"runtime"
)

// TaskGroup fans closures out as scheduler tasks and waits for the whole
// batch — the primitive behind intra-operator parallelism (per-chunk scans,
// radix join partitions, sharded aggregate merges). It preserves the
// scheduler's skip-on-dead-context semantics: tasks not yet started when the
// group's context dies are skipped, but every task still completes, so a
// Wait can never deadlock — exactly the contract operators rely on for
// chunk-granular cancellation.
type TaskGroup struct {
	ctx       context.Context // nil = never canceled
	sched     Scheduler
	jobs      []func()
	queueWait func(ns int64)
}

// NewTaskGroup creates a group over the scheduler. A nil scheduler (or a
// single-worker one) still works: Wait then runs the closures inline.
func NewTaskGroup(ctx context.Context, s Scheduler) *TaskGroup {
	return &TaskGroup{ctx: ctx, sched: s}
}

// SetQueueWaitObserver attaches a queue-wait callback to every task of the
// group (see Task.ObserveQueueWait). Must be set before Wait. The callback
// may fire from multiple workers concurrently.
func (g *TaskGroup) SetQueueWaitObserver(fn func(ns int64)) {
	g.queueWait = fn
}

// Go adds closures to the group. Closures must not call Wait on their own
// group. Go may be called multiple times before a single Wait.
func (g *TaskGroup) Go(fns ...func()) {
	g.jobs = append(g.jobs, fns...)
}

// Wait runs all added closures and blocks until every one has completed
// (run or skipped). It returns the context's error when the group was
// canceled, nil otherwise. After Wait returns no closure of the group is
// still running.
//
// This is the one inline path of intra-operator parallelism: without a
// multi-worker scheduler, or with a single closure, nothing is worth a queue
// round trip and the closures run on the caller in submission order,
// stopping once the context dies. Between two closures the caller yields its
// P. A chunk loop never blocks, and with few Ps the runtime's GC runs its
// mark worker only when a P reschedules; without the yield a GC cycle that
// starts inside an operator stays in its mark phase until the runtime
// preempts the loop (~10 ms), everything the operator allocates meanwhile is
// marked live, and the next heap goal doubles.
func (g *TaskGroup) Wait() error {
	jobs := g.jobs
	g.jobs = nil
	if g.sched == nil || g.sched.WorkerCount() <= 1 || len(jobs) == 1 {
		for i, job := range jobs {
			if g.err() != nil {
				break
			}
			if i > 0 {
				runtime.Gosched()
			}
			job()
		}
		return g.err()
	}
	tasks := make([]*Task, len(jobs))
	for i, job := range jobs {
		tasks[i] = NewTask(job).WithContext(g.ctx).ObserveQueueWait(g.queueWait)
	}
	g.sched.Schedule(tasks...)
	WaitAll(tasks)
	return g.err()
}

func (g *TaskGroup) err() error {
	if g.ctx == nil {
		return nil
	}
	return g.ctx.Err()
}
