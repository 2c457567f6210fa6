package scheduler

import (
	"context"
	"runtime"
)

// Run runs jobs as one group and blocks until every one has completed, run
// or skipped — the primitive behind intra-operator parallelism (per-chunk
// scans, hash join ranges, sharded aggregate merges). It preserves the
// scheduler's skip-on-dead-context semantics: jobs not yet started when ctx
// (nil = never canceled) dies are skipped, but every job still completes, so
// Run can never deadlock — exactly the contract operators rely on for
// chunk-granular cancellation. It returns ctx's error when the group was
// canceled, nil otherwise; after it returns no job is still running.
// onQueueWait, when non-nil, is attached to every task (see
// Task.ObserveQueueWait) and may fire from several workers at once.
//
// This is the one inline path of intra-operator parallelism: without a
// scheduler (s nil), or with a single job, nothing is worth a queue round
// trip and the jobs run on the caller in submission order, stopping once ctx
// dies. Between two jobs the caller yields its P. A chunk loop never blocks,
// and with few Ps the runtime's GC runs its mark worker only when a P
// reschedules; without the yield a GC cycle that starts inside an operator
// stays in its mark phase until the runtime preempts the loop (~10 ms),
// everything the operator allocates meanwhile is marked live, and the next
// heap goal doubles.
func Run(ctx context.Context, s *Scheduler, onQueueWait func(ns int64), jobs ...func()) error {
	if s == nil || len(jobs) == 1 {
		for i, job := range jobs {
			if ctxErr(ctx) != nil {
				break
			}
			if i > 0 {
				runtime.Gosched()
			}
			job()
		}
		return ctxErr(ctx)
	}
	tasks := make([]*Task, len(jobs))
	for i, job := range jobs {
		tasks[i] = NewTask(job).WithContext(ctx).ObserveQueueWait(onQueueWait)
	}
	s.Schedule(tasks...)
	WaitAll(tasks)
	return ctxErr(ctx)
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
