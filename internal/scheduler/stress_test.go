package scheduler

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStressRandomCancellation hammers the queue scheduler with random
// task DAGs whose contexts are canceled at random times, checking three
// invariants (run under -race in CI):
//
//  1. a task whose context was dead BEFORE it was scheduled never runs its
//     closure (for concurrently-canceled contexts the skip is best-effort,
//     so those only exercise the races);
//  2. every scheduled task completes — cancellation never deadlocks a DAG;
//  3. Stats().QueueDepth never goes negative.
func TestStressRandomCancellation(t *testing.T) {
	s := New(4)
	defer s.Shutdown()

	var stopDepth atomic.Bool
	var depthViolations atomic.Int64
	var depthWG sync.WaitGroup
	depthWG.Add(1)
	go func() {
		defer depthWG.Done()
		for !stopDepth.Load() {
			if d := s.Stats().QueueDepth; d < 0 {
				depthViolations.Add(1)
			}
		}
	}()

	const rounds = 200
	var ranAfterPreCancel atomic.Int64
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < rounds; round++ {
		func() {
			n := 5 + rng.Intn(20)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			preCanceled := rng.Intn(3) == 0
			if preCanceled {
				cancel()
			}

			tasks := make([]*Task, n)
			for i := range tasks {
				tasks[i] = NewTask(func() {
					if preCanceled {
						ranAfterPreCancel.Add(1)
					}
				}).WithContext(ctx)
			}
			// Random forward-edge dependencies keep the DAG acyclic.
			for i := 1; i < n; i++ {
				for _, j := range rng.Perm(i)[:rng.Intn(i+1)%3] {
					tasks[i].DependsOn(tasks[j])
				}
			}

			if !preCanceled {
				// Concurrent cancel racing the workers.
				go func(d time.Duration) {
					time.Sleep(d)
					cancel()
				}(time.Duration(rng.Intn(200)) * time.Microsecond)
			}

			s.Schedule(tasks...)
			done := make(chan struct{})
			go func() {
				WaitAll(tasks)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d: task DAG deadlocked after cancellation", round)
			}
		}()
	}

	stopDepth.Store(true)
	depthWG.Wait()

	if v := ranAfterPreCancel.Load(); v != 0 {
		t.Errorf("%d task closures ran despite their context being canceled before Schedule", v)
	}
	if v := depthViolations.Load(); v != 0 {
		t.Errorf("QueueDepth went negative %d times", v)
	}
	st := s.Stats()
	if st.TasksSkipped == 0 {
		t.Error("expected some tasks to be skipped under random cancellation")
	}
	if st.TasksRun == 0 {
		t.Error("expected some tasks to run")
	}
	if st.QueueDepth != 0 {
		t.Errorf("QueueDepth = %d after all tasks completed, want 0", st.QueueDepth)
	}
}

// TestRunGroupSkipsRemainingJobs verifies the operators' one-shot group: once
// ctx dies, queued jobs are skipped but Run still returns.
func TestRunGroupSkipsRemainingJobs(t *testing.T) {
	s := New(2)
	defer s.Shutdown()

	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	release := make(chan struct{})
	jobs := make([]func(), 64)
	jobs[0] = func() {
		started.Add(1)
		cancel() // kill the context while later jobs are still queued
		<-release
	}
	for i := 1; i < len(jobs); i++ {
		jobs[i] = func() { started.Add(1) }
	}

	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	if err := Run(ctx, s, nil, jobs...); err != context.Canceled {
		t.Errorf("Run = %v, want context.Canceled", err)
	}

	// Job 0 ran and a few more may have started before the cancel landed,
	// but the bulk of the queue must have been skipped.
	if n := started.Load(); n == 0 || n == int64(len(jobs)) {
		t.Errorf("started = %d jobs, want >0 and <%d (cancellation should skip queued jobs)", n, len(jobs))
	}
}
