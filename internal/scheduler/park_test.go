package scheduler

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// The tests in this file hang (and fail on their deadline) when a push does
// not wake a parked goroutine. Where a lost wake-up must not be papered over
// by the waiter running the task itself, they block on the task's done
// channel instead of calling Wait.

func awaitDone(t *testing.T, what string, tasks ...*Task) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for _, task := range tasks {
		select {
		case <-task.done:
		case <-deadline:
			t.Fatalf("%s: task never ran — lost wake-up", what)
		}
	}
}

// TestParkedWorkersWake: workers park (or are about to) after every round;
// only they can run the next round's tasks.
func TestParkedWorkersWake(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprint(workers), func(t *testing.T) {
			s := start(workers)
			defer s.Shutdown()
			for round := 0; round < 10000; round++ {
				if round%500 == 0 {
					time.Sleep(200 * time.Microsecond) // every worker is parked for certain
				}
				a, b := NewTask(func() {}), NewTask(func() {})
				s.Schedule(a, b)
				awaitDone(t, fmt.Sprintf("round %d", round), a, b)
			}
			if got := s.Stats(); got.TasksRun != 20000 || got.QueueDepth != 0 {
				t.Errorf("stats = %+v, want 20000 run, depth 0", got)
			}
		})
	}
}

// TestHelperLeavesQueueToWorkers: a parked Wait that is handed a push's
// token and then finds its own task done returns without popping; the pushed
// task must still reach the worker, which is parked and got no token. The
// waiter parks before the worker so that it is first in line for the token,
// and the awaited task is hand-made so that it completes without a push.
func TestHelperLeavesQueueToWorkers(t *testing.T) {
	s := start(1)
	defer s.Shutdown()
	for round := 0; round < 100; round++ {
		started, gate := make(chan struct{}), make(chan struct{})
		busy := NewTask(func() {
			close(started)
			<-gate
		})
		s.Schedule(busy)
		<-started

		awaited := &Task{done: make(chan struct{}), sched: s}
		returned := make(chan struct{})
		go func() {
			awaited.Wait()
			close(returned)
		}()
		time.Sleep(100 * time.Microsecond) // waiter parked
		close(gate)
		<-busy.done
		time.Sleep(100 * time.Microsecond) // worker parked behind it

		pushed := NewTask(func() {})
		s.Schedule(pushed)
		close(awaited.done) // before the woken waiter gets to look
		<-returned
		awaitDone(t, fmt.Sprintf("round %d", round), pushed)
	}
}

// TestNestedFanOutBusyWorkers is the nested-Wait deadlock case: more
// operator tasks than workers, each fanning out into tasks that fan out
// again, every level waiting for its children from inside a task.
func TestNestedFanOutBusyWorkers(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprint(workers), func(t *testing.T) {
			s := start(workers)
			defer s.Shutdown()
			var leaves atomic.Int32
			var fanOut func(depth int) func()
			fanOut = func(depth int) func() {
				if depth == 0 {
					return func() { leaves.Add(1) }
				}
				return func() {
					children := make([]*Task, 4)
					for i := range children {
						children[i] = NewTask(fanOut(depth - 1))
					}
					s.Schedule(children...)
					WaitAll(children)
				}
			}
			operators := make([]*Task, 4)
			for i := range operators {
				operators[i] = NewTask(fanOut(2))
			}
			s.Schedule(operators...)
			awaitDone(t, "nested fan-out", operators...)
			if leaves.Load() != 64 {
				t.Errorf("leaves = %d, want 64", leaves.Load())
			}
		})
	}
}

// TestCancelWhileParked: tasks scheduled on parked workers under a context
// that is already dead are all completed (skipped), dependents included, and
// Shutdown drains them and returns without anybody waiting on them.
func TestCancelWhileParked(t *testing.T) {
	s := New(2)
	time.Sleep(time.Millisecond) // both workers parked
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tasks := make([]*Task, 100)
	for i := range tasks {
		tasks[i] = NewTask(func() { t.Error("closure ran under a dead context") }).WithContext(ctx)
		if i%3 != 0 {
			tasks[i].DependsOn(tasks[i-1])
		}
	}
	s.Schedule(tasks...)
	stopped := make(chan struct{})
	go func() {
		s.Shutdown()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(20 * time.Second):
		t.Fatal("Shutdown did not return")
	}
	for i, task := range tasks {
		if !task.IsDone() {
			t.Fatalf("task %d not completed by Shutdown", i)
		}
	}
	if got := s.Stats(); got.TasksSkipped != 100 || got.TasksRun != 0 || got.QueueDepth != 0 {
		t.Errorf("stats = %+v, want 100 skipped, 0 run, depth 0", got)
	}
}
