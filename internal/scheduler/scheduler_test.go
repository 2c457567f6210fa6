package scheduler

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

func schedulers() map[string]func() *Scheduler {
	return map[string]func() *Scheduler{
		"queue": func() *Scheduler { return New(4) },
	}
}

func TestSchedulerRunsTasks(t *testing.T) {
	for name, mk := range schedulers() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Shutdown()
			var count atomic.Int32
			tasks := make([]*Task, 20)
			for i := range tasks {
				tasks[i] = NewTask(func() { count.Add(1) })
			}
			s.Schedule(tasks...)
			WaitAll(tasks)
			if count.Load() != 20 {
				t.Errorf("ran %d tasks, want 20", count.Load())
			}
			for _, task := range tasks {
				if !task.IsDone() {
					t.Error("task not done after WaitAll")
				}
			}
		})
	}
}

func TestDependenciesOrder(t *testing.T) {
	for name, mk := range schedulers() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Shutdown()
			// The chain dependency guarantees the appends never race.
			var order []int
			record := func(id int) func() {
				return func() { order = append(order, id) }
			}
			a := NewTask(record(1))
			b := NewTask(record(2))
			c := NewTask(record(3))
			b.DependsOn(a)
			c.DependsOn(b)
			// Schedule in reverse to prove ordering comes from dependencies.
			s.Schedule(c, b, a)
			c.Wait()
			if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
				t.Errorf("order = %v", order)
			}
		})
	}
}

func TestDiamondDependency(t *testing.T) {
	for name, mk := range schedulers() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Shutdown()
			var sum atomic.Int64
			src := NewTask(func() { sum.Add(1) })
			l := NewTask(func() { sum.Add(10) })
			r := NewTask(func() { sum.Add(100) })
			sink := NewTask(func() {
				if sum.Load() != 111 {
					t.Errorf("sink ran before inputs: %d", sum.Load())
				}
			})
			l.DependsOn(src)
			r.DependsOn(src)
			sink.DependsOn(l)
			sink.DependsOn(r)
			s.Schedule(src, l, r, sink)
			sink.Wait()
		})
	}
}

// TestRunGroup runs one-shot groups (Run) with immediate execution (no
// scheduler) and on every scheduler.
func TestRunGroup(t *testing.T) {
	mks := schedulers()
	mks["immediate"] = func() *Scheduler { return nil }
	for name, mk := range mks {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Shutdown()
			run := func(jobs ...func()) error {
				return Run(context.Background(), s, nil, jobs...)
			}
			var sum atomic.Int64
			jobs := make([]func(), 10)
			for i := range jobs {
				v := int64(i)
				jobs[i] = func() { sum.Add(v) }
			}
			if err := run(jobs...); err != nil {
				t.Fatal(err)
			}
			if sum.Load() != 45 {
				t.Errorf("sum = %d", sum.Load())
			}
			// Degenerate cases.
			if err := run(); err != nil {
				t.Fatal(err)
			}
			// A single job runs on the caller: Stats sees no task.
			before := s.Stats().TasksRun
			ran := false
			if err := run(func() { ran = true }); err != nil {
				t.Fatal(err)
			}
			if !ran || s.Stats().TasksRun != before {
				t.Errorf("single job: ran=%v, tasks run %d -> %d, want inline", ran, before, s.Stats().TasksRun)
			}
		})
	}
}

func TestWorkerCounts(t *testing.T) {
	s := New(6)
	defer s.Shutdown()
	if s.WorkerCount() != 6 {
		t.Errorf("workers=%d", s.WorkerCount())
	}
	d := New(0)
	defer d.Shutdown()
	if d.WorkerCount() != runtime.NumCPU() {
		t.Errorf("default workers=%d, want one per CPU (%d)", d.WorkerCount(), runtime.NumCPU())
	}
	// One worker is no scheduler, and no scheduler counts as one worker.
	var none *Scheduler
	if New(1) != none || none.WorkerCount() != 1 || none.Stats() != (Stats{}) {
		t.Errorf("New(1) = %v with %d worker(s) and stats %+v, want nil, 1 and zero", New(1), none.WorkerCount(), none.Stats())
	}
	none.Shutdown()
}

func TestManyTasksStress(t *testing.T) {
	s := New(8)
	defer s.Shutdown()
	var count atomic.Int32
	const n = 5000
	tasks := make([]*Task, n)
	for i := range tasks {
		tasks[i] = NewTask(func() { count.Add(1) })
		if i > 0 && i%7 == 0 {
			tasks[i].DependsOn(tasks[i-1])
		}
	}
	s.Schedule(tasks...)
	WaitAll(tasks)
	if count.Load() != n {
		t.Errorf("count = %d, want %d", count.Load(), n)
	}
}

func TestStatsCountTasks(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    *Scheduler
	}{
		{"queue", New(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer tc.s.Shutdown()
			if got := tc.s.Stats(); got.TasksRun != 0 || got.QueueDepth != 0 {
				t.Fatalf("fresh scheduler stats = %+v", got)
			}
			tasks := make([]*Task, 10)
			for i := range tasks {
				tasks[i] = NewTask(func() {})
			}
			tc.s.Schedule(tasks...)
			WaitAll(tasks)
			if got := tc.s.Stats().TasksRun; got != 10 {
				t.Fatalf("TasksRun = %d, want 10", got)
			}
			if got := tc.s.Stats().QueueDepth; got != 0 {
				t.Fatalf("QueueDepth after drain = %d, want 0", got)
			}
		})
	}
}

func TestQueueWaitObserver(t *testing.T) {
	s := New(2)
	defer s.Shutdown()

	var waits atomic.Int64
	var fired atomic.Int64
	tasks := make([]*Task, 32)
	for i := range tasks {
		tasks[i] = NewTask(func() {}).ObserveQueueWait(func(ns int64) {
			if ns < 1 {
				t.Errorf("queue wait %d < 1ns", ns)
			}
			waits.Add(ns)
			fired.Add(1)
		})
	}
	s.Schedule(tasks...)
	WaitAll(tasks)
	if fired.Load() != 32 {
		t.Fatalf("observer fired %d times, want 32", fired.Load())
	}
	if waits.Load() < 32 {
		t.Fatalf("total queue wait %dns, want >= 32", waits.Load())
	}

	// Skipped tasks never report a wait: their closures don't run.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	skipped := NewTask(func() {}).WithContext(ctx).ObserveQueueWait(func(ns int64) {
		t.Error("skipped task reported a queue wait")
	})
	s.Schedule(skipped)
	skipped.Wait()
}

func TestRunQueueWaitObserver(t *testing.T) {
	s := New(4)
	defer s.Shutdown()

	var fired atomic.Int64
	observe := func(ns int64) { fired.Add(1) }
	jobs := make([]func(), 8)
	for i := range jobs {
		jobs[i] = func() {}
	}
	if err := Run(context.Background(), s, observe, jobs...); err != nil {
		t.Fatal(err)
	}
	if fired.Load() != 8 {
		t.Fatalf("observer fired %d times, want 8", fired.Load())
	}

	// The inline fallback (nil scheduler) bypasses the queues entirely.
	fired.Store(0)
	if err := Run(context.Background(), nil, observe, func() {}); err != nil {
		t.Fatal(err)
	}
	if fired.Load() != 0 {
		t.Fatalf("inline group fired observer %d times, want 0", fired.Load())
	}
}

// TestReadyTaskEnqueuedOnce: a dependent task can become ready twice over —
// Schedule finds its predecessor count at zero while the predecessor's
// worker, finishing at that moment, finds it scheduled. Both used to push it
// and stamp its enqueue time (a data race, and a phantom entry in
// scheduler.queue_depth until popped). Meaningful under -race.
func TestReadyTaskEnqueuedOnce(t *testing.T) {
	s := New(4)
	defer s.Shutdown()
	for i := 0; i < 2000; i++ {
		pred := NewTask(func() {})
		succ := NewTask(func() {}).ObserveQueueWait(func(int64) {})
		succ.DependsOn(pred)
		s.Schedule(pred, succ)
		succ.Wait()
	}
	if st := s.Stats(); st.TasksRun != 4000 {
		t.Errorf("tasks run = %d, want 4000", st.TasksRun)
	}
}
