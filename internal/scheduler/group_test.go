package scheduler

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunInlineFallback(t *testing.T) {
	var ran atomic.Int64
	jobs := make([]func(), 10)
	for i := range jobs {
		jobs[i] = func() { ran.Add(1) }
	}
	if err := Run(context.Background(), nil, nil, jobs...); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 10 {
		t.Fatalf("ran %d jobs, want 10", ran.Load())
	}
}

func TestRunOnScheduler(t *testing.T) {
	s := New(4)
	defer s.Shutdown()
	var ran atomic.Int64
	if err := Run(context.Background(), s, nil, makeJobs(100, &ran)...); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 100 {
		t.Fatalf("ran %d jobs, want 100", ran.Load())
	}
}

func TestRunNilContext(t *testing.T) {
	var ran atomic.Int64
	var never context.Context // nil: never canceled
	if err := Run(never, nil, nil, func() { ran.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 1 {
		t.Fatal("job did not run")
	}
}

// TestRunCancellationSkipsButCompletes is the no-deadlock contract:
// when the context dies mid-group, remaining tasks are skipped yet Run still
// returns (with the context error), and no closure runs afterwards.
func TestRunCancellationSkipsButCompletes(t *testing.T) {
	s := New(2)
	defer s.Shutdown()

	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var ran atomic.Int64

	jobs := []func(){func() {
		<-release // holds a worker until the context is canceled
	}}
	for i := 0; i < 50; i++ {
		jobs = append(jobs, func() { ran.Add(1) })
	}

	done := make(chan error, 1)
	go func() { done <- Run(ctx, s, nil, jobs...) }()
	cancel()
	close(release)

	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Run() = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}

func TestRunInlineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	jobs := []func(){func() {
		ran.Add(1)
		cancel() // later inline jobs must be skipped
	}}
	for i := 0; i < 5; i++ {
		jobs = append(jobs, func() { ran.Add(1) })
	}
	if err := Run(ctx, nil, nil, jobs...); err != context.Canceled {
		t.Fatalf("Run() = %v, want context.Canceled", err)
	}
	if ran.Load() != 1 {
		t.Fatalf("ran %d jobs after cancel, want 1", ran.Load())
	}
}

func makeJobs(n int, counter *atomic.Int64) []func() {
	jobs := make([]func(), n)
	for i := range jobs {
		jobs[i] = func() { counter.Add(1) }
	}
	return jobs
}

// TestRunInlineYieldsBetweenClosures pins the yield of the inline
// path: on one P, a goroutine that became runnable before Run runs before
// the group's last closure, though no closure blocks. Two yields precede it,
// so the run queue's periodic fairness pick cannot hand the P back to the
// caller both times.
func TestRunInlineYieldsBetweenClosures(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var other atomic.Bool
	var sawOther bool
	jobs := []func(){func() {}, func() {}, func() { sawOther = other.Load() }}
	go other.Store(true)
	if err := Run(context.Background(), nil, nil, jobs...); err != nil {
		t.Fatal(err)
	}
	if !sawOther {
		t.Fatal("a runnable goroutine did not run between the inline closures")
	}
}

// TestRunPoolYieldsBetweenTasks pins the same yield on the worker-pool
// path: on one P, with the workers parked, a goroutine that became runnable
// before Run runs before the group's last task, though no task blocks. The
// caller helps drain the queue (await) and the woken workers pop after it;
// each yields after every task it runs, so the goroutine gets the P before
// three tasks have gone by.
func TestRunPoolYieldsBetweenTasks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := New(2)
	defer s.Shutdown()
	time.Sleep(time.Millisecond) // both workers run once and park
	var other atomic.Bool
	var sawOther atomic.Bool
	jobs := []func(){func() {}, func() {}, func() {}, func() { sawOther.Store(other.Load()) }}
	go other.Store(true)
	if err := Run(context.Background(), s, nil, jobs...); err != nil {
		t.Fatal(err)
	}
	if !sawOther.Load() {
		t.Fatal("a runnable goroutine did not run between the pool's tasks")
	}
}
