package scheduler

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestTaskGroupInlineFallback(t *testing.T) {
	var ran atomic.Int64
	g := NewTaskGroup(context.Background(), nil)
	for i := 0; i < 10; i++ {
		g.Go(func() { ran.Add(1) })
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 10 {
		t.Fatalf("ran %d jobs, want 10", ran.Load())
	}
}

func TestTaskGroupOnScheduler(t *testing.T) {
	s := New(4)
	defer s.Shutdown()
	var ran atomic.Int64
	g := NewTaskGroup(context.Background(), s)
	g.Go(makeJobs(100, &ran)...)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 100 {
		t.Fatalf("ran %d jobs, want 100", ran.Load())
	}
}

func TestTaskGroupNilContext(t *testing.T) {
	var ran atomic.Int64
	g := NewTaskGroup(nil, nil)
	g.Go(func() { ran.Add(1) })
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 1 {
		t.Fatal("job did not run")
	}
}

// TestTaskGroupCancellationSkipsButCompletes is the no-deadlock contract:
// when the context dies mid-group, remaining tasks are skipped yet Wait
// still returns (with the context error), and no closure runs afterwards.
func TestTaskGroupCancellationSkipsButCompletes(t *testing.T) {
	s := New(2)
	defer s.Shutdown()

	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var ran atomic.Int64

	g := NewTaskGroup(ctx, s)
	g.Go(func() {
		<-release // holds a worker until the context is canceled
	})
	for i := 0; i < 50; i++ {
		g.Go(func() { ran.Add(1) })
	}

	done := make(chan error, 1)
	go func() { done <- g.Wait() }()
	cancel()
	close(release)

	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Wait() = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Wait did not return after cancellation")
	}
}

func TestTaskGroupInlineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	g := NewTaskGroup(ctx, nil)
	g.Go(func() {
		ran.Add(1)
		cancel() // later inline jobs must be skipped
	})
	for i := 0; i < 5; i++ {
		g.Go(func() { ran.Add(1) })
	}
	if err := g.Wait(); err != context.Canceled {
		t.Fatalf("Wait() = %v, want context.Canceled", err)
	}
	if ran.Load() != 1 {
		t.Fatalf("ran %d jobs after cancel, want 1", ran.Load())
	}
}

func TestTaskGroupReusableAfterWait(t *testing.T) {
	var ran atomic.Int64
	g := NewTaskGroup(context.Background(), nil)
	g.Go(func() { ran.Add(1) })
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	g.Go(func() { ran.Add(1) })
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 2 {
		t.Fatalf("ran %d jobs across two waits, want 2", ran.Load())
	}
}

func makeJobs(n int, counter *atomic.Int64) []func() {
	jobs := make([]func(), n)
	for i := range jobs {
		jobs[i] = func() { counter.Add(1) }
	}
	return jobs
}

// TestTaskGroupInlineYieldsBetweenClosures pins the yield of the inline
// path: on one P, a goroutine that became runnable before Wait runs before
// the group's last closure, though no closure blocks. Two yields precede it,
// so the run queue's periodic fairness pick cannot hand the P back to the
// caller both times.
func TestTaskGroupInlineYieldsBetweenClosures(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var other atomic.Bool
	var sawOther bool
	g := NewTaskGroup(context.Background(), nil)
	g.Go(func() {}, func() {}, func() { sawOther = other.Load() })
	go other.Store(true)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if !sawOther {
		t.Fatal("a runnable goroutine did not run between the inline closures")
	}
}
