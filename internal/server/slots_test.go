package server

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestSlotsEndEveryWait fills a one-slot set and ends a waiter each way a
// wait can end — a release hands it the slot; its context's cancel, its
// deadline and the server's stop turn it away — and checks every outcome is
// counted.
func TestSlotsEndEveryWait(t *testing.T) {
	stop := make(chan struct{})
	s := newSlots(1, stop)
	if wait, err := s.acquire(context.Background()); wait != 0 || err != nil {
		t.Fatalf("acquire of a free slot = %v, %v; want 0, nil", wait, err)
	}
	got := make(chan error, 1)
	waiter := func(ctx context.Context) {
		go func() { _, err := s.acquire(ctx); got <- err }()
		for deadline := time.Now().Add(10 * time.Second); s.waiting.Load() != 1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the acquirer never waited")
			}
		}
	}

	waiter(context.Background())
	s.release()
	if err := <-got; err != nil {
		t.Fatalf("a release did not hand the waiter the slot: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	waiter(ctx)
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled wait = %v, want context.Canceled", err)
	}

	const budget = 20 * time.Millisecond
	ctx, cancel = context.WithTimeout(context.Background(), budget)
	defer cancel()
	if wait, err := s.acquire(ctx); !errors.Is(err, context.DeadlineExceeded) || wait < budget/2 {
		t.Fatalf("wait past the deadline = %v, %v; want about %v, context.DeadlineExceeded", wait, err, budget)
	}

	waiter(context.Background())
	close(stop)
	if err := <-got; !errors.Is(err, errStopped) {
		t.Fatalf("wait over a stop = %v, want errStopped", err)
	}
	s.release()

	if sub, ex, rej, w := s.submitted.Load(), s.executed.Load(), s.rejected.Load(), s.waiting.Load(); sub != 5 || ex != 2 || rej != 3 || w != 0 {
		t.Errorf("submitted, executed, rejected, waiting = %d, %d, %d, %d; want 5, 2, 3, 0", sub, ex, rej, w)
	}
	if ns := s.waitNS.Load(); ns < (budget / 2).Nanoseconds() {
		t.Errorf("wait_ns = %d, want the deadline's wait counted", ns)
	}
	if len(s.held) != 0 {
		t.Errorf("%d slots still held", len(s.held))
	}
}
