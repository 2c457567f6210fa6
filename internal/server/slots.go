package server

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// errStopped reports a wait for a slot that the server's stop ended.
var errStopped = errors.New("server is shutting down")

// slots is the server's one bound on concurrency: a counting set of slots,
// acquired before the work and released after it. Session admission holds
// one per admitted connection; the executor pool holds one per running
// statement of a class. An acquirer that finds the set full waits on its own
// goroutine until a slot frees, its context ends (a deadline is the
// context's) or the server stops.
type slots struct {
	held chan struct{}   // one token per held slot; its capacity is the bound
	stop <-chan struct{} // closed when the server stops; nil never is

	waiting   atomic.Int64 // acquirers blocked now
	submitted atomic.Int64 // acquire calls
	executed  atomic.Int64 // releases: the work that held a slot finished
	rejected  atomic.Int64 // waits that ended without a slot
	waitNS    atomic.Int64 // nanoseconds spent waiting, rejected waits too
}

func newSlots(n int, stop <-chan struct{}) *slots {
	return &slots{held: make(chan struct{}, n), stop: stop}
}

// acquire takes a slot, waiting while the set is full. It returns the time
// it waited — 0 when a slot was free — and, when the wait ended without a
// slot, the context's error or errStopped.
func (s *slots) acquire(ctx context.Context) (time.Duration, error) {
	s.submitted.Add(1)
	select {
	case s.held <- struct{}{}:
		return 0, nil
	default:
	}
	s.waiting.Add(1)
	start := time.Now()
	var err error
	select {
	case s.held <- struct{}{}:
	case <-ctx.Done():
		err = ctx.Err()
	case <-s.stop:
		err = errStopped
	}
	wait := time.Since(start)
	s.waiting.Add(-1)
	s.waitNS.Add(wait.Nanoseconds())
	if err != nil {
		s.rejected.Add(1)
	}
	return wait, err
}

// release frees a slot that acquire took.
func (s *slots) release() {
	<-s.held
	s.executed.Add(1)
}
