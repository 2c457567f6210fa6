package scheduler

import (
	"runtime"
	"syscall"
	"testing"
	"time"
)

func processCPU(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Skipf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestIdleSchedulerBurnsNoCPU: parked workers and a blocked Wait cost
// nothing. A worker that polls on a 200 µs sleep, or a Wait that re-arms a
// 50 µs timer, shows here as 14–36 ms of process CPU.
func TestIdleSchedulerBurnsNoCPU(t *testing.T) {
	s := New(2)
	defer s.Shutdown()
	runtime.GC() // leave no background sweep in the measured window
	sleeper := NewTask(func() { time.Sleep(300 * time.Millisecond) })
	before := processCPU(t)
	s.Schedule(sleeper)
	waited := make(chan struct{})
	go func() {
		sleeper.Wait()
		close(waited)
	}()
	<-waited
	used := processCPU(t) - before
	t.Logf("process CPU while idle for 300ms: %v", used)
	if used > 5*time.Millisecond {
		t.Errorf("idle scheduler used %v of CPU in 300ms, want < 5ms", used)
	}
}
