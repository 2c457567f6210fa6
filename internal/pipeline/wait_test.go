package pipeline

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyrise/internal/observe"
	"hyrise/internal/operators"
)

// traceWait extracts one wait span by kind from a trace, failing when absent.
func traceWait(t *testing.T, tr *observe.Trace, kind observe.WaitKind) observe.WaitSpan {
	t.Helper()
	for _, ws := range tr.Waits() {
		if ws.Kind == kind {
			return ws
		}
	}
	t.Fatalf("trace has no %s wait span: %+v", kind, tr.Waits())
	return observe.WaitSpan{}
}

// TestWaitSpansSchedulerQueue runs a query on the queue scheduler and
// checks that time spent in task queues shows up both on the statement's
// trace and — with at least the same nanoseconds — in the global
// wait.scheduler_queue_ns histogram.
func TestWaitSpansSchedulerQueue(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseScheduler = true
	cfg.SchedulerWorkers = 4
	e, s := newObserveEngine(t, cfg, 200)

	ex, err := s.Explain("SELECT grp, COUNT(*) FROM obs GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	ws := traceWait(t, ex.Trace, observe.WaitSchedulerQueue)
	if ws.Count < 1 || ws.Duration <= 0 {
		t.Fatalf("scheduler queue wait span = %+v, want count >= 1 and positive duration", ws)
	}
	if cnt := metric(t, e, "wait.scheduler_queue_ns_count"); cnt < ws.Count {
		t.Errorf("global histogram count %d < trace count %d", cnt, ws.Count)
	}
	if sum := metric(t, e, "wait.scheduler_queue_ns_sum"); sum < ws.Duration.Nanoseconds() {
		t.Errorf("global histogram sum %dns < trace duration %v — trace and histogram disagree", sum, ws.Duration)
	}
	if !strings.Contains(ex.Text, "scheduler_queue") {
		t.Errorf("EXPLAIN ANALYZE text does not show the wait breakdown:\n%s", ex.Text)
	}
}

// TestWaitSpansParallelJoinConcurrent accumulates queue-wait spans from the
// hash join's range tasks, with several sessions tracing concurrently — the
// race check for scheduler workers recording onto traces while session
// goroutines read them.
func TestWaitSpansParallelJoinConcurrent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseScheduler = true
	cfg.SchedulerWorkers = 4
	cfg.parallel = operators.ParallelForce
	e, _ := newObserveEngine(t, cfg, 300)

	const sessions = 4
	var wg sync.WaitGroup
	waits := make([]observe.WaitSpan, sessions)
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := e.NewSession()
			ex, err := s.Explain("SELECT COUNT(*) FROM obs a JOIN obs b ON a.id = b.id")
			if err != nil {
				errs[i] = err
				return
			}
			for _, ws := range ex.Trace.Waits() {
				if ws.Kind == observe.WaitSchedulerQueue {
					waits[i] = ws
				}
			}
		}(i)
	}
	wg.Wait()

	var total time.Duration
	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if waits[i].Count < 1 {
			t.Errorf("session %d recorded no scheduler queue waits", i)
		}
		total += waits[i].Duration
	}
	if sum := metric(t, e, "wait.scheduler_queue_ns_sum"); sum < total.Nanoseconds() {
		t.Errorf("global histogram sum %dns < summed trace durations %v", sum, total)
	}
}

// TestWaitSpansWALSync checks that group-commit fsync waits are attributed to
// the committing statement: the autocommit INSERT's trace carries a wal_sync
// span, and an explicit COMMIT advances the global histogram.
func TestWaitSpansWALSync(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataDir = t.TempDir()
	cfg.SyncMode = "commit"
	e, s := newObserveEngine(t, cfg, 10)

	ex, err := s.Explain("INSERT INTO obs VALUES (1000, 0, 'durable')")
	if err != nil {
		t.Fatal(err)
	}
	ws := traceWait(t, ex.Trace, observe.WaitWALSync)
	if ws.Count < 1 || ws.Duration <= 0 {
		t.Fatalf("wal sync wait span = %+v, want count >= 1 and positive duration", ws)
	}
	if sum := metric(t, e, "wait.wal_sync_ns_sum"); sum < ws.Duration.Nanoseconds() {
		t.Errorf("global histogram sum %dns < trace duration %v", sum, ws.Duration)
	}

	// The explicit-COMMIT path reinstalls the observer on the session
	// transaction, so the sync wait is charged to the COMMIT statement.
	base := metric(t, e, "wait.wal_sync_ns_count")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO obs VALUES (1001, 0, 'tx')")
	mustExec(t, s, "COMMIT")
	if got := metric(t, e, "wait.wal_sync_ns_count"); got <= base {
		t.Errorf("explicit COMMIT did not record a wal sync wait (%d -> %d)", base, got)
	}
}

// TestWaitSpansMVCCConflict blocks an UPDATE on a row claim held by another
// transaction; once the holder rolls back, the waiter succeeds and its trace
// carries the conflict wait.
func TestWaitSpansMVCCConflict(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LockWaitTimeout = 2 * time.Second
	e, s := newObserveEngine(t, cfg, 20)

	holder := e.NewSession()
	mustExec(t, holder, "BEGIN")
	mustExec(t, holder, "UPDATE obs SET label = 'held' WHERE id = 3")
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(20 * time.Millisecond)
		if _, err := holder.ExecuteOne("ROLLBACK"); err != nil {
			t.Error("rollback:", err)
		}
	}()

	ex, err := s.Explain("UPDATE obs SET label = 'waited' WHERE id = 3")
	<-done
	if err != nil {
		t.Fatalf("waiter should succeed once the holder rolls back: %v", err)
	}
	ws := traceWait(t, ex.Trace, observe.WaitMVCCConflict)
	if ws.Duration < 5*time.Millisecond {
		t.Errorf("conflict wait %v is implausibly short for a 20ms holder", ws.Duration)
	}
	if cnt := metric(t, e, "wait.mvcc_conflict_ns_count"); cnt < 1 {
		t.Errorf("global conflict histogram count = %d, want >= 1", cnt)
	}
	if sum := metric(t, e, "wait.mvcc_conflict_ns_sum"); sum < ws.Duration.Nanoseconds() {
		t.Errorf("global histogram sum %dns < trace duration %v", sum, ws.Duration)
	}
	if got := rows(t, s, "SELECT label FROM obs WHERE id = 3"); len(got) != 1 || got[0][0] != "waited" {
		t.Errorf("waiter's update not applied: %v", got)
	}
}

// TestLockWaitTimeoutStillConflicts keeps the holder alive past the lock-wait
// budget: the waiter must give up with a conflict instead of blocking
// forever.
func TestLockWaitTimeoutStillConflicts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LockWaitTimeout = 30 * time.Millisecond
	e, s := newObserveEngine(t, cfg, 10)

	holder := e.NewSession()
	mustExec(t, holder, "BEGIN")
	mustExec(t, holder, "UPDATE obs SET label = 'held' WHERE id = 2")

	start := time.Now()
	if _, err := s.ExecuteOne("UPDATE obs SET label = 'late' WHERE id = 2"); err == nil {
		t.Fatal("expected a conflict after the lock-wait budget expired")
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("waiter gave up after %v, want it to spend the ~30ms budget first", elapsed)
	}
	mustExec(t, holder, "ROLLBACK")
	if cnt := metric(t, e, "wait.mvcc_conflict_ns_count"); cnt < 1 {
		t.Errorf("timed-out lock wait not recorded: count = %d", cnt)
	}
}

// TestLostUpdateRetriesConflicts: sessions increment one counter row in
// explicit transactions and retry those that conflict. The counter ends at
// the number of commits, whether a conflict aborts at once or waits for the
// holder first, and a conflict's message says "conflict" (what TPC-C's
// terminals retry on) and names the transaction holding the row. The
// table's one block freezes its end array and thaws it again meanwhile.
func TestLostUpdateRetriesConflicts(t *testing.T) {
	const sessions, txns = 4, 250
	const update = "UPDATE ctr SET n = n + 1 WHERE id = 1"
	heldBy := regexp.MustCompile(`conflict: row held by transaction (\d+)`)
	for _, wait := range []time.Duration{0, 20 * time.Millisecond} {
		t.Run("lock_wait="+wait.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.LockWaitTimeout = wait
			e := NewEngine(cfg, nil)
			t.Cleanup(e.Close)
			first, second := e.NewSession(), e.NewSession()
			mustExec(t, first, "CREATE TABLE ctr (id INT NOT NULL, n INT NOT NULL)")
			mustExec(t, first, "INSERT INTO ctr VALUES (1, 0), (2, 0)")

			// One conflict for certain: the loser's message names the holder.
			mustExec(t, first, "BEGIN")
			mustExec(t, first, update)
			_, err := second.ExecuteOne(update)
			if want := fmt.Sprintf("conflict: row held by transaction %d", first.tx.TID()); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("a second writer of a held row got %v, want %q", err, want)
			}
			mustExec(t, first, "COMMIT")

			var conflicts atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < sessions; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					s := e.NewSession()
					for done := 0; done < txns; {
						if _, err := s.ExecuteOne("BEGIN"); err != nil {
							t.Error(err)
							return
						}
						own := s.tx.TID()
						if _, err := s.ExecuteOne(update); err != nil {
							// A conflict rolls the transaction back: retry it.
							if !strings.Contains(err.Error(), "conflict") {
								t.Errorf("update: %v", err)
								return
							}
							if m := heldBy.FindStringSubmatch(err.Error()); m != nil {
								if holder, _ := strconv.ParseUint(m[1], 10, 64); holder == 0 || holder == uint64(own) {
									t.Errorf("transaction %d: conflict %q names no other holder", own, err)
								}
							}
							conflicts.Add(1)
							continue
						}
						if _, err := s.ExecuteOne("COMMIT"); err != nil {
							t.Error(err)
							return
						}
						done++
					}
				}()
			}
			wg.Wait()
			if got, want := rows(t, first, "SELECT id, n FROM ctr ORDER BY id"), [][]string{{"1", fmt.Sprint(1 + sessions*txns)}, {"2", "0"}}; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("after %d commits: %v, want %v", 1+sessions*txns, got, want)
			}
			if frozen, thawed := metric(t, e, "mvcc_frozen_blocks"), metric(t, e, "mvcc_thawed_blocks"); frozen == 0 || thawed == 0 {
				t.Errorf("mvcc_frozen_blocks %d, mvcc_thawed_blocks %d: no freeze raced the claims", frozen, thawed)
			}
			t.Logf("%d conflicts retried", conflicts.Load())
		})
	}
}
