package observe

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramQuantileGeometricMidpoint(t *testing.T) {
	// All-equal values with one outlier: the p50 bucket is [512,1024) and
	// its geometric midpoint 724 is within sqrt(2) of the true median 700
	// (the old upper-edge estimate reported 1023).
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(700)
	}
	h.Observe(100000)
	if got := h.Quantile(0.5); got != 724 {
		t.Fatalf("Quantile(0.5) = %d, want 724", got)
	}

	// Without the outlier the midpoint clamps to the observed max: exact.
	var eq Histogram
	for i := 0; i < 100; i++ {
		eq.Observe(300)
	}
	if got := eq.Quantile(0.5); got != 300 {
		t.Fatalf("all-equal Quantile(0.5) = %d, want 300", got)
	}
	if got := eq.Quantile(0.99); got != 300 {
		t.Fatalf("all-equal Quantile(0.99) = %d, want 300", got)
	}

	// Known uniform distribution 1..1024: the p50 rank 512 is the first
	// value of bucket [512,1024); midpoint round(512*sqrt2)=724 is within
	// sqrt(2) of the true median.
	var u Histogram
	for v := int64(1); v <= 1024; v++ {
		u.Observe(v)
	}
	got := u.Quantile(0.5)
	if got != 724 {
		t.Fatalf("uniform Quantile(0.5) = %d, want 724", got)
	}
	if f := float64(got) / 512; f < 1/1.5 || f > 1.5 {
		t.Fatalf("uniform p50 %d off true median 512 by more than 1.5x", got)
	}
}

func TestRegistryGetExpandedHistogramNames(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	h.Observe(100)
	h.Observe(300)

	want := map[string]int64{
		"lat_count": 2,
		"lat_sum":   400,
		"lat_max":   300,
		"lat_p50":   h.Quantile(0.5),
		"lat_p95":   h.Quantile(0.95),
		"lat_p99":   h.Quantile(0.99),
	}
	for name, v := range want {
		got, ok := r.Get(name)
		if !ok || got != v {
			t.Fatalf("Get(%q) = %d, %v; want %d, true", name, got, ok, v)
		}
	}
	// The bare histogram name has no single value and must not resolve.
	if _, ok := r.Get("lat"); ok {
		t.Fatal("bare histogram name should not resolve via Get")
	}
	if _, ok := r.Get("lat_p42"); ok {
		t.Fatal("unknown suffix should not resolve")
	}
	// A counter that happens to end in a histogram suffix wins as itself.
	r.Counter("lat_count2").Inc()
	if v, ok := r.Get("lat_count2"); !ok || v != 1 {
		t.Fatalf("Get(lat_count2) = %d, %v", v, ok)
	}
}

func TestWaitMetrics(t *testing.T) {
	r := NewRegistry()
	m := NewWaitMetrics(r)
	m.Observe(WaitWALSync, 1500)
	m.Observe(WaitWALSync, 500)
	m.Observe(WaitSchedulerQueue, 10)
	if got, _ := r.Get("wait.wal_sync_ns_count"); got != 2 {
		t.Fatalf("wal_sync count = %d, want 2", got)
	}
	if got, _ := r.Get("wait.wal_sync_ns_sum"); got != 2000 {
		t.Fatalf("wal_sync sum = %d, want 2000", got)
	}
	if got, _ := r.Get("wait.scheduler_queue_ns_count"); got != 1 {
		t.Fatalf("scheduler_queue count = %d, want 1", got)
	}
	var nilM *WaitMetrics
	nilM.Observe(WaitAdmission, 1) // nil-safe no-op
}

func TestTraceWaits(t *testing.T) {
	tr := NewTrace("SELECT 1")
	tr.AddWait(WaitSchedulerQueue, 2*time.Microsecond)
	tr.AddWait(WaitSchedulerQueue, 3*time.Microsecond)
	tr.AddWait(WaitWALSync, time.Millisecond)
	tr.AddWait(WaitMVCCConflict, 0) // clamps to 1ns

	ws := tr.Waits()
	if len(ws) != 3 {
		t.Fatalf("Waits() = %+v, want 3 kinds", ws)
	}
	if ws[0].Kind != WaitSchedulerQueue || ws[0].Count != 2 || ws[0].Duration != 5*time.Microsecond {
		t.Fatalf("scheduler_queue span = %+v", ws[0])
	}
	if ws[1].Kind != WaitWALSync || ws[1].Duration != time.Millisecond {
		t.Fatalf("wal_sync span = %+v", ws[1])
	}
	if ws[2].Duration != 1 {
		t.Fatalf("zero wait should clamp to 1ns, got %v", ws[2].Duration)
	}
	if s := tr.String(); !strings.Contains(s, "waits:") || !strings.Contains(s, "wal_sync=1ms(1)") {
		t.Fatalf("String() missing waits line:\n%s", s)
	}
}

func TestActiveRegistry(t *testing.T) {
	r := NewActiveRegistry()
	q1, ctx1 := r.Begin(context.Background(), 7, 42, "SELECT 1", "SELECT ?")
	q2, ctx2 := r.Begin(context.Background(), 8, 43, "SELECT 2", "SELECT ?")
	if r.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", r.Len())
	}
	q1.SetState(StateExecuting)
	q1.AddRows(5)

	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].ID != q1.ID() || snap[1].ID != q2.ID() {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[0].SessionID != 7 || snap[0].BackendPID != 42 || snap[0].State != StateExecuting || snap[0].Rows != 5 {
		t.Fatalf("q1 info = %+v", snap[0])
	}
	if snap[0].Fingerprint != "SELECT ?" {
		t.Fatalf("fingerprint = %q", snap[0].Fingerprint)
	}

	if !r.Cancel(q2.ID()) {
		t.Fatal("Cancel of live query should succeed")
	}
	if ctx2.Err() == nil {
		t.Fatal("canceled query's context should be dead")
	}
	if ctx1.Err() != nil {
		t.Fatal("other query's context must stay alive")
	}
	q1.Finish()
	q2.Finish()
	if r.Len() != 0 {
		t.Fatalf("Len() after Finish = %d, want 0", r.Len())
	}
	if r.Cancel(q1.ID()) {
		t.Fatal("Cancel of finished query should report false")
	}
	q1.Finish() // idempotent
}

// TestActiveRegistryConcurrent races register/deregister/cancel against
// snapshot reads (run under -race in CI).
func TestActiveRegistryConcurrent(t *testing.T) {
	r := NewActiveRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				q, ctx := r.Begin(context.Background(), int64(w), int64(w), "SELECT 1", "SELECT ?")
				q.SetState(StateQueued)
				q.SetState(StateExecuting)
				q.AddRows(1)
				if i%3 == 0 {
					r.Cancel(q.ID())
					if ctx.Err() == nil {
						t.Error("canceled query context alive")
					}
				}
				q.Finish()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, info := range r.Snapshot() {
					_ = info.State.String()
				}
				r.Len()
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				// Cancel ids that may or may not still be live.
				for id := int64(1); id < 32; id++ {
					r.Cancel(id)
				}
			}
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Workers finish first; then stop the readers.
	time.Sleep(10 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent registry test deadlocked")
	}
	if r.Len() != 0 {
		t.Fatalf("registry leaked %d entries", r.Len())
	}
}

func TestStatementStats(t *testing.T) {
	s := NewStatementStats(2)
	s.Record("SELECT a FROM t WHERE a = ?", 10*time.Millisecond, 3, false, false)
	s.Record("SELECT a FROM t WHERE a = ?", 30*time.Millisecond, 5, true, false)
	s.Record("INSERT INTO t VALUES (?)", time.Millisecond, 1, false, true)
	s.Record("SELECT b FROM u", time.Second, 0, false, false) // over cap: dropped
	s.Record("", time.Second, 0, false, false)                // empty fingerprint ignored

	if s.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", s.Len())
	}
	if s.Dropped() != 1 {
		t.Fatalf("Dropped() = %d, want 1", s.Dropped())
	}
	rows := s.Snapshot()
	if len(rows) != 2 || rows[0].Query != "SELECT a FROM t WHERE a = ?" {
		t.Fatalf("snapshot order = %+v", rows)
	}
	sel := rows[0]
	if sel.Calls != 2 || sel.Rows != 8 || sel.CacheHits != 1 || sel.Errors != 0 {
		t.Fatalf("select stats = %+v", sel)
	}
	if sel.TotalNS != (40 * time.Millisecond).Nanoseconds() {
		t.Fatalf("select total = %d", sel.TotalNS)
	}
	if sel.MeanNS != sel.TotalNS/2 {
		t.Fatalf("select mean = %d", sel.MeanNS)
	}
	if sel.P95NS <= 0 || sel.MaxNS != (30*time.Millisecond).Nanoseconds() {
		t.Fatalf("select p95/max = %d/%d", sel.P95NS, sel.MaxNS)
	}
	ins := rows[1]
	if ins.Calls != 1 || ins.Errors != 1 {
		t.Fatalf("insert stats = %+v", ins)
	}
}

func TestStatementStatsConcurrent(t *testing.T) {
	s := NewStatementStats(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Record("q", time.Microsecond, 1, i%2 == 0, false)
				if i%100 == 0 {
					s.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	rows := s.Snapshot()
	if len(rows) != 1 || rows[0].Calls != 8000 || rows[0].Rows != 8000 || rows[0].CacheHits != 4000 {
		t.Fatalf("concurrent stats = %+v", rows)
	}
}
