package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hyrise/internal/concurrency"
	"hyrise/internal/observe"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// addBigTable registers a wide stored table with many small chunks, so the
// chunk-granular cancellation checks get plenty of opportunities to fire.
func addBigTable(t *testing.T, e *Engine, name string, rows, chunkSize int) {
	t.Helper()
	tbl := storage.NewTable(name, []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64},
		{Name: "s", Type: types.TypeString},
	}, chunkSize, e.Config().UseMvcc)
	for i := 0; i < rows; i++ {
		if _, err := tbl.AppendRow([]types.Value{
			types.Int(int64(i)),
			types.Str(fmt.Sprintf("payload-%d-abcdefghijklmnopqrstuvwxyz", i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	concurrency.MarkTableLoaded(tbl)
	if err := e.StorageManager().AddTable(tbl); err != nil {
		t.Fatal(err)
	}
}

// slowQuery is a deliberately expensive statement over the big table: the
// self-join forces full key materialization on both sides and the leading-%
// LIKEs disqualify every specialized scan path, so execution is far slower
// than the cancellation delays the tests use.
const slowQuery = `SELECT count(*) FROM big a JOIN big b ON a.id = b.id
	WHERE a.s LIKE '%payload%' AND b.s LIKE '%abcdefghijklmnopqrstuvwxyz%'`

func TestCancelMidFlightScan(t *testing.T) {
	for _, useScheduler := range []bool{false, true} {
		name := "immediate"
		if useScheduler {
			name = "queue"
		}
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.UseScheduler = useScheduler
			e := NewEngine(cfg, nil)
			t.Cleanup(e.Close)
			addBigTable(t, e, "big", 120_000, 1_000)
			s := e.NewSession()

			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(2 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err := s.ExecuteContext(ctx, slowQuery)
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// Bounded-time guarantee: the statement must stop at the next
			// chunk boundary, not run the multi-hundred-millisecond join to
			// completion. 5s is a generous ceiling for loaded CI machines.
			if elapsed > 5*time.Second {
				t.Fatalf("canceled statement took %v to return", elapsed)
			}
			if v, _ := e.Metrics().Get("engine.statements.canceled"); v < 1 {
				t.Errorf("engine.statements.canceled = %d, want >= 1", v)
			}

			// The session survives and answers the next query.
			res, err := s.ExecuteOne("SELECT count(*) FROM big WHERE id < 10")
			if err != nil {
				t.Fatalf("query after cancel: %v", err)
			}
			if got := RowStrings(res.Table); len(got) != 1 || got[0][0] != "10" {
				t.Errorf("rows after cancel = %v", got)
			}
		})
	}
}

func TestCancelBeforeExecutionReturnsImmediately(t *testing.T) {
	e := NewEngine(DefaultConfig(), nil)
	t.Cleanup(e.Close)
	addBigTable(t, e, "big", 1_000, 100)
	s := e.NewSession()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.ExecuteContext(ctx, "SELECT count(*) FROM big")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestStatementTimeout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StatementTimeout = 2 * time.Millisecond
	e := NewEngine(cfg, nil)
	t.Cleanup(e.Close)
	addBigTable(t, e, "big", 120_000, 1_000)
	s := e.NewSession()

	_, err := s.ExecuteOne(slowQuery)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if v, _ := e.Metrics().Get("engine.statements.timed_out"); v < 1 {
		t.Errorf("engine.statements.timed_out = %d, want >= 1", v)
	}

	// A statement well inside its budget still completes: the deadline is in
	// seconds here, so a loaded box cannot trip it and only a timeout that
	// fires regardless of the deadline fails this half.
	cfg.StatementTimeout = 30 * time.Second
	roomy := NewEngine(cfg, e.StorageManager())
	t.Cleanup(roomy.Close)
	if _, err := roomy.NewSession().ExecuteOne("SELECT count(*) FROM big WHERE id = 1"); err != nil {
		t.Fatalf("fast query under timeout: %v", err)
	}
}

func TestCancelDMLRollsBackCleanly(t *testing.T) {
	e := NewEngine(DefaultConfig(), nil)
	t.Cleanup(e.Close)
	addBigTable(t, e, "big", 60_000, 500)
	s := e.NewSession()

	mustExec(t, s, "BEGIN")
	tx := s.tx
	if tx == nil {
		t.Fatal("no transaction open after BEGIN")
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	_, err := s.ExecuteContext(ctx, "UPDATE big SET s = 'TORN' WHERE id >= 0")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// The owning transaction rolled back (a commit now names its phase) and
	// the session let go of it.
	if err := tx.Commit(); err == nil || !strings.Contains(err.Error(), concurrency.RolledBack.String()) {
		t.Errorf("Commit after the canceled statement = %v, want a rolled-back transaction", err)
	}
	if s.tx != nil {
		t.Error("session still holds the aborted transaction")
	}

	// No committed partial DML: the half-applied update is invisible and
	// every original row is still there.
	res := mustExec(t, s, "SELECT count(*) FROM big WHERE s = 'TORN'")
	if got := RowStrings(res.Table); got[0][0] != "0" {
		t.Errorf("visible TORN rows = %s, want 0", got[0][0])
	}
	res = mustExec(t, s, "SELECT count(*) FROM big")
	if got := RowStrings(res.Table); got[0][0] != "60000" {
		t.Errorf("row count after rollback = %s, want 60000", got[0][0])
	}
	if _, _, aborted := e.TransactionManager().Stats(); aborted < 1 {
		t.Errorf("aborted transactions = %d, want >= 1", aborted)
	}
}

func TestCanceledTraceSpan(t *testing.T) {
	e := NewEngine(DefaultConfig(), nil)
	t.Cleanup(e.Close)
	addBigTable(t, e, "big", 120_000, 1_000)
	s := e.NewSession()

	traces := make(chan *observe.Trace, 1)
	e.SetTraceSink(func(tr *observe.Trace) {
		select {
		case traces <- tr:
		default:
		}
	})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	if _, err := s.ExecuteContext(ctx, slowQuery); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	select {
	case tr := <-traces:
		if !tr.Canceled {
			t.Error("trace.Canceled = false for a canceled statement")
		}
	case <-time.After(time.Second):
		t.Fatal("no trace delivered for canceled statement")
	}
}
