package concurrency

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyrise/internal/observe"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

func mvccTable(t *testing.T, rows int) *storage.Table {
	t.Helper()
	table := storage.NewTable("t", []storage.ColumnDefinition{{Name: "v", Type: types.TypeInt64}}, 100, true)
	for i := 0; i < rows; i++ {
		if _, err := table.AppendRow([]types.Value{types.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	MarkTableLoaded(table)
	return table
}

func visibleRows(table *storage.Table, tc *TransactionContext) []int64 {
	var out []int64
	for _, c := range table.Chunks() {
		mvcc := c.MvccData()
		for row := 0; row < c.Size(); row++ {
			var tid types.TransactionID
			var snap types.CommitID
			if tc != nil {
				tid, snap = tc.TID(), tc.Snapshot()
			}
			if Visible(mvcc, types.ChunkOffset(row), tid, snap) {
				out = append(out, c.GetSegment(0).ValueAt(types.ChunkOffset(row)).I)
			}
		}
	}
	return out
}

func TestBulkLoadedRowsVisible(t *testing.T) {
	tm := NewTransactionManager()
	table := mvccTable(t, 3)
	tc := tm.New()
	if got := visibleRows(table, tc); len(got) != 3 {
		t.Errorf("visible = %v, want 3 rows", got)
	}
}

func TestInsertVisibilityLifecycle(t *testing.T) {
	tm := NewTransactionManager()
	table := mvccTable(t, 1)

	writer := tm.New()
	rid, err := table.AppendRow([]types.Value{types.Int(100)})
	if err != nil {
		t.Fatal(err)
	}
	writer.RegisterInsert(table.GetChunk(rid.Chunk), rid.Offset)

	// Uncommitted insert: visible to writer, invisible to a reader.
	reader := tm.New()
	if got := visibleRows(table, writer); len(got) != 2 {
		t.Errorf("writer sees %v, want own insert", got)
	}
	if got := visibleRows(table, reader); len(got) != 1 {
		t.Errorf("reader sees %v, want only committed row", got)
	}

	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	// Old snapshot still does not see it; a fresh one does.
	if got := visibleRows(table, reader); len(got) != 1 {
		t.Errorf("old snapshot sees %v", got)
	}
	late := tm.New()
	if got := visibleRows(table, late); len(got) != 2 {
		t.Errorf("new snapshot sees %v, want 2 rows", got)
	}
	if writer.phase != Committed {
		t.Error("phase should be Committed")
	}
	if err := writer.Commit(); err == nil {
		t.Error("double commit should fail")
	}
}

func TestDeleteLifecycleAndSnapshotIsolation(t *testing.T) {
	tm := NewTransactionManager()
	table := mvccTable(t, 2)
	chunk := table.GetChunk(0)

	deleter := tm.New()
	if err := deleter.TryInvalidate(chunk, 0); err != nil {
		t.Fatal(err)
	}
	// Pending delete: hidden from deleter, still visible to others.
	if got := visibleRows(table, deleter); len(got) != 1 || got[0] != 1 {
		t.Errorf("deleter sees %v", got)
	}
	other := tm.New()
	if got := visibleRows(table, other); len(got) != 2 {
		t.Errorf("other sees %v, want both rows", got)
	}

	if err := deleter.Commit(); err != nil {
		t.Fatal(err)
	}
	// Snapshot isolation: the old reader still sees the deleted row.
	if got := visibleRows(table, other); len(got) != 2 {
		t.Errorf("old snapshot sees %v, want 2 rows", got)
	}
	fresh := tm.New()
	if got := visibleRows(table, fresh); len(got) != 1 || got[0] != 1 {
		t.Errorf("fresh snapshot sees %v", got)
	}
}

func TestWriteWriteConflict(t *testing.T) {
	tm := NewTransactionManager()
	table := mvccTable(t, 1)
	chunk := table.GetChunk(0)

	a, b := tm.New(), tm.New()
	if err := a.TryInvalidate(chunk, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.TryInvalidate(chunk, 0); err != nil {
		t.Fatalf("re-claim by the holder: %v", err)
	}
	err := b.TryInvalidate(chunk, 0)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("want conflict, got %v", err)
	}
	if want := fmt.Sprintf("held by transaction %d", a.TID()); !strings.Contains(err.Error(), want) {
		t.Errorf("conflict %q does not name the holder (%q)", err, want)
	}
	b.Rollback()
	// After a rolls back, the claim is released and b2 can delete.
	a.Rollback()
	b2 := tm.New()
	if err := b2.TryInvalidate(chunk, 0); err != nil {
		t.Fatalf("claim after rollback should work: %v", err)
	}
}

func TestDeleteAlreadyInvalidatedConflicts(t *testing.T) {
	tm := NewTransactionManager()
	table := mvccTable(t, 1)
	chunk := table.GetChunk(0)

	// Reader starts first, holding an old snapshot where row 0 is alive.
	reader := tm.New()
	del := tm.New()
	if err := del.TryInvalidate(chunk, 0); err != nil {
		t.Fatal(err)
	}
	if err := del.Commit(); err != nil {
		t.Fatal(err)
	}
	// reader validated row 0 earlier; its late delete must conflict.
	err := reader.TryInvalidate(chunk, 0)
	if !errors.Is(err, ErrConflict) || !strings.Contains(err.Error(), "already invalidated") {
		t.Fatalf("want conflict on already-invalidated row, got %v", err)
	}
}

func TestRollbackInsert(t *testing.T) {
	tm := NewTransactionManager()
	table := mvccTable(t, 0)

	tx := tm.New()
	rid, _ := table.AppendRow([]types.Value{types.Int(7)})
	tx.RegisterInsert(table.GetChunk(rid.Chunk), rid.Offset)
	tx.Rollback()
	if tx.phase != RolledBack {
		t.Error("phase should be RolledBack")
	}
	if got := visibleRows(table, tm.New()); len(got) != 0 {
		t.Errorf("rolled-back insert visible: %v", got)
	}
	// Rollback is idempotent; commit after rollback fails.
	tx.Rollback()
	if err := tx.Commit(); err == nil {
		t.Error("commit after rollback should fail")
	}
}

func TestSelfDeleteOfOwnInsert(t *testing.T) {
	tm := NewTransactionManager()
	table := mvccTable(t, 0)
	tx := tm.New()
	rid, _ := table.AppendRow([]types.Value{types.Int(1)})
	chunk := table.GetChunk(rid.Chunk)
	tx.RegisterInsert(chunk, rid.Offset)
	if got := visibleRows(table, tx); len(got) != 1 {
		t.Fatalf("own insert invisible: %v", got)
	}
	if err := tx.TryInvalidate(chunk, rid.Offset); err != nil {
		t.Fatal(err)
	}
	if got := visibleRows(table, tx); len(got) != 0 {
		t.Errorf("self-deleted insert still visible: %v", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := visibleRows(table, tm.New()); len(got) != 0 {
		t.Errorf("self-deleted insert visible after commit: %v", got)
	}
}

// Concurrent increments via delete+insert pairs: exactly one winner per
// round; total visible rows must stay 1.
func TestConcurrentConflictsUnderRace(t *testing.T) {
	tm := NewTransactionManager()
	table := mvccTable(t, 1)

	const workers = 8
	const rounds = 50
	var wg sync.WaitGroup
	var committed, aborted int
	var mu sync.Mutex

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				tx := tm.New()
				// Find a visible row to "update".
				var target *storage.Chunk
				var offset types.ChunkOffset
				found := false
				for _, c := range table.Chunks() {
					mvcc := c.MvccData()
					for row := 0; row < c.Size() && !found; row++ {
						if Visible(mvcc, types.ChunkOffset(row), tx.TID(), tx.Snapshot()) {
							target, offset, found = c, types.ChunkOffset(row), true
						}
					}
					if found {
						break
					}
				}
				if !found {
					tx.Rollback()
					continue
				}
				if err := tx.TryInvalidate(target, offset); err != nil {
					tx.Rollback()
					mu.Lock()
					aborted++
					mu.Unlock()
					continue
				}
				rid, err := table.AppendRow([]types.Value{types.Int(int64(r))})
				if err != nil {
					tx.Rollback()
					continue
				}
				tx.RegisterInsert(table.GetChunk(rid.Chunk), rid.Offset)
				if err := tx.Commit(); err != nil {
					tx.Rollback()
					continue
				}
				mu.Lock()
				committed++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if got := visibleRows(table, tm.New()); len(got) != 1 {
		t.Fatalf("visible rows = %v, want exactly 1", got)
	}
	if committed == 0 {
		t.Error("no transaction ever committed")
	}
	t.Logf("committed=%d aborted=%d", committed, aborted)
}

func TestTryInvalidateWait(t *testing.T) {
	table := mvccTable(t, 1)
	tm := NewTransactionManager()
	chunk := table.Chunks()[0]

	// Zero maxWait keeps the immediate-abort behavior.
	holder := tm.New()
	if err := holder.TryInvalidate(chunk, 0); err != nil {
		t.Fatal(err)
	}
	blocked := tm.New()
	if err := blocked.TryInvalidateWait(context.Background(), chunk, 0, 0); !errors.Is(err, ErrConflict) {
		t.Fatalf("maxWait=0 got %v, want conflict", err)
	}

	// With a wait budget, the claim succeeds once the holder rolls back;
	// the observer sees exactly one begin/end pair around the blocked span.
	var began, ended atomic.Int64
	blocked.SetWaitObserver(func(kind observe.WaitKind) func() {
		if kind != observe.WaitMVCCConflict {
			t.Errorf("wait kind = %v", kind)
		}
		began.Add(1)
		return func() { ended.Add(1) }
	})
	go func() {
		time.Sleep(5 * time.Millisecond)
		holder.Rollback()
	}()
	if err := blocked.TryInvalidateWait(context.Background(), chunk, 0, time.Second); err != nil {
		t.Fatalf("wait-retry got %v, want success", err)
	}
	if began.Load() != 1 || ended.Load() != 1 {
		t.Fatalf("observer begin/end = %d/%d, want 1/1", began.Load(), ended.Load())
	}
	blocked.Rollback()

	// A dead context cuts the wait short with the context's error.
	holder2 := tm.New()
	if err := holder2.TryInvalidate(chunk, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	victim := tm.New()
	if err := victim.TryInvalidateWait(ctx, chunk, 0, time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled wait got %v, want context.Canceled", err)
	}

	// A committed delete is permanent: the waiter gives up immediately with
	// the conflict instead of burning its whole budget.
	if err := holder2.Commit(); err != nil {
		t.Fatal(err)
	}
	late := tm.New()
	start := time.Now()
	if err := late.TryInvalidateWait(context.Background(), chunk, 0, time.Minute); !errors.Is(err, ErrConflict) {
		t.Fatalf("deleted-row wait got %v, want conflict", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("waiter did not short-circuit on permanent invalidation")
	}
}
