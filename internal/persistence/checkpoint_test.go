package persistence

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hyrise/internal/concurrency"
	"hyrise/internal/observe"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// TestCheckpointFailsWhenDirSyncFails: a rename is durable only once its
// directory is synced. A failed directory sync after the snapshot rename used
// to be ignored and followed by a durable front truncation of the log, which
// loses every commit between the old snapshot's cut and the new one. Now the
// checkpoint fails before it truncates, a failed sync after the log's own
// truncation poisons the log, and a reopen recovers every commit.
func TestCheckpointFailsWhenDirSyncFails(t *testing.T) {
	orig := syncDir
	t.Cleanup(func() { syncDir = orig })
	injected := errors.New("injected directory sync failure")
	for _, failing := range []string{SnapshotFileName, WALFileName} {
		t.Run(failing, func(t *testing.T) {
			syncDir = orig
			dir := t.TempDir()
			sm, tm, m := openTestManager(t, dir, SyncCommit)
			table := storage.NewTable("t", testDefs(), 4, true)
			if err := sm.AddTable(table); err != nil {
				t.Fatal(err)
			}
			if err := m.LogCreateTable(table); err != nil {
				t.Fatal(err)
			}
			row := func(i int) []types.Value {
				return []types.Value{types.Int(int64(i)), types.Str("r"), types.Float(float64(i))}
			}
			insertTx(t, tm, table, [][]types.Value{row(0), row(1)})
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			insertTx(t, tm, table, [][]types.Value{row(2), row(3), row(4)})

			syncDir = func(path string) error {
				if filepath.Base(path) == failing {
					return injected
				}
				return orig(path)
			}
			start := m.WALStartLSN()
			if err := m.Checkpoint(); !errors.Is(err, injected) {
				t.Fatalf("Checkpoint = %v, want the directory sync's error", err)
			}
			syncDir = orig
			if failing == SnapshotFileName {
				if got := m.WALStartLSN(); got != start {
					t.Fatalf("the failed checkpoint moved the log start %d → %d", start, got)
				}
				insertTx(t, tm, table, [][]types.Value{row(5)})
			} else {
				tx := tm.New()
				vals := row(5)
				rid, err := table.AppendRow(vals)
				if err != nil {
					t.Fatal(err)
				}
				tx.RegisterInsert(table.GetChunk(rid.Chunk), rid.Offset)
				tx.LogInsert(table.Name(), rid, vals)
				if err := tx.Commit(); err == nil {
					t.Fatal("a commit after a failed directory sync of the log succeeded, want the log poisoned")
				}
			}
			want := visibleRows(tm, table)
			_ = m.Close()

			sm2, tm2, m2 := openTestManager(t, dir, SyncCommit)
			defer m2.Close()
			got, err := sm2.GetTable("t")
			if err != nil {
				t.Fatal(err)
			}
			if !rowsEqual(visibleRows(tm2, got), want) {
				t.Fatalf("recovered %d rows, want %d", len(visibleRows(tm2, got)), len(want))
			}
		})
	}
}

// TestCheckpointStreams: a checkpoint streams the image to its file chunk by
// chunk instead of building it in memory, so it allocates less than twice
// the image (building it grew one buffer to several times its size).
func TestCheckpointStreams(t *testing.T) {
	dir := t.TempDir()
	sm, _, m := openTestManager(t, dir, SyncOff)
	defer m.Close()
	table := storage.NewTable("t", testDefs(), 8192, true)
	if err := sm.AddTable(table); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("p", 100)
	for i := 0; i < 80_000; i++ {
		if _, err := table.AppendRow([]types.Value{types.Int(int64(i)), types.Str(pad), types.Float(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	st, err := os.Stat(filepath.Join(dir, SnapshotFileName))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() < 8<<20 {
		t.Fatalf("the image has %d bytes, want at least 8 MiB", st.Size())
	}
	grew := after.TotalAlloc - before.TotalAlloc
	if grew >= 2*uint64(st.Size()) {
		t.Fatalf("a checkpoint of a %d-byte image allocated %d bytes, want under twice the image", st.Size(), grew)
	}
	t.Logf("a checkpoint of a %d-byte image allocated %d bytes", st.Size(), grew)
}

// TestSnapshotIntervalCheckpoints: with Options.SnapshotInterval set, the
// manager checkpoints on its own beside committing writers: snapshots are
// counted, the log's start moves past the commits they cover, Close returns
// only once the loop has exited (it waits for it) and no checkpoint follows
// it, and a reopen restores every committed row.
func TestSnapshotIntervalCheckpoints(t *testing.T) {
	dir := t.TempDir()
	sm, tm := storage.NewStorageManager(), concurrency.NewTransactionManager()
	reg := observe.NewRegistry()
	const interval = 2 * time.Millisecond
	m, err := Open(sm, tm, Options{Dir: dir, Mode: SyncCommit, SnapshotInterval: interval, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	table := storage.NewTable("t", testDefs(), 4, true)
	if err := sm.AddTable(table); err != nil {
		t.Fatal(err)
	}
	if err := m.LogCreateTable(table); err != nil {
		t.Fatal(err)
	}
	snapshots := reg.Counter("snapshot.count")
	start := m.WALStartLSN()
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; snapshots.Value() < 2 || m.WALStartLSN() <= start; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("after %d commits: %d snapshots, log start %d (was %d)", i, snapshots.Value(), m.WALStartLSN(), start)
		}
		insertTx(t, tm, table, [][]types.Value{{types.Int(int64(i)), types.Str("r"), types.Float(float64(i))}})
	}
	want := visibleRows(tm, table)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	n := snapshots.Value()
	time.Sleep(10 * interval)
	if got := snapshots.Value(); got != n {
		t.Fatalf("%d checkpoints after Close", got-n)
	}

	sm2, tm2, m2 := openTestManager(t, dir, SyncCommit)
	defer m2.Close()
	got, err := sm2.GetTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if g := visibleRows(tm2, got); !reflect.DeepEqual(g, want) {
		t.Fatalf("reopened %d rows, want %d", len(g), len(want))
	}
}

// TestCheckpointKeepsClaimedRows: a row an open DELETE or UPDATE has claimed
// holds its claimer's mark in its end cell, which is not MaxCommitID; a
// checkpoint taken meanwhile must still write the row as live. The restored
// image and a replica bootstrapped from the checkpoint file hold both rows
// with their old values, and not the UPDATE's uncommitted new version.
func TestCheckpointKeepsClaimedRows(t *testing.T) {
	dir := t.TempDir()
	sm, tm, m := openTestManager(t, dir, SyncCommit)
	table := storage.NewTable("t", testDefs(), 0, true)
	if err := sm.AddTable(table); err != nil {
		t.Fatal(err)
	}
	if err := m.LogCreateTable(table); err != nil {
		t.Fatal(err)
	}
	insertTx(t, tm, table, [][]types.Value{
		{types.Int(1), types.Str("a"), types.Float(1)},
		{types.Int(2), types.Str("b"), types.Float(2)},
		{types.Int(3), types.Str("c"), types.Float(3)},
	})
	want := visibleRows(tm, table)

	chunk := table.GetChunk(0)
	del, upd := tm.New(), tm.New()
	if err := del.TryInvalidate(chunk, 0); err != nil {
		t.Fatal(err)
	}
	del.LogDelete("t", types.RowID{Offset: 0})
	if err := upd.TryInvalidate(chunk, 1); err != nil {
		t.Fatal(err)
	}
	upd.LogDelete("t", types.RowID{Offset: 1})
	newer := []types.Value{types.Int(2), types.Str("b2"), types.Float(20)}
	rid, err := table.AppendRow(newer)
	if err != nil {
		t.Fatal(err)
	}
	upd.RegisterInsert(table.GetChunk(rid.Chunk), rid.Offset)
	upd.LogInsert("t", rid, newer)
	if mvcc := chunk.MvccData(); mvcc.End(0) != types.HeldBy(del.TID()) || mvcc.End(1) != types.HeldBy(upd.TID()) {
		t.Fatalf("the claims are not in the end cells: %d, %d", mvcc.End(0), mvcc.End(1))
	}

	check := func(what string, tm *concurrency.TransactionManager, sm *storage.StorageManager) {
		t.Helper()
		got, err := sm.GetTable("t")
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if rows := visibleRows(tm, got); !rowsEqual(rows, want) {
			t.Errorf("%s holds %v, want %v", what, rows, want)
		}
	}
	f, _, err := m.OpenCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	replica := storage.NewStorageManager()
	_, cid, err := DecodeSnapshot(buf, replica)
	if err != nil {
		t.Fatal(err)
	}
	replicaTM := concurrency.NewTransactionManager()
	replicaTM.RecoverState(cid, 0)
	check("the replica", replicaTM, replica)

	// The claims are still open when the primary stops.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	sm2, tm2, m2 := openTestManager(t, dir, SyncCommit)
	defer m2.Close()
	check("the restored image", tm2, sm2)
}
