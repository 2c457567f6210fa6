package persistence

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

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
