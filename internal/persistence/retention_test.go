package persistence

import (
	"errors"
	"io"
	"testing"

	"hyrise/internal/concurrency"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// TestRetentionPinBlocksTruncation is the regression test for the follower
// starvation bug: a checkpoint used to truncate the WAL front uncon-
// ditionally, deleting log a replication follower had not shipped yet. A pin
// must hold the front, Move must slide it, and Release must let the next
// checkpoint reclaim the prefix.
func TestRetentionPinBlocksTruncation(t *testing.T) {
	dir := t.TempDir()
	sm, tm, m := openTestManager(t, dir, SyncCommit)
	defer m.Close()

	table := storage.NewTable("t", testDefs(), 0, true)
	if err := sm.AddTable(table); err != nil {
		t.Fatal(err)
	}
	if err := m.LogCreateTable(table); err != nil {
		t.Fatal(err)
	}
	insertTx(t, tm, table, [][]types.Value{{types.Int(1), types.Str("a"), types.Float(1.0)}})
	mid := m.WALEndLSN()
	insertTx(t, tm, table, [][]types.Value{{types.Int(2), types.Str("b"), types.Float(2.0)}})

	pin := m.PinWAL(0)
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got := m.WALStartLSN(); got != 0 {
		t.Fatalf("pinned checkpoint truncated the log: start = %d, want 0", got)
	}
	if _, _, err := m.ReadWAL(0, 1<<20); err != nil {
		t.Fatalf("ReadWAL(0) under pin: %v", err)
	}

	// Sliding the pin forward releases only the prefix below it.
	pin.Move(mid)
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got := m.WALStartLSN(); got != mid {
		t.Fatalf("after Move(%d): start = %d, want %d", mid, got, mid)
	}
	if _, _, err := m.ReadWAL(0, 1<<20); !errors.Is(err, ErrWALTrimmed) {
		t.Fatalf("ReadWAL(0) below moved pin: err = %v, want ErrWALTrimmed", err)
	}
	if _, _, err := m.ReadWAL(mid, 1<<20); err != nil {
		t.Fatalf("ReadWAL(mid) at pin: %v", err)
	}

	pin.Release()
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got, want := m.WALStartLSN(), m.WALEndLSN(); got != want {
		t.Fatalf("after Release: start = %d, want full truncation to %d", got, want)
	}
	if _, _, err := m.ReadWAL(mid, 1<<20); !errors.Is(err, ErrWALTrimmed) {
		t.Fatalf("ReadWAL(mid) after release: err = %v, want ErrWALTrimmed", err)
	}
}

// TestReadWALStreamApplier streams the log in small chunks through the
// exported frame reader and replays it into a second catalog via an Applier,
// exactly the way a replication follower tails a primary. The follower's
// visible rows must match the primary's.
func TestReadWALStreamApplier(t *testing.T) {
	dir := t.TempDir()
	sm, tm, m := openTestManager(t, dir, SyncCommit)
	defer m.Close()

	table := storage.NewTable("t", testDefs(), 4, true)
	if err := sm.AddTable(table); err != nil {
		t.Fatal(err)
	}
	if err := m.LogCreateTable(table); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		insertTx(t, tm, table, [][]types.Value{
			{types.Int(int64(i)), types.Str("row"), types.Float(float64(i))},
		})
	}
	tx := tm.New()
	if err := tx.TryInvalidate(table.GetChunk(0), 2); err != nil {
		t.Fatal(err)
	}
	tx.LogDelete("t", types.RowID{Chunk: 0, Offset: 2})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	sm2 := storage.NewStorageManager()
	tm2 := concurrency.NewTransactionManager()
	applier := NewApplier(sm2, func(cid types.CommitID, _ int) { tm2.PublishCommitID(cid) })

	// Tiny read quota forces many round trips and exercises the
	// whole-frames-only trim at every boundary.
	var lsn int64
	for {
		data, next, err := m.ReadWAL(lsn, 64)
		if err != nil {
			t.Fatalf("ReadWAL(%d): %v", lsn, err)
		}
		if next == lsn {
			break
		}
		if err := applier.ApplyFrames(data); err != nil {
			t.Fatalf("ApplyFrames at %d: %v", lsn, err)
		}
		lsn = next
	}
	if lsn != m.WALEndLSN() {
		t.Fatalf("stream stopped at %d, log ends at %d", lsn, m.WALEndLSN())
	}

	follower, err := sm2.GetTable("t")
	if err != nil {
		t.Fatalf("follower missed CREATE TABLE: %v", err)
	}
	want := visibleRows(tm, table)
	got := visibleRows(tm2, follower)
	if !rowsEqual(got, want) {
		t.Fatalf("follower rows = %v, want %v", got, want)
	}
	if cid, _ := applier.MaxIDs(); cid != tm.LastCommitID() {
		t.Fatalf("follower commit barrier = %d, primary = %d", cid, tm.LastCommitID())
	}
}

// TestCheckpointFileDecode bootstraps a catalog from the file OpenCheckpoint
// returns (the follower bootstrap path) and checks the cut and contents.
func TestCheckpointFileDecode(t *testing.T) {
	dir := t.TempDir()
	sm, tm, m := openTestManager(t, dir, SyncCommit)
	defer m.Close()

	table := storage.NewTable("t", testDefs(), 0, true)
	if err := sm.AddTable(table); err != nil {
		t.Fatal(err)
	}
	if err := m.LogCreateTable(table); err != nil {
		t.Fatal(err)
	}
	insertTx(t, tm, table, [][]types.Value{
		{types.Int(1), types.Str("a"), types.Float(1.0)},
		{types.Int(2), types.Str("b"), types.Float(2.0)},
	})

	f, lsn, err := m.OpenCheckpoint()
	if err != nil {
		t.Fatalf("OpenCheckpoint: %v", err)
	}
	defer f.Close()
	if lsn != m.WALEndLSN() {
		t.Fatalf("snapshot cut %d, log end %d", lsn, m.WALEndLSN())
	}
	buf, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}

	sm2 := storage.NewStorageManager()
	gotLSN, gotCID, err := DecodeSnapshot(buf, sm2)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if gotLSN != lsn || gotCID != tm.LastCommitID() {
		t.Fatalf("decoded cut (%d, %d), want (%d, %d)", gotLSN, gotCID, lsn, tm.LastCommitID())
	}
	tm2 := concurrency.NewTransactionManager()
	tm2.RecoverState(gotCID, 0)
	follower, err := sm2.GetTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(visibleRows(tm2, follower), visibleRows(tm, table)) {
		t.Fatalf("bootstrap rows differ from primary")
	}
}
