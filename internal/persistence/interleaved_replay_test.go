package persistence

import (
	"os"
	"path/filepath"
	"testing"

	"hyrise/internal/concurrency"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// appendIn appends one row inside an open transaction (what the Insert
// operator does before its statement's transaction commits).
func appendIn(t *testing.T, tx *concurrency.TransactionContext, table *storage.Table, id int64) {
	t.Helper()
	vals := []types.Value{types.Int(id), types.Str("row"), types.Float(float64(id) / 2)}
	rid, err := table.AppendRow(vals)
	if err != nil {
		t.Fatalf("AppendRow: %v", err)
	}
	tx.RegisterInsert(table.GetChunk(rid.Chunk), rid.Offset)
	tx.LogInsert(table.Name(), rid, vals)
}

// checkZones fails unless every chunk's zones hold for the rows the chunk has
// now: each value inside the bounds, the leading run really ascending. A
// placeholder that replay overwrote inside a sealed chunk is where a zone
// kept at seal time would have gone stale.
func checkZones(t *testing.T, table *storage.Table) {
	t.Helper()
	for ci, c := range table.Chunks() {
		for col := 0; col < c.ColumnCount(); col++ {
			seg, z := c.SegmentWithZone(types.ColumnID(col))
			if _, ok := c.Zone(types.ColumnID(col)); !ok {
				t.Fatalf("chunk %d column %d carries no zone", ci, col)
			}
			var prev types.Value
			for o := 0; o < seg.Len(); o++ {
				v := seg.ValueAt(types.ChunkOffset(o))
				if !v.IsNull() && z.Excludes(&v, &v) {
					t.Errorf("chunk %d column %d: row %d holds %v, outside the zone %v..%v", ci, col, o, v, z.Min, z.Max)
				}
				if o < z.Ascending {
					if c, ok := types.Compare(prev, v); v.IsNull() || (o > 0 && (!ok || c > 0)) {
						t.Errorf("chunk %d column %d: zone says %d rows ascend, row %d holds %v after %v", ci, col, z.Ascending, o, v, prev)
					}
				}
				prev = v
			}
		}
	}
}

// copyDataDir copies the data directory as it is on disk right now — a crash
// image of an engine that is still open.
func copyDataDir(t *testing.T, from string) string {
	t.Helper()
	to := t.TempDir()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// TestDiffReplayCommitsOutOfOffsetOrder is the regression test for replay under
// concurrent sessions: two transactions interleave their appends and the one
// holding the higher offsets commits first, so the log places rows at
// offsets whose predecessors arrive later. Replay pads those predecessors
// with placeholders; the later commit must then fill them with its values —
// within a chunk, in a chunk the earlier commit already sealed, and at the
// tail of a chunk whose successor the earlier commit opened. Crash recovery
// and a replication follower (same Applier, streamed frames) must both end up
// with exactly the live engine's rows, under zones that cover them: the late
// commit's values lie above everything the early one wrote, so a chunk whose
// bounds were fixed when it was sealed would hide them from every scan.
func TestDiffReplayCommitsOutOfOffsetOrder(t *testing.T) {
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
	insertTx(t, tm, table, [][]types.Value{{types.Int(1), types.Str("first"), types.NullValue}})

	a, b := tm.New(), tm.New()
	appendIn(t, a, table, 50) // 0/1
	appendIn(t, b, table, 20) // 0/2
	appendIn(t, a, table, 51) // 0/3 — last slot of chunk 0
	appendIn(t, b, table, 21) // 1/0 — opens chunk 1
	appendIn(t, a, table, 52) // 1/1
	appendIn(t, b, table, 22) // 1/2
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	// A transaction that never commits leaves a hole replay keeps invisible.
	c := tm.New()
	appendIn(t, c, table, 30) // 1/3
	insertTx(t, tm, table, [][]types.Value{{types.Int(40), types.Str("last"), types.Float(4)}})
	want := visibleRows(tm, table)
	if len(want) != 8 {
		t.Fatalf("live engine shows %d rows, want 8", len(want))
	}

	t.Run("crash recovery", func(t *testing.T) {
		sm2, tm2, m2 := openTestManager(t, copyDataDir(t, dir), SyncCommit)
		defer m2.Close()
		recovered, err := sm2.GetTable("t")
		if err != nil {
			t.Fatal(err)
		}
		if got := visibleRows(tm2, recovered); !rowsEqual(got, want) {
			t.Fatalf("recovered rows = %v\nwant %v", got, want)
		}
		checkZones(t, recovered)
	})

	t.Run("replication follower", func(t *testing.T) {
		sm2 := storage.NewStorageManager()
		tm2 := concurrency.NewTransactionManager()
		applier := NewApplier(sm2, func(cid types.CommitID, _ int) { tm2.PublishCommitID(cid) })
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
		follower, err := sm2.GetTable("t")
		if err != nil {
			t.Fatal(err)
		}
		if got := visibleRows(tm2, follower); !rowsEqual(got, want) {
			t.Fatalf("follower rows = %v\nwant %v", got, want)
		}
		checkZones(t, follower)
		if z, _ := follower.GetChunk(0).Zone(0); !follower.GetChunk(0).IsImmutable() || z.Max.I != 51 {
			t.Errorf("chunk 0 of the follower: sealed=%v, id zone %v..%v, want a sealed chunk widened to 51", follower.GetChunk(0).IsImmutable(), z.Min, z.Max)
		}
	})
	c.Rollback()
}
