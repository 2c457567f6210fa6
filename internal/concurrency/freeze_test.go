package concurrency

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// failingHook is a write-ahead log that refuses every commit.
type failingHook struct{}

func (failingHook) AppendCommit(types.TransactionID, types.CommitID, []RedoOp) (func() error, error) {
	return nil, errors.New("disk full")
}

// TestLowWaterMarkFollowsLiveSnapshots: the mark is the oldest live snapshot,
// never above the last commit, and every way a transaction ends — commit,
// read-only commit, rollback, the rollback of a commit the log refused — gives
// its snapshot up exactly once.
func TestLowWaterMarkFollowsLiveSnapshots(t *testing.T) {
	tm := NewTransactionManager()
	table := mvccTable(t, 1)
	insert := func() *TransactionContext {
		tx := tm.New()
		rid, err := table.AppendRow([]types.Value{types.Int(1)})
		if err != nil {
			t.Fatal(err)
		}
		tx.RegisterInsert(table.GetChunk(rid.Chunk), rid.Offset)
		return tx
	}
	check := func(step string, want types.CommitID) {
		t.Helper()
		if got := tm.LowWaterMark(); got != want {
			t.Fatalf("%s: LowWaterMark = %d, want %d (last commit %d)", step, got, want, tm.LastCommitID())
		}
	}
	check("no transaction", 0)
	old, readOnly := tm.New(), tm.New() // both at snapshot 0
	if err := insert().Commit(); err != nil {
		t.Fatal(err)
	}
	check("two readers at 0, one commit", 0)
	if err := readOnly.Commit(); err != nil {
		t.Fatal(err)
	}
	check("a read-only commit", 0)
	old.Rollback()
	old.Rollback()
	check("the readers ended", 1)

	mid := tm.New() // at 1
	if err := insert().Commit(); err != nil {
		t.Fatal(err)
	}
	check("a reader at 1, last commit 2", 1)
	tm.SetDurabilityHook(failingHook{})
	if err := insert().Commit(); err == nil {
		t.Fatal("a commit the log refused succeeded")
	}
	tm.SetDurabilityHook(nil)
	if err := mid.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := mid.Commit(); err == nil {
		t.Fatal("second commit succeeded")
	}
	check("every transaction ended", 2)
	if len(tm.live) != 0 {
		t.Errorf("snapshots still registered: %v", tm.live)
	}
}

// beginArrays counts the blocks of a table's chunks that hold a begin array,
// from MemoryUsage: an insert-only table holds no other array.
func beginArrays(table *storage.Table) int {
	n := 0
	for _, c := range table.Chunks() {
		headers := storage.NewMvccData(table.TargetChunkSize())
		headers.StampBegin(c.Size(), 0) // the same groups, no array
		n += int((c.MvccData().MemoryUsage() - headers.MemoryUsage()) / (storage.MvccBlockRows * 8))
	}
	return n
}

// TestFreezeQueueBoundedByBeginArrays: while one snapshot pins the mark, 10 000
// autocommit inserts queue each block once, and nothing freezes; once it ends,
// the next transaction end freezes every block.
func TestFreezeQueueBoundedByBeginArrays(t *testing.T) {
	tm := NewTransactionManager()
	table := storage.NewTable("t", []storage.ColumnDefinition{{Name: "v", Type: types.TypeInt64}}, 1000, true)
	pin := tm.New()
	for i := 0; i < 10_000; i++ {
		tx := tm.New()
		rid, err := table.AppendRow([]types.Value{types.Int(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		tx.RegisterInsert(table.GetChunk(rid.Chunk), rid.Offset)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	arrays := beginArrays(table)
	if arrays != 40 || len(tm.queue) > arrays || tm.frozen.Value() != 0 {
		t.Fatalf("pinned: %d queued, %d blocks hold begin arrays (want 40), %d frozen", len(tm.queue), arrays, tm.frozen.Value())
	}
	pin.Rollback()
	if arrays := beginArrays(table); arrays != 0 || len(tm.queue) != 0 || tm.frozen.Value() != 40 {
		t.Fatalf("unpinned: %d queued, %d blocks hold begin arrays, %d frozen", len(tm.queue), arrays, tm.frozen.Value())
	}
	if got := visibleRows(table, tm.New()); len(got) != 10_000 {
		t.Errorf("%d rows visible after the freeze, want 10000", len(got))
	}
}

// refRow is what the reference knows of a row: the commit ids of its insert
// and its delete, MaxCommitID until that commits (forever if it rolled back).
type refRow struct{ begin, end types.CommitID }

// TestDiffFrozenVisibility runs writers — inserts, deletes, updates, commits
// and rollbacks — beside readers holding snapshots of varied ages, while the
// ends of all of them freeze begin and end columns behind the low-water mark. After
// every step a writer checks each reader it holds: VisibleOffsets over every
// row, and the rows it keeps, equal what the dense reference — each row's
// begin and end, recorded with the commit — shows that snapshot. At the end,
// with no transaction live and one more ending, no complete block whose rows
// are all committed keeps its begin array, and no block its end array.
func TestDiffFrozenVisibility(t *testing.T) {
	const writers, steps = 4, 100
	const chunkSize = 2*storage.MvccBlockRows + 100 // sealed chunks end in a partial block
	tm := NewTransactionManager()
	table := storage.NewTable("t", []storage.ColumnDefinition{{Name: "v", Type: types.TypeInt64}}, chunkSize, true)
	// mu guards ref and is held across every write commit and its recording,
	// so a snapshot never covers a commit the reference lacks.
	var mu sync.Mutex
	ref := map[types.RowID]*refRow{}
	for i := 0; i < chunkSize+50; i++ {
		rid, err := table.AppendRow([]types.Value{types.Int(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		ref[rid] = &refRow{0, types.MaxCommitID}
	}
	MarkTableLoaded(table)

	checkReader := func(r *TransactionContext) error {
		mu.Lock()
		defer mu.Unlock()
		for ci, c := range table.Chunks() {
			var all, want []types.ChunkOffset
			for o := types.ChunkOffset(0); int(o) < c.Size(); o++ {
				all = append(all, o)
				if row := ref[types.RowID{Chunk: types.ChunkID(ci), Offset: o}]; row != nil && row.begin <= r.Snapshot() && row.end > r.Snapshot() {
					want = append(want, o)
				}
			}
			if got := VisibleOffsets(c.MvccData(), all, r.TID(), r.Snapshot()); !slices.Equal(got, want) {
				return fmt.Errorf("snapshot %d (mark %d), chunk %d: kept %d rows, the reference %d",
					r.Snapshot(), tm.LowWaterMark(), ci, len(got), len(want))
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			var readers []*TransactionContext
			defer func() {
				for _, r := range readers {
					r.Rollback()
				}
			}()
			appendRow := func(tx *TransactionContext) types.RowID {
				rid, err := table.AppendRow([]types.Value{types.Int(-1)})
				if err != nil {
					t.Error(err)
					runtime.Goexit()
				}
				tx.RegisterInsert(table.GetChunk(rid.Chunk), rid.Offset)
				mu.Lock()
				ref[rid] = &refRow{types.MaxCommitID, types.MaxCommitID}
				mu.Unlock()
				return rid
			}
			for step := 0; step < steps; step++ {
				if rng.Intn(3) == 0 {
					readers = append(readers, tm.New())
				}
				if len(readers) > 0 && rng.Intn(4) == 0 {
					// End the oldest or the newest: snapshots of mixed ages stay.
					i := rng.Intn(2) * (len(readers) - 1)
					if err := readers[i].Commit(); err != nil {
						errs <- err
						return
					}
					readers = slices.Delete(readers, i, i+1)
				}

				// Inserts come in batches, so some blocks hold no rolled-back row.
				tx := tm.New()
				var inserted, deleted []types.RowID
				for n := rng.Intn(25); n > 0; n-- {
					inserted = append(inserted, appendRow(tx))
				}
				for n := rng.Intn(4); n > 0; n-- {
					// A delete, or an update (delete + insert), of a random row the
					// transaction sees; a conflict leaves the row to its holder.
					ci := rng.Intn(table.ChunkCount())
					c := table.GetChunk(types.ChunkID(ci))
					if c.Size() == 0 {
						continue
					}
					o := types.ChunkOffset(rng.Intn(c.Size()))
					if !Visible(c.MvccData(), o, tx.TID(), tx.Snapshot()) {
						continue
					}
					if tx.TryInvalidate(c, o) != nil {
						continue
					}
					deleted = append(deleted, types.RowID{Chunk: types.ChunkID(ci), Offset: o})
					if rng.Intn(2) == 0 {
						inserted = append(inserted, appendRow(tx))
					}
				}
				if rng.Intn(32) == 0 {
					tx.Rollback()
				} else {
					mu.Lock()
					err := tx.Commit()
					cid := tm.LastCommitID()
					for _, rid := range inserted {
						ref[rid].begin = cid
					}
					for _, rid := range deleted {
						ref[rid].end = cid
					}
					mu.Unlock()
					if err != nil {
						errs <- err
						return
					}
				}
				for _, r := range readers {
					if err := checkReader(r); err != nil {
						errs <- err
						return
					}
				}
			}
		}(rand.New(rand.NewSource(int64(w + 1))))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	tm.New().Rollback() // one more transaction end, with none live
	if tm.frozen.Value() == 0 {
		t.Error("no block froze: the freeze went untested")
	}
	if len(tm.queue) != 0 {
		t.Errorf("%d blocks still queued with no transaction live", len(tm.queue))
	}
	if err := checkReader(tm.New()); err != nil {
		t.Error(err)
	}
	for ci, c := range table.Chunks() {
		for lo := 0; lo < c.Size(); lo += storage.MvccBlockRows {
			hi := min(lo+storage.MvccBlockRows, c.Size())
			if hi-lo < storage.MvccBlockRows && !c.IsImmutable() {
				continue // rows are still born into it
			}
			committed := true
			for o := lo; o < hi; o++ {
				committed = committed && ref[types.RowID{Chunk: types.ChunkID(ci), Offset: types.ChunkOffset(o)}].begin != types.MaxCommitID
			}
			if frozen, _ := c.FreezeBegin(types.ChunkOffset(lo), tm.LastCommitID()); committed && frozen {
				t.Errorf("chunk %d block at %d: every row committed below the mark, and it still held its begin array", ci, lo)
			}
			if frozen, _ := c.MvccData().FreezeEnd(types.ChunkOffset(lo), tm.LastCommitID()); frozen {
				t.Errorf("chunk %d block at %d: no transaction live, and it still held its end array", ci, lo)
			}
		}
	}
}

// TestFreezeQueueOrdersWithoutAllocating: the typed heap pops its blocks by
// ascending commit id, and once its array has grown a push and a pop
// allocate nothing.
func TestFreezeQueueOrdersWithoutAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q freezeQueue
	var want []types.CommitID
	for i := 0; i < 500; i++ {
		at := types.CommitID(rng.Intn(100))
		q.push(queuedBlock{at: at})
		want = append(want, at)
	}
	slices.Sort(want)
	for i, w := range want {
		if got := q.pop().at; got != w {
			t.Fatalf("pop %d: at = %d, want %d", i, got, w)
		}
	}
	if len(q) != 0 {
		t.Fatalf("%d blocks left after popping all", len(q))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		q.push(queuedBlock{at: 7})
		q.push(queuedBlock{at: 3})
		q.pop()
		q.pop()
	}); allocs != 0 {
		t.Errorf("a push and a pop allocate %.0f, want 0", allocs)
	}
}

// TestSelfDeleteRacesFreeze: a transaction inserts a row and deletes it while a
// freezer loops on the row's block — giving it an end array by a claim and a
// release of another row, then freezing it — and commits; the row is never
// visible. A self-delete that stored into the array the freeze was dropping
// would be lost, and the row would appear at commit.
func TestSelfDeleteRacesFreeze(t *testing.T) {
	tm := NewTransactionManager()
	table := storage.NewTable("t", []storage.ColumnDefinition{{Name: "v", Type: types.TypeInt64}}, 1000, true)
	if _, err := table.AppendRow([]types.Value{types.Int(0)}); err != nil {
		t.Fatal(err)
	}
	MarkTableLoaded(table)
	chunk := table.GetChunk(0)
	m := chunk.MvccData()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		const other = types.TransactionID(1 << 40)
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.Claim(0, other)
			m.Release(0, other)
			m.FreezeEnd(0, tm.LastCommitID())
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for round := 1; round < storage.MvccBlockRows; round++ {
		tx := tm.New()
		rid, err := table.AppendRow([]types.Value{types.Int(int64(round))})
		if err != nil {
			t.Fatal(err)
		}
		tx.RegisterInsert(chunk, rid.Offset)
		if err := tx.TryInvalidate(chunk, rid.Offset); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if reader := tm.New(); Visible(m, rid.Offset, reader.TID(), reader.Snapshot()) {
			t.Fatalf("round %d: the self-deleted row is visible after commit (end %d)", round, m.End(rid.Offset))
		}
	}
}
