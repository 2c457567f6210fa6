package concurrency

import (
	"math/rand"
	"slices"
	"testing"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// rowHistory is what the test itself knows about a row — who inserted it and
// how that ended, who deleted it and how that ended — kept beside the MVCC
// cells, never read from them.
type rowHistory struct {
	owner       types.TransactionID // 0: bulk-loaded
	begin       types.CommitID      // MaxCommitID until the insert commits
	dead        bool                // rolled back, placeholder, or never registered
	selfDeleted bool
	end         types.CommitID      // MaxCommitID until a delete commits
	claimedBy   types.TransactionID // a delete that is still pending
}

// visible is the rule of §2.8 over the history: own uncommitted inserts unless
// self-deleted, otherwise begin ≤ snapshot < end minus the reader's own pending
// deletes.
func (r rowHistory) visible(tid types.TransactionID, snapshot types.CommitID) bool {
	if r.begin == types.MaxCommitID {
		return !r.dead && tid != 0 && r.owner == tid && !r.selfDeleted
	}
	return r.begin <= snapshot && !r.selfDeleted && r.end > snapshot && (tid == 0 || r.claimedBy != tid)
}

// TestDiffVisibilityFastPath builds a table of bulk-loaded blocks nobody
// touched, blocks with committed, pending, self-deleted and rolled-back
// inserts, committed and pending deletes and recovery placeholders, and checks
// for every reader (no transaction, each open one, a finished one, an
// uninvolved one) at every snapshot that the block-wise rung keeps exactly the
// rows per-row Visible keeps, and both exactly those the histories say.
func TestDiffVisibilityFastPath(t *testing.T) {
	const chunkSize = 5*storage.MvccBlockRows + 90
	rng := rand.New(rand.NewSource(28))
	tm := NewTransactionManager()
	table := storage.NewTable("t", []storage.ColumnDefinition{{Name: "v", Type: types.TypeInt64}}, chunkSize, true)
	history := map[types.RowID]*rowHistory{}
	appendRow := func() types.RowID {
		rid, err := table.AppendRow([]types.Value{types.Int(int64(len(history)))})
		if err != nil {
			t.Fatal(err)
		}
		history[rid] = &rowHistory{begin: types.MaxCommitID, end: types.MaxCommitID, dead: true}
		return rid
	}
	for i := 0; i < chunkSize+3*storage.MvccBlockRows+17; i++ {
		*history[appendRow()] = rowHistory{begin: 0, end: types.MaxCommitID}
	}
	MarkTableLoaded(table)

	type openTx struct {
		tc      *TransactionContext
		inserts []types.RowID
		deletes []types.RowID
	}
	var open []*openTx
	tids := []types.TransactionID{0}
	finish := func(tx *openTx, commit bool) {
		if commit {
			if err := tx.tc.Commit(); err != nil {
				t.Fatal(err)
			}
		} else {
			tx.tc.Rollback()
		}
		cid := tm.LastCommitID()
		for _, rid := range tx.inserts {
			if h := history[rid]; commit {
				h.begin = cid
			} else {
				h.dead = true
			}
		}
		for _, rid := range tx.deletes {
			if h := history[rid]; commit {
				h.end, h.claimedBy = cid, 0
			} else {
				h.claimedBy = 0
			}
		}
	}
	for round := 0; round < 40; round++ {
		tx := &openTx{tc: tm.New()}
		tids = append(tids, tx.tc.TID())
		for n := rng.Intn(40); n > 0; n-- {
			rid := appendRow()
			tx.tc.RegisterInsert(table.GetChunk(rid.Chunk), rid.Offset)
			*history[rid] = rowHistory{owner: tx.tc.TID(), begin: types.MaxCommitID, end: types.MaxCommitID}
			tx.inserts = append(tx.inserts, rid)
			if rng.Intn(5) == 0 {
				if err := tx.tc.TryInvalidate(table.GetChunk(rid.Chunk), rid.Offset); err != nil {
					t.Fatal(err)
				}
				history[rid].selfDeleted = true
			}
		}
		// Deletes go to the third block of chunk 0 and anywhere in chunk 1; the
		// other loaded blocks of chunk 0 stay untouched.
		for n := rng.Intn(6); n > 0; n-- {
			rid := types.RowID{Chunk: 0, Offset: types.ChunkOffset(2*storage.MvccBlockRows + rng.Intn(storage.MvccBlockRows))}
			if rng.Intn(2) == 0 {
				rid = types.RowID{Chunk: 1, Offset: types.ChunkOffset(rng.Intn(table.GetChunk(1).Size()))}
			}
			if h := history[rid]; h.visible(tx.tc.TID(), tx.tc.Snapshot()) && h.claimedBy == 0 && h.end == types.MaxCommitID {
				if err := tx.tc.TryInvalidate(table.GetChunk(rid.Chunk), rid.Offset); err != nil {
					t.Fatalf("round %d: delete of %v: %v", round, rid, err)
				}
				if h.owner == tx.tc.TID() && h.begin == types.MaxCommitID {
					h.selfDeleted = true
				} else {
					h.claimedBy = tx.tc.TID()
					tx.deletes = append(tx.deletes, rid)
				}
			}
		}
		switch rng.Intn(4) {
		case 0:
			open = append(open, tx)
		case 1:
			finish(tx, false)
		default:
			finish(tx, true)
		}
		if len(open) > 3 {
			finish(open[0], rng.Intn(2) == 0)
			open = open[1:]
		}
		if round == 20 {
			// Replay pads the slots commits it has not seen yet own.
			last := types.ChunkID(table.ChunkCount() - 1)
			at := types.RowID{Chunk: last, Offset: types.ChunkOffset(table.GetChunk(last).Size() + 5)}
			if _, err := table.RestoreRowAt(at, []types.Value{types.Int(-1)}); err != nil {
				t.Fatal(err)
			}
			for o := at.Offset - 5; o <= at.Offset; o++ {
				history[types.RowID{Chunk: last, Offset: o}] = &rowHistory{begin: types.MaxCommitID, end: types.MaxCommitID, dead: true}
			}
		}
	}
	// One block whose only event is a delete still pending: the claim alone
	// must keep the block from answering for the row.
	pending, claimed := tm.New(), types.RowID{Chunk: 0, Offset: 4*storage.MvccBlockRows + 9}
	if err := pending.TryInvalidate(table.GetChunk(0), claimed.Offset); err != nil {
		t.Fatal(err)
	}
	history[claimed].claimedBy = pending.TID()
	tids = append(tids, pending.TID(), tm.New().TID())

	untouched := 0
	for ci, c := range table.Chunks() {
		mvcc, n := c.MvccData(), c.Size()
		for o := types.ChunkOffset(0); int(o) < n; o++ {
			// A pending delete is its owner's mark in the row's end cell.
			if h := history[types.RowID{Chunk: types.ChunkID(ci), Offset: o}]; h.claimedBy != 0 && mvcc.End(o) != types.HeldBy(h.claimedBy) {
				t.Fatalf("row %d/%d: claimed by %d, end holds %d", ci, o, h.claimedBy, mvcc.End(o))
			}
		}
		for lo := 0; lo < n; lo += storage.MvccBlockRows {
			if mvcc.Block(types.ChunkOffset(lo)).AllVisible(tm.LastCommitID()) {
				untouched++
			}
		}
		for _, tid := range tids {
			for snapshot := types.CommitID(0); snapshot <= tm.LastCommitID(); snapshot++ {
				var all, sparse, want, wantSparse []types.ChunkOffset
				for o := types.ChunkOffset(0); int(o) < n; o++ {
					vis := history[types.RowID{Chunk: types.ChunkID(ci), Offset: o}].visible(tid, snapshot)
					if got := Visible(mvcc, o, tid, snapshot); got != vis {
						t.Fatalf("row %d/%d tid %d snapshot %d: Visible = %v, history says %v", ci, o, tid, snapshot, got, vis)
					}
					all = append(all, o)
					if vis {
						want = append(want, o)
					}
					if rng.Intn(7) == 0 {
						sparse = append(sparse, o)
						if vis {
							wantSparse = append(wantSparse, o)
						}
					}
				}
				if got := VisibleOffsets(mvcc, all, tid, snapshot); !slices.Equal(got, want) {
					t.Fatalf("chunk %d tid %d snapshot %d: all offsets: %d rows kept, want %d", ci, tid, snapshot, len(got), len(want))
				}
				if got := VisibleOffsets(mvcc, sparse, tid, snapshot); !slices.Equal(got, wantSparse) {
					t.Fatalf("chunk %d tid %d snapshot %d: sparse offsets: kept %v, want %v", ci, tid, snapshot, got, wantSparse)
				}
				if got := VisibleOffsets(mvcc, nil, tid, snapshot); len(got) != 0 {
					t.Fatalf("no offsets in, %v out", got)
				}
			}
		}
	}
	if untouched < 4 {
		t.Errorf("%d blocks answer for their rows, want the untouched loaded ones (>= 4): the fast path went untested", untouched)
	}
}
