package storage

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"hyrise/internal/types"
)

// denseMvcc is the reference MvccData is held against: two cells for every
// row, written one at a time; a claim is its owner's mark in end.
type denseMvcc struct{ begin, end []uint64 }

func (d *denseMvcc) born() {
	d.begin = append(d.begin, uint64(types.MaxCommitID))
	d.end = append(d.end, uint64(types.MaxCommitID))
}

const (
	mvccCellsBytes                     = int64(unsafe.Sizeof(mvccCells{}))
	mvccGroupBytes                     = int64(unsafe.Sizeof(mvccGroup{}))
	frozenEndBytes                     = int64(unsafe.Sizeof(frozenEnd{}))
	beginArrays, endArrays, frozenEnds = 0, 1, 2 // what mvccArrays counts
)

// mvccArrays counts the begin arrays, end arrays and frozen ends, which
// MemoryUsage must account for and nothing else.
func mvccArrays(m *MvccData) (arrays [3]int, groups int) {
	for gi := range m.groups {
		g := m.groups[gi].Load()
		if g == nil {
			continue
		}
		groups++
		for b := range g {
			for c, held := range []bool{g[b].begin.Load() != nil, g[b].end.Load() != nil, g[b].frozen.Load() != nil} {
				if held {
					arrays[c]++
				}
			}
		}
	}
	return arrays, groups
}

// freezeEndByReference is FreezeEnd by the dense reference: the cells of the
// block of row i (unborn ones fresh) are scanned in order, a held mark stops the
// freeze, a commit id above mark stops it and is returned; otherwise every
// invalidated row reads the largest of their commits.
func freezeEndByReference(end []uint64, i types.ChunkOffset, mark types.CommitID) (frozen bool, above types.CommitID) {
	lo := int(i) &^ (MvccBlockRows - 1)
	var last uint64
	for k := lo; k < min(lo+MvccBlockRows, len(end)); k++ {
		switch v := types.CommitID(end[k]); {
		case v == types.MaxCommitID:
		case !v.Committed():
			return false, 0
		case v > mark:
			return false, v
		default:
			last = max(last, end[k])
		}
	}
	for k := lo; k < min(lo+MvccBlockRows, len(end)); k++ {
		if end[k] != uint64(types.MaxCommitID) {
			end[k] = last
		}
	}
	return true, 0
}

// TestDiffMvccColumns drives one chunk's MVCC columns and the dense reference
// through the same random history — appends (also into blocks a range stamp
// left in scalar form), single stores, claims and releases, freezes of either
// column, range stamps over everything born so far — across block and group
// borders and a partial last block, and compares the cells each step could
// have reached; then, apart, N goroutines materialize the same blocks at once,
// and claims, releases and commits race a freezer.
func TestDiffMvccColumns(t *testing.T) {
	t.Run("history", func(t *testing.T) {
		// 35 whole blocks and 40 rows of a 36th, in two groups.
		const capacity = 1<<mvccGroupShift + 3*MvccBlockRows + 40
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			table := NewTable("m", []ColumnDefinition{{Name: "id", Type: types.TypeInt64}}, capacity, true)
			var ref denseMvcc
			appendRows := func(n int) {
				for ; n > 0 && len(ref.begin) < capacity; n-- {
					if _, err := table.AppendRow([]types.Value{types.Int(int64(len(ref.begin)))}); err != nil {
						t.Fatal(err)
					}
					ref.born()
				}
			}
			appendRows(1)
			m := table.GetChunk(0).MvccData()
			// Rows near a border are picked more often than their share.
			pick := func() types.ChunkOffset {
				n := len(ref.begin)
				if rng.Intn(2) == 0 {
					border := rng.Intn(n/MvccBlockRows+1) * MvccBlockRows
					return types.ChunkOffset(min(n-1, max(0, border-2+rng.Intn(4))))
				}
				return types.ChunkOffset(rng.Intn(n))
			}
			value := func() uint64 {
				switch rng.Intn(4) {
				case 0:
					return uint64(types.MaxCommitID)
				case 1:
					return uint64(types.HeldBy(types.TransactionID(1 + rng.Intn(3))))
				default:
					return uint64(rng.Intn(5))
				}
			}
			for step := 0; step < 1500; step++ {
				// Every step is checked on the block it wrote to (an append on the
				// rows it added), a stamp and every 100th step on all rows.
				lo, hi := 0, 0
				touched := func(i types.ChunkOffset) {
					lo = int(i) &^ (MvccBlockRows - 1)
					hi = lo + MvccBlockRows
				}
				switch op := rng.Intn(14); {
				case op < 3:
					lo = len(ref.begin)
					appendRows(1 + rng.Intn(300))
					hi = len(ref.begin)
				case op < 5:
					i, v := pick(), value()
					m.SetBegin(i, types.CommitID(v))
					ref.begin[i] = v
					touched(i)
				case op < 7:
					i, v := pick(), value()
					m.SetEnd(i, types.CommitID(v))
					ref.end[i] = v
					touched(i)
				case op < 9:
					i, tid := pick(), types.TransactionID(1+rng.Intn(3))
					mark := uint64(types.HeldBy(tid))
					want := ref.end[i] == uint64(types.MaxCommitID) || ref.end[i] == mark
					if want {
						ref.end[i] = mark
					}
					if end, ok, _ := m.Claim(i, tid); ok != want || uint64(end) != ref.end[i] {
						t.Fatalf("seed %d step %d: Claim(%d, %d) = %d, %v; want %d, %v", seed, step, i, tid, end, ok, ref.end[i], want)
					}
					touched(i)
				case op < 11:
					i, tid := pick(), types.TransactionID(rng.Intn(4))
					m.Release(i, tid)
					if ref.end[i] == uint64(types.HeldBy(tid)) {
						ref.end[i] = uint64(types.MaxCommitID)
					}
					touched(i)
				case op < 12:
					// The freeze, by the reference: a block that holds a begin array and
					// whose born rows are all committed (all 256 of them, unless the
					// chunk is sealed) comes to hold their largest begin, when that is
					// at or below the mark.
					i, mark := pick(), uint64(rng.Intn(5))
					touched(i)
					hi = min(hi, len(ref.begin))
					b := m.Block(i).b
					eligible := b != nil && b.begin.Load() != nil && (hi-lo == MvccBlockRows || len(ref.begin) == capacity)
					largest := uint64(0)
					for _, v := range ref.begin[lo:hi] {
						eligible = eligible && types.CommitID(v).Committed()
						largest = max(largest, v)
					}
					wantAbove := uint64(0)
					if eligible && largest > mark {
						wantAbove = largest
					}
					frozen, above := table.GetChunk(0).FreezeBegin(i, types.CommitID(mark))
					if frozen != (eligible && largest <= mark) || uint64(above) != wantAbove {
						t.Fatalf("seed %d step %d: FreezeBegin(%d, %d) = %v, %d; the reference: eligible %v, largest %d", seed, step, i, mark, frozen, above, eligible, largest)
					}
					if frozen {
						for k := lo; k < hi; k++ {
							ref.begin[k] = largest
						}
					}
				case op < 13:
					i, mark := pick(), types.CommitID(rng.Intn(5))
					touched(i)
					b := m.Block(i).b
					wantFrozen, wantAbove := false, types.CommitID(0)
					if b != nil && b.end.Load() != nil {
						wantFrozen, wantAbove = freezeEndByReference(ref.end, i, mark)
					}
					if frozen, above := m.FreezeEnd(i, mark); frozen != wantFrozen || above != wantAbove {
						t.Fatalf("seed %d step %d: FreezeEnd(%d, %d) = %v, %d; the reference %v, %d", seed, step, i, mark, frozen, above, wantFrozen, wantAbove)
					}
					invalidated := false
					for _, v := range ref.end[lo:min(hi, len(ref.end))] {
						invalidated = invalidated || v != uint64(types.MaxCommitID)
					}
					if a := m.Block(i).b; wantFrozen && (a.end.Load() != nil || (a.frozen.Load() != nil) != invalidated) {
						t.Fatalf("seed %d step %d: block of row %d froze to the wrong form", seed, step, i)
					}
				default:
					cid := uint64(rng.Intn(5))
					m.StampBegin(len(ref.begin), types.CommitID(cid))
					for i := range ref.begin {
						ref.begin[i] = cid
					}
					hi = len(ref.begin)
				}
				if step%100 == 99 {
					lo, hi = 0, len(ref.begin)
				}
				for i := lo; i < min(hi, len(ref.begin)); i++ {
					o := types.ChunkOffset(i)
					if uint64(m.Begin(o)) != ref.begin[i] || uint64(m.End(o)) != ref.end[i] {
						t.Fatalf("seed %d step %d row %d: begin/end = %d/%d, want %d/%d", seed, step, i,
							m.Begin(o), m.End(o), ref.begin[i], ref.end[i])
					}
				}
				// A block that answers for its rows must be right about each of them.
				snapshot := types.CommitID(rng.Intn(5))
				for lo &^= MvccBlockRows - 1; lo < min(hi, len(ref.begin)); lo += MvccBlockRows {
					if !m.Block(types.ChunkOffset(lo)).AllVisible(snapshot) {
						continue
					}
					for i := lo; i < min(lo+MvccBlockRows, len(ref.begin)); i++ {
						if ref.begin[i] > uint64(snapshot) || ref.end[i] != uint64(types.MaxCommitID) {
							t.Fatalf("seed %d step %d: block of row %d calls itself visible at %d, row %d holds %d/%d",
								seed, step, lo, snapshot, i, ref.begin[i], ref.end[i])
						}
					}
				}
			}
			arrays, groups := mvccArrays(m)
			want := int64(len(m.groups))*8 + int64(groups)*mvccGroupBytes + int64(arrays[beginArrays]+arrays[endArrays])*mvccCellsBytes + int64(arrays[frozenEnds])*frozenEndBytes
			if got := m.MemoryUsage(); got != want {
				t.Errorf("seed %d: MemoryUsage = %d, want %d (%d groups, arrays %v)", seed, got, want, groups, arrays)
			}
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		const workers, rounds = 8, 200
		for round := 0; round < rounds; round++ {
			m := NewMvccData(2 * MvccBlockRows)
			if round%2 == 1 {
				m.StampBegin(2*MvccBlockRows, 0) // materialize out of a stamped scalar too
			}
			const contended = types.ChunkOffset(MvccBlockRows + 7)
			var wg sync.WaitGroup
			var claimed [workers]bool
			start := make(chan struct{})
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					<-start
					_, claimed[w], _ = m.Claim(contended, types.TransactionID(w+1))
					// Even rows are invalidated, odd ones claimed, into the same arrays.
					for i := w; i < 2*MvccBlockRows; i += workers {
						o := types.ChunkOffset(i)
						m.SetBegin(o, types.CommitID(10+i))
						if i%2 == 0 {
							m.SetEnd(o, types.CommitID(20+i))
						} else if _, ok, _ := m.Claim(o, types.TransactionID(w+1)); o != contended && !ok {
							t.Errorf("round %d: uncontended claim of row %d failed", round, i)
						}
					}
				}(w)
			}
			close(start)
			wg.Wait()
			winners := 0
			for w, ok := range claimed {
				if ok {
					winners++
					if got := m.End(contended); got != types.HeldBy(types.TransactionID(w+1)) {
						t.Errorf("round %d: row claimed by %d holds end %d", round, w+1, got)
					}
				}
			}
			if winners != 1 {
				t.Errorf("round %d: %d winners of one contended claim", round, winners)
			}
			for i := 0; i < 2*MvccBlockRows; i++ {
				o := types.ChunkOffset(i)
				if m.Begin(o) != types.CommitID(10+i) || i%2 == 0 && m.End(o) != types.CommitID(20+i) {
					t.Fatalf("round %d row %d: lost store, begin/end = %d/%d", round, i, m.Begin(o), m.End(o))
				}
				if i%2 == 1 && o != contended && m.End(o) != types.HeldBy(types.TransactionID(i%workers+1)) {
					t.Fatalf("round %d row %d: lost claim, end = %d", round, i, m.End(o))
				}
			}
		}
	})

	// Workers claim rows of two blocks, release most claims and commit the
	// rest (end 1), while a freezer freezes both blocks at mark 1 over and
	// over. The reference is who holds each row and which are invalidated: a
	// claim has one winner and reads as its mark until it ends, no read shows
	// the freeze's sentinel, and at the end every row reads as the reference.
	t.Run("freeze", func(t *testing.T) {
		const workers, rounds, steps, rows = 4, 20, 400, 2 * MvccBlockRows
		var frozen, thawed atomic.Int64
		for round := 0; round < rounds; round++ {
			m := NewMvccData(rows)
			var holder [rows]atomic.Uint64
			var invalidated [rows]atomic.Bool
			stop := make(chan struct{})
			var wg, freezer sync.WaitGroup
			freezer.Add(1)
			go func() {
				defer freezer.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for lo := types.ChunkOffset(0); lo < rows; lo += MvccBlockRows {
						if ok, _ := m.FreezeEnd(lo, 1); ok {
							frozen.Add(1)
						}
					}
				}
			}()
			for w := 1; w <= workers; w++ {
				wg.Add(1)
				go func(tid types.TransactionID, rng *rand.Rand) {
					defer wg.Done()
					mark := types.HeldBy(tid)
					for step := 0; step < steps; step++ {
						// The first 48 rows of either block: claims meet each other.
						i := types.ChunkOffset(rng.Intn(2)*MvccBlockRows + rng.Intn(48))
						if e := m.End(types.ChunkOffset(rng.Intn(rows))); uint64(e) == mvccFrozen {
							t.Errorf("round %d: a read saw the freeze's sentinel", round)
						}
						end, ok, th := m.Claim(i, tid)
						if th {
							thawed.Add(1)
						}
						if !ok {
							if end == mark || uint64(end) == mvccFrozen || end.Committed() && end != 1 {
								t.Errorf("round %d: claim of row %d by %d refused with end %d", round, i, tid, end)
							}
							continue
						}
						if prev := holder[i].Swap(uint64(tid)); prev != 0 {
							t.Errorf("round %d: %d and %d both hold row %d", round, prev, tid, i)
						}
						if got := m.End(i); got != mark {
							t.Errorf("round %d: row %d claimed by %d reads end %d", round, i, tid, got)
						}
						if rng.Intn(32) == 0 {
							invalidated[i].Store(true)
							m.SetEnd(i, 1)
							continue // nobody claims the row again
						}
						holder[i].Store(0)
						m.Release(i, tid)
					}
				}(types.TransactionID(w), rand.New(rand.NewSource(int64(round*workers+w))))
			}
			wg.Wait()
			close(stop)
			freezer.Wait()
			for lo := types.ChunkOffset(0); lo < rows; lo += MvccBlockRows {
				m.FreezeEnd(lo, 1)
			}
			for i := types.ChunkOffset(0); i < rows; i++ {
				want := types.MaxCommitID
				if invalidated[i].Load() {
					want = 1
				}
				if got := m.End(i); got != want {
					t.Fatalf("round %d row %d: end %d after the freeze, want %d", round, i, got, want)
				}
			}
			if arrays, _ := mvccArrays(m); arrays[endArrays] != 0 {
				t.Fatalf("round %d: %d end arrays left with no claim held", round, arrays[endArrays])
			}
		}
		if frozen.Load() == 0 || thawed.Load() == 0 {
			t.Errorf("%d freezes, %d thaws: the race went unexercised", frozen.Load(), thawed.Load())
		}
	})
}

// TestFreezeBeginKeepsWhatReadersSee: a block's begin array goes back to one
// scalar — its largest begin — only once every born row is committed at or
// below the mark; a block rows are still born into never freezes, a sealed
// chunk's partial last block does, and its end array, claims in it, stays.
func TestFreezeBeginKeepsWhatReadersSee(t *testing.T) {
	table := NewTable("m", []ColumnDefinition{{Name: "id", Type: types.TypeInt64}}, 2*MvccBlockRows+40, true)
	appendRows := func(n int) {
		for ; n > 0; n-- {
			if _, err := table.AppendRow([]types.Value{types.Int(0)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendRows(MvccBlockRows + 10)
	c := table.GetChunk(0)
	m := c.MvccData()
	for o := types.ChunkOffset(0); int(o) < c.Size(); o++ {
		m.SetBegin(o, types.CommitID(1+o%5))
	}
	m.SetEnd(3, 4)
	m.Claim(4, 9)
	freeze := func(row types.ChunkOffset, mark types.CommitID, wantFrozen bool, wantAbove types.CommitID) {
		t.Helper()
		if frozen, above := c.FreezeBegin(row, mark); frozen != wantFrozen || above != wantAbove {
			t.Fatalf("FreezeBegin(%d, %d) = %v, %d; want %v, %d", row, mark, frozen, above, wantFrozen, wantAbove)
		}
	}
	freeze(0, 4, false, 5)              // a row committed above the mark
	freeze(MvccBlockRows, 10, false, 0) // rows are still born into it
	before := m.MemoryUsage()
	freeze(0, 5, true, 0)
	freeze(0, 5, false, 0)
	if arrays, _ := mvccArrays(m); arrays != [3]int{1, 1, 0} || m.MemoryUsage() != before-mvccCellsBytes {
		t.Errorf("after the freeze: arrays %v, MemoryUsage %d -> %d", arrays, before, m.MemoryUsage())
	}
	for o := types.ChunkOffset(0); o < MvccBlockRows; o++ {
		if m.Begin(o) != 5 {
			t.Fatalf("frozen row %d: begin %d, want the block's largest, 5", o, m.Begin(o))
		}
	}
	if m.End(3) != 4 || m.End(4) != types.HeldBy(9) || m.End(5) != types.MaxCommitID {
		t.Errorf("end of the frozen block changed: end(3) %d, end(4) %d, end(5) %d", m.End(3), m.End(4), m.End(5))
	}

	// Filling the chunk seals it: its partial last block freezes on its 40 rows,
	// the middle one waits for its uncommitted row.
	appendRows(MvccBlockRows + 30)
	if !c.IsImmutable() {
		t.Fatal("full chunk not sealed")
	}
	for o := types.ChunkOffset(MvccBlockRows); int(o) < c.Size(); o++ {
		m.SetBegin(o, 2)
	}
	m.SetBegin(MvccBlockRows+7, types.HeldBy(3))
	freeze(MvccBlockRows, 10, false, 0)
	freeze(2*MvccBlockRows, 2, true, 0)
	if !m.Block(2*MvccBlockRows).AllVisible(2) || m.Block(2*MvccBlockRows).AllVisible(1) {
		t.Error("the frozen last block must answer for its rows at 2 and not below")
	}
	m.SetBegin(MvccBlockRows+7, 6)
	freeze(MvccBlockRows, 10, true, 0)
	if m.Begin(MvccBlockRows) != 6 || !m.Block(MvccBlockRows).AllVisible(6) {
		t.Error("the middle block froze to the wrong scalar")
	}
}

// TestMvccColumnsCostNothingUntilTouched pins when each array appears: none
// for a new chunk, appended rows, a bulk-load stamp or any read; begin alone
// where rows are inserted into a stamped block or stamped one by one; end only
// in a block that holds an invalidated or claimed row, until the mark passes
// it: then a block whose claim was released costs nothing again, one with an
// invalidated row its frozen end. A group's headers are two columns of 32
// blocks, 1 KiB.
func TestMvccColumnsCostNothingUntilTouched(t *testing.T) {
	const rows = 3*MvccBlockRows + 40
	table := NewTable("m", []ColumnDefinition{{Name: "id", Type: types.TypeInt64}}, 2<<mvccGroupShift, true)
	appendRow := func() types.ChunkOffset {
		rid, err := table.AppendRow([]types.Value{types.Int(0)})
		if err != nil {
			t.Fatal(err)
		}
		return rid.Offset
	}
	for i := 0; i < rows; i++ {
		appendRow()
	}
	m := table.GetChunk(0).MvccData()
	directory := int64(len(m.groups)) * 8
	if got := m.MemoryUsage(); got != directory {
		t.Errorf("after appends MemoryUsage = %d, want the directory's %d", got, directory)
	}
	// Reads, also of the group nothing was ever stored into, allocate nothing.
	var sink uint64
	if allocs := testing.AllocsPerRun(10, func() {
		for _, o := range []types.ChunkOffset{0, rows - 1, 1<<mvccGroupShift + 5} {
			sink += uint64(m.Begin(o)) + uint64(m.End(o))
			if m.Block(o).AllVisible(7) {
				sink++
			}
		}
	}); allocs != 0 || m.MemoryUsage() != directory {
		t.Errorf("reads allocated: %v allocs/run, MemoryUsage %d", allocs, m.MemoryUsage())
	}

	m.StampBegin(rows, 0)
	if arrays, groups := mvccArrays(m); arrays != [3]int{} || groups != 1 || mvccGroupBytes != 1024 || m.MemoryUsage() != directory+mvccGroupBytes {
		t.Errorf("after the stamp: arrays %v in %d groups, MemoryUsage %d", arrays, groups, m.MemoryUsage())
	}
	if !m.Block(rows-1).AllVisible(0) || m.Block(1<<mvccGroupShift).AllVisible(0) {
		t.Error("a stamped block must answer for its rows, a never-written one must not")
	}

	// A row born into the stamped tail block is uncommitted: begin materializes.
	if o := appendRow(); m.Begin(o) != types.MaxCommitID || m.Begin(o-1) != 0 {
		t.Errorf("row born into a loaded block: begin = %d, its neighbour's %d", m.Begin(o), m.Begin(o-1))
	}
	if arrays, _ := mvccArrays(m); arrays != [3]int{beginArrays: 1} {
		t.Errorf("after an append into a loaded block: arrays %v, want one begin array", arrays)
	}
	m.SetEnd(5, 9)
	m.Claim(MvccBlockRows+5, 3)
	m.Release(MvccBlockRows+5, 3)
	if arrays, _ := mvccArrays(m); arrays != [3]int{1, 2, 0} {
		t.Errorf("after one invalidation and one claim: arrays %v, want one begin and two end arrays", arrays)
	}
	if m.Block(5).AllVisible(20) || m.Block(MvccBlockRows+5).AllVisible(20) || !m.Block(2*MvccBlockRows).AllVisible(20) {
		t.Error("only the untouched block may still answer for its rows")
	}
	before := m.MemoryUsage()
	if frozen, above := m.FreezeEnd(5, 8); frozen || above != 9 {
		t.Errorf("FreezeEnd below the invalidation at 9 = %v, %d; want its array kept, above 9", frozen, above)
	}
	for _, o := range []types.ChunkOffset{5, MvccBlockRows + 5} {
		if frozen, _ := m.FreezeEnd(o, 9); !frozen {
			t.Errorf("FreezeEnd(%d) past the mark kept its array", o)
		}
	}
	if arrays, _ := mvccArrays(m); arrays != [3]int{1, 0, 1} || m.MemoryUsage() != before-2*mvccCellsBytes+frozenEndBytes || frozenEndBytes != 40 {
		t.Errorf("after the freezes: arrays %v, MemoryUsage %d -> %d; want the released block's end to cost 0 B and the invalidated one's %d B",
			arrays, before, m.MemoryUsage(), frozenEndBytes)
	}
	if m.End(5) != 9 || m.End(6) != types.MaxCommitID || m.End(MvccBlockRows+5) != types.MaxCommitID || !m.Block(MvccBlockRows+5).AllVisible(20) {
		t.Error("the frozen ends read differently from the arrays they replaced")
	}
	if end, ok, thawed := m.Claim(5, 4); ok || thawed || end != 9 {
		t.Errorf("claim of a frozen invalidated row = %d, %v, thawed %v; want 9, refused, no thaw", end, ok, thawed)
	}
	if _, ok, thawed := m.Claim(6, 4); !ok || !thawed || m.End(5) != 9 || m.End(6) != types.HeldBy(4) {
		t.Errorf("claim of a frozen live row: ok %v, thawed %v, ends %d, %d", ok, thawed, m.End(5), m.End(6))
	}
}
