package storage

import (
	"math/rand"
	"sync"
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
	mvccCellsBytes = int64(unsafe.Sizeof(mvccCells{}))
	mvccGroupBytes = int64(unsafe.Sizeof(mvccGroup{}))
)

// mvccArrays counts the materialized arrays per column, which MemoryUsage must
// account for and nothing else.
func mvccArrays(m *MvccData) (arrays [2]int, groups int) {
	for gi := range m.groups {
		g := m.groups[gi].Load()
		if g == nil {
			continue
		}
		groups++
		for b := range g {
			for c := range g[b] {
				if g[b][c].cells.Load() != nil {
					arrays[c]++
				}
			}
		}
	}
	return arrays, groups
}

// TestDiffMvccColumns drives one chunk's MVCC columns and the dense reference
// through the same random history — appends (also into blocks a range stamp
// left in scalar form), single stores, claims and releases, range stamps over
// everything born so far — across block and group borders and a partial last
// block, and compares the cells each step could have reached; then, apart,
// N goroutines materialize the same blocks at once.
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
				switch op := rng.Intn(13); {
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
					if end, ok := m.Claim(i, tid); ok != want || uint64(end) != ref.end[i] {
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
					eligible := b != nil && b[mvccBegin].cells.Load() != nil && (hi-lo == MvccBlockRows || len(ref.begin) == capacity)
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
			want := int64(len(m.groups))*8 + int64(groups)*mvccGroupBytes + int64(arrays[0]+arrays[1])*mvccCellsBytes
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
					_, claimed[w] = m.Claim(contended, types.TransactionID(w+1))
					// Even rows are invalidated, odd ones claimed, into the same arrays.
					for i := w; i < 2*MvccBlockRows; i += workers {
						o := types.ChunkOffset(i)
						m.SetBegin(o, types.CommitID(10+i))
						if i%2 == 0 {
							m.SetEnd(o, types.CommitID(20+i))
						} else if _, ok := m.Claim(o, types.TransactionID(w+1)); o != contended && !ok {
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
}

// TestFreezeBeginKeepsWhatReadersSee: a block's begin array goes back to one
// scalar — its largest begin — only once every born row is committed at or
// below the mark; a block rows are still born into never freezes, a sealed
// chunk's partial last block does, and end arrays, claims in them, stay.
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
	if arrays, _ := mvccArrays(m); arrays != [2]int{1, 1} || m.MemoryUsage() != before-mvccCellsBytes {
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
// in a block that holds an invalidated or claimed row. A group's headers are
// two columns of 32 blocks, 1 KiB.
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
	if arrays, groups := mvccArrays(m); arrays != [2]int{} || groups != 1 || mvccGroupBytes != 1024 || m.MemoryUsage() != directory+mvccGroupBytes {
		t.Errorf("after the stamp: arrays %v in %d groups, MemoryUsage %d", arrays, groups, m.MemoryUsage())
	}
	if !m.Block(rows-1).AllVisible(0) || m.Block(1<<mvccGroupShift).AllVisible(0) {
		t.Error("a stamped block must answer for its rows, a never-written one must not")
	}

	// A row born into the stamped tail block is uncommitted: begin materializes.
	if o := appendRow(); m.Begin(o) != types.MaxCommitID || m.Begin(o-1) != 0 {
		t.Errorf("row born into a loaded block: begin = %d, its neighbour's %d", m.Begin(o), m.Begin(o-1))
	}
	if arrays, _ := mvccArrays(m); arrays != [2]int{mvccBegin: 1} {
		t.Errorf("after an append into a loaded block: arrays %v, want one begin array", arrays)
	}
	m.SetEnd(5, 9)
	m.Claim(MvccBlockRows+5, 3)
	m.Release(MvccBlockRows+5, 3)
	if arrays, _ := mvccArrays(m); arrays != [2]int{1, 2} {
		t.Errorf("after one invalidation and one claim: arrays %v, want one begin and two end arrays", arrays)
	}
	if m.Block(5).AllVisible(20) || m.Block(MvccBlockRows+5).AllVisible(20) || !m.Block(2*MvccBlockRows).AllVisible(20) {
		t.Error("only the untouched block may still answer for its rows")
	}
}
