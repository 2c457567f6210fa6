package pipeline

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hyrise/internal/encoding"
	"hyrise/internal/storage"
	"hyrise/internal/tpch"
	"hyrise/internal/types"
)

// TestDiffPointReadersOnGrowingTail: one session appends rows (autocommit) while
// two others look committed ids up by `id = $1`. The table seals a chunk every
// 64 rows, ids mostly ascend with a swapped pair now and then, so lookups meet
// sealed chunks and the mutable tail, pruned by their zones, binary-searched
// where the view ascends and scanned where it does not. A reader must find
// every id that was committed before its statement began, exactly once and
// with its value, and never an id nobody inserted. Run under -race: the zone
// is written under the chunk lock the readers' views are taken under.
func TestDiffPointReadersOnGrowingTail(t *testing.T) {
	const rows, chunkRows = 1200, 64
	cfg := DefaultConfig()
	sm := storage.NewStorageManager()
	table := storage.NewTable("kv", []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64},
		{Name: "v", Type: types.TypeInt64},
	}, chunkRows, cfg.UseMvcc)
	if err := sm.AddTable(table); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cfg, sm)
	t.Cleanup(e.Close)

	// Insertion order: 0..rows-1 with every 97th pair swapped.
	order := make([]int64, rows)
	for i := range order {
		order[i] = int64(i)
	}
	for i := 50; i+1 < rows; i += 97 {
		order[i], order[i+1] = order[i+1], order[i]
	}
	var committed atomic.Int64 // every id below it is committed
	var wg sync.WaitGroup
	fail := make(chan string, 8)
	report := func(format string, args ...any) {
		select {
		case fail <- fmt.Sprintf(format, args...):
		default:
		}
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer committed.Store(rows)
		s := e.NewSession()
		ins, err := s.PrepareStatement("INSERT INTO kv VALUES ($1, $2)")
		if err != nil {
			report("prepare insert: %v", err)
			return
		}
		sel, err := s.PrepareStatement("SELECT id FROM kv WHERE id = $1")
		if err != nil {
			report("prepare select: %v", err)
			return
		}
		for p, id := range order {
			if _, err := s.ExecutePreparedStatement(context.Background(), ins, []types.Value{types.Int(id), types.Int(3*id + 1)}); err != nil {
				report("insert %d: %v", id, err)
				return
			}
			if id <= int64(p) { // not the first of a swapped pair
				committed.Store(int64(p) + 1)
			}
			if id < int64(p) { // the tail descends now: one lookup however the readers are scheduled
				if _, err := s.ExecutePreparedStatement(context.Background(), sel, []types.Value{types.Int(id)}); err != nil {
					report("select %d: %v", id, err)
				}
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			s := e.NewSession()
			sel, err := s.PrepareStatement("SELECT id, v FROM kv WHERE id = $1")
			if err != nil {
				report("prepare select: %v", err)
				return
			}
			lookup := func(id int64, want bool) {
				res, err := s.ExecutePreparedStatement(context.Background(), sel, []types.Value{types.Int(id)})
				if err != nil {
					report("select %d: %v", id, err)
					return
				}
				got := ValueRows(res.Table)
				if !want && len(got) != 0 {
					report("id %d was never inserted, found %v", id, got)
				}
				if want && (len(got) != 1 || got[0][0].AsInt() != id || got[0][1].AsInt() != 3*id+1) {
					report("committed id %d: rows %v, want [[%d %d]]", id, got, id, 3*id+1)
				}
			}
			for done := false; !done; {
				n := committed.Load()
				done = n == rows
				if n > 0 {
					lookup(rng.Int63n(n), true)
					lookup(n-1, true) // the newest one: in the tail
				}
				lookup(rows+rng.Int63n(rows), false)
			}
			for id := int64(r); id < rows; id += 2 {
				lookup(id, true)
			}
		}(r)
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
	for _, name := range []string{"scan.segments_pruned", "scan.segments_sorted", "scan.segments_unencoded"} {
		if metric(t, e, name) == 0 {
			t.Errorf("%s = 0: the lookups never reached that rung", name)
		}
	}
}

// TestDiffOneSourceOfBounds: after the TPC-H load path has sealed the tables,
// every column of every chunk has a zone, and the bins of the range filter
// are in the zones of the numeric columns and of no other.
func TestDiffOneSourceOfBounds(t *testing.T) {
	sm := storage.NewStorageManager()
	if err := tpch.Generate(sm, tpch.Config{ScaleFactor: 0.002, ChunkSize: 1000, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if err := tpch.EncodeAndFilter(sm, tpch.DefaultEncoding()); err != nil {
		t.Fatal(err)
	}
	binned := 0
	for _, name := range sm.TableNames() {
		table, err := sm.GetTable(name)
		if err != nil {
			t.Fatal(err)
		}
		for ci, c := range table.Chunks() {
			for col := 0; col < c.ColumnCount(); col++ {
				seg := c.GetSegment(types.ColumnID(col))
				z, ok := c.Zone(types.ColumnID(col))
				if spec, _ := encoding.SpecOf(seg); !ok || (c.Size() > 0 && z.Min.IsNull()) {
					t.Errorf("%s chunk %d column %d (%v): zone %+v, present=%v", name, ci, col, spec, z, ok)
				}
				if (z.Bins != nil) != seg.DataType().IsNumeric() {
					t.Errorf("%s chunk %d column %d (%v): bins %v", name, ci, col, seg.DataType(), z.Bins)
				}
				if z.Bins != nil {
					binned++
				}
			}
		}
	}
	if binned == 0 {
		t.Error("no column was given bins")
	}
}
