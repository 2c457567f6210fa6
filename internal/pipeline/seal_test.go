package pipeline

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hyrise/internal/encoding"
	"hyrise/internal/rowengine"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

var sealDiffDefs = []storage.ColumnDefinition{
	{Name: "id", Type: types.TypeInt64},
	{Name: "i", Type: types.TypeInt64, Nullable: true},
	{Name: "f", Type: types.TypeFloat64, Nullable: true},
	{Name: "s", Type: types.TypeString, Nullable: true},
	{Name: "n", Type: types.TypeInt64, Nullable: true}, // NULL in every row
	{Name: "c", Type: types.TypeInt64},                 // 7 in every row
}

// sealDiff drives one engine table and a model of its visible rows with the
// same statements.
type sealDiff struct {
	t     *testing.T
	rng   *rand.Rand
	e     *Engine
	s     *Session
	table *storage.Table
	live  map[int64][]types.Value
	next  int64
	stmts map[string]*PreparedStatement
}

// awkward draws a row's values from the pools PR 21/22/25 found bugs in.
func (d *sealDiff) awkward() (i, f, s types.Value) {
	ints := []types.Value{types.Int(math.MinInt64), types.Int(math.MaxInt64), types.Int(0), types.Int(-1), types.Int(int64(d.rng.Intn(50))), types.NullValue}
	floats := []types.Value{types.Float(0), types.Float(math.Copysign(0, -1)), types.Float(math.NaN()), types.Float(math.Inf(1)), types.Float(math.Inf(-1)),
		types.Float(float64(d.rng.Intn(40)) / 4), types.Float(2.5), types.NullValue}
	strs := []types.Value{types.Str(""), types.Str("a\x00b"), types.Str("\x00"), types.Str(fmt.Sprintf("tag%02d", d.rng.Intn(12))), types.Str("tag03"), types.NullValue}
	return ints[d.rng.Intn(len(ints))], floats[d.rng.Intn(len(floats))], strs[d.rng.Intn(len(strs))]
}

func (d *sealDiff) exec(sql string, args ...types.Value) {
	d.t.Helper()
	ps := d.stmts[sql]
	if ps == nil {
		var err error
		if ps, err = d.s.PrepareStatement(sql); err != nil {
			d.t.Fatalf("%s: %v", sql, err)
		}
		d.stmts[sql] = ps
	}
	if _, err := d.s.ExecutePreparedStatement(context.Background(), ps, args); err != nil {
		d.t.Fatalf("%s %v: %v", sql, args, err)
	}
}

func (d *sealDiff) insert(keep bool) {
	i, f, s := d.awkward()
	row := []types.Value{types.Int(d.next), i, f, s, types.NullValue, types.Int(7)}
	d.next++
	d.exec("INSERT INTO t VALUES ($1, $2, $3, $4, $5, $6)", row...)
	if keep {
		d.live[row[0].I] = row
	}
}

// step applies one random statement to both sides.
func (d *sealDiff) step() {
	lo := d.rng.Int63n(d.next + 1)
	hi := lo + d.rng.Int63n(6)
	switch p := d.rng.Intn(100); {
	case p < 60:
		d.insert(true)
	case p < 68: // rows that fill chunks and are never visible
		d.exec("BEGIN")
		for k := d.rng.Intn(4); k >= 0; k-- {
			d.insert(false)
		}
		d.exec("ROLLBACK")
	case p < 85:
		i, f, s := d.awkward()
		d.exec("UPDATE t SET i = $1, f = $2, s = $3 WHERE id BETWEEN $4 AND $5", i, f, s, types.Int(lo), types.Int(hi))
		for id := lo; id <= hi; id++ {
			if row, ok := d.live[id]; ok {
				d.live[id] = []types.Value{row[0], i, f, s, row[4], row[5]}
			}
		}
	default:
		d.exec("DELETE FROM t WHERE id BETWEEN $1 AND $2", types.Int(lo), types.Int(hi))
		for id := lo; id <= hi; id++ {
			delete(d.live, id)
		}
	}
}

var sealDiffQueries = []string{
	"SELECT id, i, f, s, n, c FROM t",
	"SELECT id FROM t WHERE id BETWEEN {lo} AND {hi}",
	"SELECT id, i FROM t WHERE i < 0",
	"SELECT id FROM t WHERE i = 9223372036854775807",
	"SELECT id FROM t WHERE i <= -9223372036854775807",
	"SELECT id FROM t WHERE i IS NULL AND id >= {lo}",
	"SELECT id, f FROM t WHERE f > 1.5",
	"SELECT id FROM t WHERE f > -0.5 AND f < 0.5",
	"SELECT id FROM t WHERE i <> 0 AND f < 2.5",
	"SELECT id FROM t WHERE f < -1000000.0 OR f > 9.25",
	"SELECT id FROM t WHERE f = 0.5",
	"SELECT id FROM t WHERE f <= 2.5",
	"SELECT id FROM t WHERE f <> 1.5",
	"SELECT id FROM t WHERE f IN (0.5, 1.5)",
	"SELECT min(f), max(f) FROM t",
	"SELECT f, count(*) FROM t GROUP BY f",
	"SELECT count(DISTINCT f) FROM t",
	"SELECT id FROM t WHERE s = ''",
	"SELECT id FROM t WHERE s = 'tag03' AND id < {hi}",
	"SELECT id FROM t WHERE s >= 'tag' AND f < 5.0",
	"SELECT id FROM t WHERE s LIKE 'a%'",
	"SELECT id FROM t WHERE s IS NULL",
	"SELECT id FROM t WHERE n IS NULL",
	"SELECT id FROM t WHERE n = 1 OR n IS NOT NULL",
	"SELECT id FROM t WHERE c = 7 AND id >= {lo}",
	"SELECT count(*), count(i), count(f), count(n), min(s), max(s), min(i), max(i) FROM t",
	"SELECT s, count(*), min(id) FROM t GROUP BY s",
	"SELECT i, count(*) FROM t WHERE id >= {lo} GROUP BY i",
}

// positiveZero maps -0 to +0: a dictionary keeps one of them for both.
func positiveZero(rows [][]types.Value) [][]types.Value {
	for _, r := range rows {
		for c, v := range r {
			if v.Type == types.TypeFloat64 && v.F == 0 {
				r[c] = types.Float(0)
			}
		}
	}
	return rows
}

// check asks both sides k random questions (always the whole table).
func (d *sealDiff) check(k int, when string) {
	d.t.Helper()
	model := storage.NewTable("t", sealDiffDefs, 0, false)
	for _, row := range d.live {
		if _, err := model.AppendRow(row); err != nil {
			d.t.Fatal(err)
		}
	}
	sm := storage.NewStorageManager()
	if err := sm.AddTable(model); err != nil {
		d.t.Fatal(err)
	}
	oracle := rowengine.NewFromStorage(sm)
	for q := 0; q < k; q++ {
		lo := d.rng.Int63n(d.next + 1)
		sql := sealDiffQueries[0]
		if q > 0 {
			sql = strings.NewReplacer("{lo}", fmt.Sprint(lo), "{hi}", fmt.Sprint(lo+d.rng.Int63n(40))).Replace(sealDiffQueries[d.rng.Intn(len(sealDiffQueries))])
		}
		want, _, err := oracle.Query(sql)
		if err != nil {
			d.t.Fatalf("rowengine %q: %v", sql, err)
		}
		res, err := d.s.ExecuteOne(sql)
		if err != nil {
			d.t.Fatalf("%q: %v", sql, err)
		}
		if got, want := canonical(positiveZero(ValueRows(res.Table))), canonical(positiveZero(want)); !reflect.DeepEqual(got, want) {
			ex, _ := d.s.Explain(sql)
			d.t.Fatalf("%s, %d rows stored: %q returns %d rows, rowengine %d\n got %q\nwant %q\n%s", when, d.table.RowCount(), sql, len(got), len(want), got, want, ex.Text)
		}
	}
}

// TestDiffSealedChunks: a random INSERT/UPDATE/DELETE/ROLLBACK stream over
// awkward values on a registered table with small chunks — which therefore
// seals, encodes and filters chunk after chunk underneath the statements —
// answers every question like the row engine over the visible rows does:
// before a seal, on the statement that pays for it, and after.
func TestDiffSealedChunks(t *testing.T) {
	for _, size := range []struct{ chunk, steps int }{{7, 260}, {64, 900}, {1000, 4200}} {
		t.Run(fmt.Sprint(size.chunk), func(t *testing.T) {
			e := NewEngine(DefaultConfig(), nil)
			t.Cleanup(e.Close)
			table := storage.NewTable("t", sealDiffDefs, size.chunk, true)
			if err := e.StorageManager().AddTable(table); err != nil {
				t.Fatal(err)
			}
			d := &sealDiff{t: t, rng: rand.New(rand.NewSource(int64(size.chunk))), e: e, s: e.NewSession(), table: table,
				live: make(map[int64][]types.Value), stmts: make(map[string]*PreparedStatement)}
			sealed := int64(0)
			for step := 0; step < size.steps; step++ {
				if fill := table.RowCount() % size.chunk; fill >= size.chunk-5 {
					d.check(2, "before a seal")
				}
				d.step()
				if n, _ := e.StorageManager().SealStats(); n != sealed {
					sealed = n
					d.check(4, "after a seal")
				} else if step%(size.chunk/4+1) == 0 {
					d.check(2, "between seals")
				}
			}
			d.check(len(sealDiffQueries), "at the end")

			chunks := table.Chunks()
			if want := int64(len(chunks) - 1); sealed != want || sealed < 3 {
				t.Errorf("%d chunks sealed, want %d (all but the tail of %d chunks) and at least 3", sealed, want, len(chunks))
			}
			seen := make(map[encoding.EncodingType]int)
			for ci, c := range chunks[:len(chunks)-1] {
				if !c.IsImmutable() || c.Size() != size.chunk || c.SealNS() <= 0 {
					t.Fatalf("chunk %d: immutable=%v rows=%d seal_ns=%d, want a full chunk sealed once", ci, c.IsImmutable(), c.Size(), c.SealNS())
				}
				for col := range sealDiffDefs {
					spec, _ := encoding.SpecOf(c.GetSegment(types.ColumnID(col)))
					seen[spec.Encoding]++
				}
				if len(c.Filters(0)) != 1 || len(c.Filters(2)) != 1 {
					t.Errorf("chunk %d: %d/%d filters on id/f, want one each", ci, len(c.Filters(0)), len(c.Filters(2)))
				}
			}
			if seen[encoding.RunLength] == 0 || seen[encoding.Dictionary] == 0 || seen[encoding.FrameOfReference] == 0 {
				t.Errorf("encodings chosen over %d sealed chunks: %v — the stream does not reach all three", sealed, seen)
			}
		})
	}
}

// TestDiffSealConcurrentReaders is htap_ingest's assertion in miniature, for
// the race detector: one writer commits ten-row statements into 64-row chunks,
// sealing one every six or seven statements, while readers aggregate the
// table. A reader never sees part of a statement, a shrinking table, or a sum
// that disagrees with its count.
func TestDiffSealConcurrentReaders(t *testing.T) {
	e := NewEngine(DefaultConfig(), nil)
	t.Cleanup(e.Close)
	table := storage.NewTable("ev", []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64}, {Name: "k", Type: types.TypeInt64}, {Name: "v", Type: types.TypeFloat64},
	}, 64, true)
	if err := e.StorageManager().AddTable(table); err != nil {
		t.Fatal(err)
	}
	const batches, batch, readers = 150, 10, 3
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := e.NewSession()
			sql := []string{"SELECT count(*), sum(v) FROM ev WHERE k < 5", "SELECT count(*), sum(v) FROM ev"}[r%2]
			per := int64([]int{batch / 2, batch}[r%2])
			last := int64(0)
			for stop := false; !stop; {
				select {
				case <-done:
					stop = true // one more pass, over the finished table
				default:
				}
				res, err := s.ExecuteOne(sql)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				row := ValueRows(res.Table)[0]
				count, sum := row[0].I, row[1].AsFloat()
				if count%per != 0 || count < last || (count > 0 && sum != float64(count)) {
					t.Errorf("reader %d: count=%d sum=%v after count=%d: torn read", r, count, sum, last)
					return
				}
				last = count
			}
			if last != batches*per {
				t.Errorf("reader %d: final count %d, want %d", r, last, batches*per)
			}
		}(r)
	}
	w := e.NewSession()
	for b := 0; b < batches; b++ {
		sql := "INSERT INTO ev VALUES "
		for i := 0; i < batch; i++ {
			id := b*batch + i
			sql += fmt.Sprintf("%s(%d, %d, 1.0)", []string{"", ", "}[min(i, 1)], id, id%batch)
		}
		mustExec(t, w, sql)
	}
	close(done)
	wg.Wait()
	if n, _ := e.StorageManager().SealStats(); n != batches*batch/64 {
		t.Errorf("%d chunks sealed, want %d", n, batches*batch/64)
	}
}
