package pipeline

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hyrise/internal/concurrency"
	"hyrise/internal/filter"
	"hyrise/internal/observe"
	"hyrise/internal/operators"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// pruneRows and pruneChunkRows size the pruning fixture: 12 sealed chunks.
const pruneRows, pruneChunkRows = 1200, 100

// pruneRow is row i of the pruning fixture: id ascends (chunks hold disjoint
// ranges), k is clustered in overlapping bands, g cycles through three bands
// chunk by chunk, and c strides over 0..999 inside every chunk, so that its
// zone's bounds span nearly the whole domain everywhere and only the gaps
// between its bins tell which chunks lack a given c.
func pruneRow(i int64) []types.Value {
	return []types.Value{
		types.Int(i),
		types.Int(i/150*100 + i%50),
		types.Int(i/pruneChunkRows%3*100 + i%7),
		types.Int(i * 37 % 1000),
	}
}

// newPruneTable loads the fixture rows into sealed chunks, without bins.
func newPruneTable(t *testing.T, sm *storage.StorageManager, name string, useMvcc bool) *storage.Table {
	t.Helper()
	table := storage.NewTable(name, []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64},
		{Name: "k", Type: types.TypeInt64},
		{Name: "g", Type: types.TypeInt64},
		{Name: "c", Type: types.TypeInt64},
	}, pruneChunkRows, useMvcc)
	for i := int64(0); i < pruneRows; i++ {
		if _, err := table.AppendRow(pruneRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	table.SealTail()
	concurrency.MarkTableLoaded(table)
	if err := sm.AddTable(table); err != nil {
		t.Fatal(err)
	}
	return table
}

// attachPruneFilters gives every column of every chunk its bins.
func attachPruneFilters(t *testing.T, table *storage.Table) {
	t.Helper()
	if err := filter.AttachDefaultFilters(table); err != nil {
		t.Fatal(err)
	}
}

// prunedChunks lists, in order, the chunks the trace's operators say their
// prune rung skipped — by the zone's bounds or its bins.
func prunedChunks(tr *observe.Trace) []int {
	ids := []int{}
	for _, sp := range tr.OpSpans() {
		ids = append(ids, sp.PrunedChunkIDs...)
	}
	sort.Ints(ids)
	return ids
}

// prunedBySpans sums the chunks the trace's operators say they skipped.
func prunedBySpans(tr *observe.Trace) int {
	var n int64
	for _, sp := range tr.OpSpans() {
		n += sp.ChunksPruned
	}
	return int(n)
}

// TestDiffPruningParity pins which chunks a statement skips, shape by shape, to
// testdata/pruning_parity.json — recorded at the commit where an optimizer
// rule still decided it at plan time (there the logged sets were also checked
// to equal the chunk list that rule left on the stored-table node), except
// equals-gap, which the gaps between the bins alone decide. The scan
// ladder's prune rung must skip exactly those chunks, serial or fanned out,
// also for predicates that sit further up the predicate chain than the scan
// that reads the table, and a prepared `k < $1` must skip what its literal
// twin skips. Re-record with
// `go test ./internal/pipeline -run TestDiffPruningParity -update-golden`.
func TestDiffPruningParity(t *testing.T) {
	for _, mode := range []operators.ParallelMode{operators.ParallelAuto, operators.ParallelForce} {
		testPruningParity(t, mode)
	}
}

func testPruningParity(t *testing.T, mode operators.ParallelMode) {
	cfg := DefaultConfig()
	cfg.parallel = mode
	sm := storage.NewStorageManager()
	attachPruneFilters(t, newPruneTable(t, sm, "t", cfg.UseMvcc))
	e := NewEngine(cfg, sm)
	t.Cleanup(e.Close)
	e.SetTraceSink(func(*observe.Trace) {})
	s := e.NewSession()

	shapes := []struct {
		name, sql string
		params    []types.Value
		keep      func(r []types.Value) bool
	}{
		{"less-than", "SELECT count(*) FROM t WHERE k < 300", nil,
			func(r []types.Value) bool { return r[1].I < 300 }},
		{"range-pair", "SELECT count(*) FROM t WHERE id >= 800 AND id < 1000", nil,
			func(r []types.Value) bool { return r[0].I >= 800 && r[0].I < 1000 }},
		{"between", "SELECT count(*) FROM t WHERE id BETWEEN 250 AND 449", nil,
			func(r []types.Value) bool { return r[0].I >= 250 && r[0].I <= 449 }},
		{"equals-gap", "SELECT count(*) FROM t WHERE c = 481", nil,
			func(r []types.Value) bool { return r[3].I == 481 }},
		{"two-columns", "SELECT count(*) FROM t WHERE id >= 400 AND g < 50", nil,
			func(r []types.Value) bool { return r[0].I >= 400 && r[2].I < 50 }},
		{"above-non-simple-scan", "SELECT count(*) FROM t WHERE id < 250 AND k % 2 = 0", nil,
			func(r []types.Value) bool { return r[0].I < 250 && r[1].I%2 == 0 }},
		{"prepared-less-than", "SELECT count(*) FROM t WHERE k < $1", []types.Value{types.Int(300)},
			func(r []types.Value) bool { return r[1].I < 300 }},
	}
	got := make(map[string][]int)
	spans := make(map[string]int)
	for _, sh := range shapes {
		ps, err := s.PrepareStatement(sh.sql)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		res, err := s.ExecutePreparedStatement(context.Background(), ps, sh.params)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		got[sh.name] = prunedChunks(s.LastTrace())
		spans[sh.name] = prunedBySpans(s.LastTrace())
		var want int64
		for i := int64(0); i < pruneRows; i++ {
			if sh.keep(pruneRow(i)) {
				want++
			}
		}
		if n := ValueRows(res.Table)[0][0].AsInt(); n != want {
			t.Errorf("%s: count = %d, want %d", sh.name, n, want)
		}
	}

	var want map[string][]int
	if !goldenJSON(t, "pruning_parity.json", got, &want) {
		return
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d shapes, run produced %d", len(want), len(got))
	}
	for name, w := range want {
		if g := got[name]; !reflect.DeepEqual(g, w) {
			t.Errorf("%s (parallel mode %d): skipped chunks %v, want %v", name, mode, g, w)
		}
		if spans[name] != len(w) {
			t.Errorf("%s: operator spans report %d pruned chunks, want %d", name, spans[name], len(w))
		}
	}
	if !reflect.DeepEqual(got["prepared-less-than"], got["less-than"]) {
		t.Errorf("prepared k < $1 skipped %v, its literal twin %v", got["prepared-less-than"], got["less-than"])
	}
}

// TestDiffPruningSeesLateFilters: a chunk sealed without bins, as
// encoding.EncodeTable leaves one, that gets them from AttachDefaultFilters
// after a statement's plan was cached prunes by them on the statement's next
// execution.
func TestDiffPruningSeesLateFilters(t *testing.T) {
	cfg := DefaultConfig()
	sm := storage.NewStorageManager()
	table := newPruneTable(t, sm, "late", cfg.UseMvcc)
	e := NewEngine(cfg, sm)
	t.Cleanup(e.Close)
	e.SetTraceSink(func(*observe.Trace) {})
	s := e.NewSession()

	const sql = "SELECT count(*) FROM late WHERE id < 250 AND c = 481"
	run := func() *observe.Trace {
		t.Helper()
		if n := ValueRows(mustExec(t, s, sql).Table)[0][0].AsInt(); n != 1 {
			t.Fatalf("count = %d, want 1", n)
		}
		return s.LastTrace()
	}
	// The zones the rows left behind rule out chunks 3-11 (id < 250); c strides
	// over its whole domain in every chunk, so bounds say nothing about it.
	if n := prunedBySpans(run()); n != 9 {
		t.Fatalf("pruned %d chunks of a table without bins, want the 9 its bounds exclude", n)
	}
	if err := filter.AttachDefaultFilters(table); err != nil {
		t.Fatal(err)
	}
	// Of chunks 0-2, chunk 2's c has 481 in a gap between its bins.
	tr := run()
	if !tr.CacheHit {
		t.Fatal("second execution planned again; the case needs the cached plan")
	}
	if got := prunedChunks(tr); !reflect.DeepEqual(got, []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11}) {
		t.Errorf("cached plan pruned chunks %v after the bins were set, want 2-11", got)
	}
}

// TestDiffPruneTelemetry: the rows of pruned chunks count nowhere as
// examined — not in the scan's span, not in rows_scanned — and the chunks show
// up on the TableScan line of EXPLAIN ANALYZE, in scan.segments_pruned and in
// meta_column_scans under the column whose zone ruled them out. The one span
// of the chain also says how many rows each conjunct left and how many
// visibility hid.
func TestDiffPruneTelemetry(t *testing.T) {
	cfg := DefaultConfig()
	sm := storage.NewStorageManager()
	if err := filter.AttachDefaultFilters(newPruneTable(t, sm, "t", cfg.UseMvcc)); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cfg, sm)
	t.Cleanup(e.Close)
	s := e.NewSession()
	// Rows 600-604 (chunk 6) are deleted: the first conjunct matches all five,
	// and visibility hides them before the others run; they would match three.
	// (id + 0 keeps the DELETE's own scan out of meta_column_scans.)
	mustExec(t, s, "DELETE FROM t WHERE id + 0 >= 600 AND id + 0 < 605")

	// id >= 400 alone keeps chunks 4-11; g < 50 keeps every third chunk, so
	// the chain reads chunks 6 and 9 only: 200 rows. (The estimator ranks an IN
	// by the length of its list: ten entries put "k is even" between the two.)
	scanned, pruned := metric(t, e, "rows_scanned"), metric(t, e, "scan.segments_pruned")
	ex, err := s.Explain("SELECT count(*) FROM t WHERE id >= 400 AND g < 50 AND k % 2 IN (0, 2, 4, 6, 8, 10, 12, 14, 16, 18)")
	if err != nil {
		t.Fatal(err)
	}
	if n := ValueRows(ex.Result.Table)[0][0].AsInt(); n != 97 {
		t.Fatalf("count = %d, want 97", n)
	}
	if !strings.Contains(ex.Text, "TableScan((t.g < 50) AND ((t.k % 2) IN (0, 2, 4, 6, 8, 10, 12, 14, 16, 18)) AND (t.id >= 400) AND visible)  [") ||
		!strings.Contains(ex.Text, "in=200 rows, out=97 rows, pruned=10 chunks") {
		t.Errorf("EXPLAIN ANALYZE does not show the chain as one scan reading 200 rows after pruning 10 chunks:\n%s", ex.Text)
	}
	for _, sp := range ex.Trace.OpSpans() {
		if strings.HasPrefix(sp.Name, "GetTable(") && (sp.ChunksPruned != 0 || sp.RowsOut != pruneRows) {
			t.Errorf("%s: pruned = %d, out = %d, want the whole table", sp.Name, sp.ChunksPruned, sp.RowsOut)
		}
		if strings.HasPrefix(sp.Name, "TableScan(") {
			want := map[string]int64{"morsels": 1, "rows_after_1": 200, "rows_after_2": 97, "rows_after_3": 97, "rows_invisible": 5}
			if !reflect.DeepEqual(sp.Attrs, want) {
				t.Errorf("%s: attributes = %v, want %v", sp.Name, sp.Attrs, want)
			}
		}
	}
	// The chain reads its 200 rows once, whatever the number of conjuncts.
	if got := metric(t, e, "rows_scanned") - scanned; got != 200 {
		t.Errorf("rows_scanned moved by %d, want 200", got)
	}
	if got := metric(t, e, "scan.segments_pruned") - pruned; got != 10 {
		t.Errorf("scan.segments_pruned moved by %d, want 10", got)
	}
	res := mustExec(t, s, "SELECT column_name, scans, pruned FROM meta_column_scans WHERE table_name = 't' ORDER BY column_name")
	// The scan asks its own predicate's zone first: g < 50 rules out eight
	// chunks, id >= 400 two of the other four (chunks 0 and 3).
	want := [][]string{{"g", "10", "8"}, {"id", "2", "2"}}
	if got := RowStrings(res.Table); !reflect.DeepEqual(got, want) {
		t.Errorf("meta_column_scans (column, scans, pruned) = %v, want %v", got, want)
	}
}
