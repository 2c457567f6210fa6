package pipeline

import (
	"context"
	"strings"
	"testing"

	"hyrise/internal/concurrency"
	"hyrise/internal/index"
	"hyrise/internal/observe"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// newIndexedEngine serves two tables (id INT, a permutation of 0..n-1,
// v = 10*id) in four sealed chunks each, with an index on id in every chunk
// and statistics cached the way IndexSelectionPlugin leaves them after
// building indexes. No chunk ascends, so the sorted rung takes none away from
// the index. In t chunk k holds the ids that are k modulo 4, shuffled: every
// chunk's zone spans the whole domain. In u chunk k holds ids 500k..500k+499,
// shuffled: the zones tell the chunks apart.
func newIndexedEngine(t *testing.T) (*Engine, *Session) {
	t.Helper()
	const n, chunkRows = 2000, 500
	cfg := DefaultConfig()
	sm := storage.NewStorageManager()
	layouts := map[string]func(i int64) int64{
		"t": func(i int64) int64 { return i%chunkRows*7%chunkRows*4 + i/chunkRows },
		"u": func(i int64) int64 { return i/chunkRows*chunkRows + i%chunkRows*7%chunkRows },
	}
	for name, idOf := range layouts {
		table := storage.NewTable(name, []storage.ColumnDefinition{
			{Name: "id", Type: types.TypeInt64},
			{Name: "v", Type: types.TypeInt64},
		}, chunkRows, cfg.UseMvcc)
		for i := int64(0); i < n; i++ {
			id := idOf(i)
			if _, err := table.AppendRow([]types.Value{types.Int(id), types.Int(10 * id)}); err != nil {
				t.Fatal(err)
			}
		}
		table.SealTail()
		concurrency.MarkTableLoaded(table)
		for _, c := range table.Chunks() {
			if err := index.AddIndexToChunk(c, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := sm.AddTable(table); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(cfg, sm)
	t.Cleanup(e.Close)
	for name := range layouts {
		table, _ := sm.GetTable(name)
		e.Statistics().Get(table)
	}
	return e, e.NewSession()
}

// indexChunksOf sums the index_chunks attribute over the trace's TableScan
// spans.
func indexChunksOf(tr *observe.Trace) int64 {
	var n int64
	for _, sp := range tr.OpSpans() {
		if strings.HasPrefix(sp.Name, "TableScan(") {
			n += sp.Attrs["index_chunks"]
		}
	}
	return n
}

// TestDiffIndexRungThroughSQL is the end-to-end view of the index rung under the
// default configuration (MVCC on): literals that are not of the column's type
// get the scan's answers instead of a truncated probe, EXPLAIN ANALYZE says
// when an index answered, and a prepared `id = $1` probes with the bound
// value — the optimizer-time IndexScan rule could do none of the three.
func TestDiffIndexRungThroughSQL(t *testing.T) {
	e, s := newIndexedEngine(t)

	for sql, want := range map[string]int64{
		"SELECT count(*) FROM t WHERE id = 2.5":                 0,
		"SELECT count(*) FROM t WHERE id < 2.5":                 3,
		"SELECT count(*) FROM t WHERE id BETWEEN 1.5 AND 3.5":   2,
		"SELECT count(*) FROM t WHERE id = 7":                   1,
		"SELECT count(*) FROM t WHERE id BETWEEN 1990 AND 1995": 6,
	} {
		if got := ValueRows(mustExec(t, s, sql).Table)[0][0].AsInt(); got != want {
			t.Errorf("%s = %d, want %d", sql, got, want)
		}
	}

	ex, err := s.Explain("SELECT v FROM t WHERE id = 7")
	if err != nil {
		t.Fatal(err)
	}
	if got := indexChunksOf(ex.Trace); got != 4 || !strings.Contains(ex.Text, "index_chunks=4") {
		t.Errorf("EXPLAIN ANALYZE of id = 7: index_chunks = %d, want 4\n%s", got, ex.Text)
	}
	if ex, err = s.Explain("SELECT v FROM t WHERE id = 2.5"); err != nil {
		t.Fatal(err)
	} else if strings.Contains(ex.Text, "index_chunks") {
		t.Errorf("cross-type literal probed an index:\n%s", ex.Text)
	}

	ps, err := s.PrepareStatement("SELECT v FROM t WHERE id = $1")
	if err != nil {
		t.Fatal(err)
	}
	e.SetTraceSink(func(*observe.Trace) {})
	for _, id := range []int64{7, 1234} {
		before := metric(t, e, "scan.segments_index_probed")
		res, err := s.ExecutePreparedStatement(context.Background(), ps, []types.Value{types.Int(id)})
		if err != nil {
			t.Fatal(err)
		}
		if rows := ValueRows(res.Table); len(rows) != 1 || rows[0][0].AsInt() != 10*id {
			t.Errorf("prepared id = %d: rows = %v, want [[%d]]", id, rows, 10*id)
		}
		if got := indexChunksOf(s.LastTrace()); got != 4 {
			t.Errorf("prepared id = %d: index_chunks = %d, want 4", id, got)
		}
		if got := metric(t, e, "scan.segments_index_probed") - before; got != 4 {
			t.Errorf("prepared id = %d: scan.segments_index_probed moved by %d, want 4", id, got)
		}
	}
	res := mustExec(t, s, "SELECT scans, index FROM meta_column_scans WHERE table_name = 't' AND column_name = 'id'")
	if rows := ValueRows(res.Table); len(rows) != 1 || rows[0][1].AsInt() == 0 || rows[0][1].AsInt() >= rows[0][0].AsInt() {
		t.Errorf("meta_column_scans for t.id = %v, want 0 < index < scans", rows)
	}

	// Pruning and indexes together: on u the zones rule out three chunks and
	// the index answers the fourth.
	if ex, err = s.Explain("SELECT v FROM u WHERE id = 1234"); err != nil {
		t.Fatal(err)
	}
	if got := indexChunksOf(ex.Trace); got != 1 || !strings.Contains(ex.Text, "pruned=3 chunks") {
		t.Errorf("EXPLAIN ANALYZE of id = 1234 on u: index_chunks = %d, want 1 after 3 pruned\n%s", got, ex.Text)
	}
	if rows := ValueRows(ex.Result.Table); len(rows) != 1 || rows[0][0].AsInt() != 12340 {
		t.Errorf("id = 1234: rows = %v, want [[12340]]", rows)
	}
}
