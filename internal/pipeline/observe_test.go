package pipeline

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hyrise/internal/observe"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// newObserveEngine builds an engine with a populated table large enough that
// execution dominates the stage breakdown.
func newObserveEngine(t *testing.T, cfg Config, rows int) (*Engine, *Session) {
	t.Helper()
	e := NewEngine(cfg, nil)
	t.Cleanup(e.Close)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE obs (id INT NOT NULL, grp INT NOT NULL, label VARCHAR(20))")
	mustExec(t, s, "BEGIN")
	for i := 0; i < rows; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO obs VALUES (%d, %d, 'row%d')", i, i%7, i))
	}
	mustExec(t, s, "COMMIT")
	return e, s
}

func metric(t *testing.T, e *Engine, name string) int64 {
	t.Helper()
	v, ok := e.Metrics().Get(name)
	if !ok {
		t.Fatalf("metric %q not registered", name)
	}
	return v
}

func TestExplainAnnotatedPlan(t *testing.T) {
	_, s := newObserveEngine(t, DefaultConfig(), 500)
	ex, err := s.Explain("SELECT grp, COUNT(*) FROM obs WHERE id >= 100 GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	spans := ex.Trace.OpSpans()
	if len(spans) < 3 {
		t.Fatalf("expected at least GetTable/TableScan/Aggregate spans, got %+v", spans)
	}
	for _, sp := range spans {
		if sp.Duration <= 0 {
			t.Errorf("operator %s has no duration", sp.Name)
		}
		if sp.Calls < 1 {
			t.Errorf("operator %s has no calls", sp.Name)
		}
	}
	// Children complete before parents: the table access must precede the
	// aggregation in completion order.
	seqOf := func(prefix string) int64 {
		for _, sp := range spans {
			if strings.HasPrefix(sp.Name, prefix) {
				return sp.Seq
			}
		}
		t.Fatalf("no %s span in %+v", prefix, spans)
		return 0
	}
	if seqOf("GetTable") >= seqOf("TableScan") {
		t.Error("GetTable should complete before TableScan")
	}
	if seqOf("TableScan") >= seqOf("Aggregate") {
		t.Error("TableScan should complete before Aggregate")
	}

	// Stage timings must be present in pipeline order and account for the
	// bulk of the total wall time.
	var names []string
	for _, st := range ex.Trace.Stages() {
		names = append(names, st.Name)
	}
	want := []string{"parse", "translate", "optimize", "to_pqp", "execute"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("stages = %v, want %v", names, want)
	}
	total, stages := ex.Trace.Total(), ex.Trace.StageTotal()
	if total <= 0 || stages <= 0 {
		t.Fatalf("missing timings: total=%v stages=%v", total, stages)
	}
	if stages > total {
		t.Fatalf("stage sum %v exceeds total %v", stages, total)
	}
	if float64(stages) < 0.5*float64(total) {
		t.Errorf("stage sum %v is under half the total %v — timings unaccounted", stages, total)
	}

	// Rendered text carries the measurements.
	if !strings.Contains(ex.Text, "EXPLAIN ANALYZE") || !strings.Contains(ex.Text, "rows") ||
		!strings.Contains(ex.Text, "time=") {
		t.Errorf("annotated plan text missing measurements:\n%s", ex.Text)
	}
	if strings.Contains(ex.Text, "[not executed]") {
		t.Errorf("plan contains unexecuted operators:\n%s", ex.Text)
	}
}

func TestExplainRowCounts(t *testing.T) {
	_, s := newObserveEngine(t, DefaultConfig(), 200)
	ex, err := s.Explain("SELECT id FROM obs WHERE id < 50")
	if err != nil {
		t.Fatal(err)
	}
	var scan *observe.OpSpan
	for _, sp := range ex.Trace.OpSpans() {
		if strings.HasPrefix(sp.Name, "TableScan") {
			cp := sp
			scan = &cp
		}
	}
	if scan == nil {
		t.Fatalf("no TableScan span: %+v", ex.Trace.OpSpans())
	}
	if scan.RowsIn != 200 {
		t.Errorf("scan RowsIn = %d, want 200", scan.RowsIn)
	}
	if scan.RowsOut != 50 {
		t.Errorf("scan RowsOut = %d, want 50", scan.RowsOut)
	}
}

func TestExplainRejectsDDL(t *testing.T) {
	e := NewEngine(DefaultConfig(), nil)
	defer e.Close()
	if _, err := e.NewSession().Explain("CREATE TABLE x (a INT)"); err == nil {
		t.Fatal("Explain on DDL should fail")
	}
}

func TestTraceSink(t *testing.T) {
	e, s := newObserveEngine(t, DefaultConfig(), 10)
	var traces []*observe.Trace
	e.SetTraceSink(func(tr *observe.Trace) { traces = append(traces, tr) })
	mustExec(t, s, "SELECT * FROM obs WHERE id = 3")
	mustExec(t, s, "SELECT * FROM obs WHERE id = 3")
	e.SetTraceSink(nil)
	mustExec(t, s, "SELECT * FROM obs WHERE id = 3")

	if len(traces) != 2 {
		t.Fatalf("sink received %d traces, want 2 (uninstall must stop delivery)", len(traces))
	}
	if traces[0].CacheHit {
		t.Error("first execution should be a plan-cache miss")
	}
	if !traces[1].CacheHit {
		t.Error("second execution should be a plan-cache hit")
	}
	if len(traces[0].OpSpans()) == 0 {
		t.Error("trace has no operator spans")
	}
	// Cache hits skip the build stages.
	for _, st := range traces[1].Stages() {
		if st.Name == "translate" || st.Name == "optimize" || st.Name == "to_pqp" {
			t.Errorf("cache-hit trace contains build stage %s", st.Name)
		}
	}
}

func TestStatementMetrics(t *testing.T) {
	e, s := newObserveEngine(t, DefaultConfig(), 10)
	base := metric(t, e, "statements_executed")
	baseErr := metric(t, e, "statement_errors")

	mustExec(t, s, "SELECT * FROM obs WHERE id >= 0")
	if _, err := s.ExecuteOne("SELECT * FROM does_not_exist"); err == nil {
		t.Fatal("expected error for unknown table")
	}

	if got := metric(t, e, "statements_executed") - base; got != 2 {
		t.Errorf("statements_executed advanced by %d, want 2", got)
	}
	if got := metric(t, e, "statement_errors") - baseErr; got != 1 {
		t.Errorf("statement_errors advanced by %d, want 1", got)
	}
	if metric(t, e, "rows_scanned") == 0 {
		t.Error("rows_scanned never advanced")
	}
	if metric(t, e, "operators_executed") == 0 {
		t.Error("operators_executed never advanced")
	}
	if v, ok := e.Metrics().Get("query_duration_us"); ok && v != 0 {
		t.Errorf("histogram base name should not resolve via Get, got %d", v)
	}
	if v, ok := e.Metrics().Get("query_duration_us_count"); !ok || v == 0 {
		t.Errorf("expanded histogram name must resolve via Get: value=%d ok=%v", v, ok)
	}
	hist := map[string]int64{}
	for _, m := range e.Metrics().Snapshot() {
		if strings.HasPrefix(m.Name, "query_duration_us") {
			hist[m.Name] = m.Value
		}
	}
	if hist["query_duration_us_count"] == 0 {
		t.Errorf("query duration histogram empty: %v", hist)
	}
}

func TestTransactionMetrics(t *testing.T) {
	e, s := newObserveEngine(t, DefaultConfig(), 5)
	committed := metric(t, e, "transactions_committed")
	aborted := metric(t, e, "transactions_aborted")

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO obs VALUES (100, 0, 'tx')")
	mustExec(t, s, "COMMIT")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO obs VALUES (101, 0, 'rolled back')")
	mustExec(t, s, "ROLLBACK")

	if got := metric(t, e, "transactions_committed") - committed; got < 1 {
		t.Errorf("transactions_committed advanced by %d, want >= 1", got)
	}
	if got := metric(t, e, "transactions_aborted") - aborted; got != 1 {
		t.Errorf("transactions_aborted advanced by %d, want 1", got)
	}
	if metric(t, e, "transactions_started") == 0 {
		t.Error("transactions_started never advanced")
	}
}

func TestPlanCacheMetrics(t *testing.T) {
	e, s := newObserveEngine(t, DefaultConfig(), 5)
	hits := metric(t, e, "plan_cache_hits")
	misses := metric(t, e, "plan_cache_misses")

	mustExec(t, s, "SELECT grp FROM obs WHERE id = 1")
	mustExec(t, s, "SELECT grp FROM obs WHERE id = 1")

	if got := metric(t, e, "plan_cache_misses") - misses; got < 1 {
		t.Errorf("plan_cache_misses advanced by %d, want >= 1", got)
	}
	if got := metric(t, e, "plan_cache_hits") - hits; got != 1 {
		t.Errorf("plan_cache_hits advanced by %d, want 1", got)
	}
	if metric(t, e, "plan_cache_size") == 0 {
		t.Error("plan_cache_size should be non-zero after caching a plan")
	}
}

func TestSchedulerMetrics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseScheduler = true
	cfg.SchedulerWorkers = 2
	e, s := newObserveEngine(t, cfg, 20)
	base := metric(t, e, "scheduler_tasks_run")
	mustExec(t, s, "SELECT * FROM obs WHERE id > 5")
	if got := metric(t, e, "scheduler_tasks_run"); got <= base {
		t.Errorf("scheduler_tasks_run did not advance (%d -> %d)", base, got)
	}
	if metric(t, e, "scheduler_workers") != 2 {
		t.Errorf("scheduler_workers = %d, want 2", metric(t, e, "scheduler_workers"))
	}
}

// TestFreezeWaitsForOpenTransaction: an open BEGIN holds the low-water mark,
// so the blocks committed after it keep their begin arrays; once it commits or
// rolls back, mvcc_bytes falls to the frozen size — block headers and the tail
// block's array — and the metrics say so.
func TestFreezeWaitsForOpenTransaction(t *testing.T) {
	for _, end := range []string{"COMMIT", "ROLLBACK"} {
		t.Run(end, func(t *testing.T) {
			e := NewEngine(DefaultConfig(), nil)
			t.Cleanup(e.Close)
			writer, reader := e.NewSession(), e.NewSession()
			mustExec(t, writer, "CREATE TABLE f (id INT NOT NULL)")
			mustExec(t, reader, "BEGIN")
			mustExec(t, reader, "SELECT count(*) FROM f")
			values := make([]string, 2*storage.MvccBlockRows+88)
			for i := range values {
				values[i] = fmt.Sprintf("(%d)", i)
			}
			mustExec(t, writer, "INSERT INTO f VALUES "+strings.Join(values, ", "))
			footprint := func() (mvcc, lag int64) {
				n, err := strconv.ParseInt(rows(t, writer, "SELECT mvcc_bytes FROM meta_tables WHERE table_name = 'f'")[0][0], 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				lag, _ = e.Metrics().Get("txn_low_water_lag")
				return n, lag
			}
			// Directory (13 groups of a 100 000-row chunk) + one group of headers +
			// three begin arrays, while the reader's snapshot trails one commit.
			if mvcc, lag := footprint(); mvcc != 104+1536+3*2048 || lag != 1 {
				t.Fatalf("pinned: mvcc_bytes %d, txn_low_water_lag %d", mvcc, lag)
			}
			mustExec(t, reader, end)
			mustExec(t, writer, "SELECT 1")
			if mvcc, lag := footprint(); mvcc != 104+1536+2048 || lag != 0 {
				t.Errorf("after %s: mvcc_bytes %d, want the tail block's array alone; txn_low_water_lag %d", end, mvcc, lag)
			}
			if n, _ := e.Metrics().Get("mvcc_frozen_blocks"); n != 2 {
				t.Errorf("mvcc_frozen_blocks = %d, want the two full blocks", n)
			}
			if got := rows(t, reader, "SELECT count(*), sum(id) FROM f"); got[0][0] != "600" || got[0][1] != "179700" {
				t.Errorf("after the freeze: count, sum = %v", got[0])
			}
		})
	}
}

func TestMetaTablesSQL(t *testing.T) {
	_, s := newObserveEngine(t, DefaultConfig(), 25)
	got := rows(t, s, "SELECT table_name, row_count, column_count FROM meta_tables WHERE table_name = 'obs'")
	if len(got) != 1 {
		t.Fatalf("meta_tables rows = %v", got)
	}
	if got[0][1] != "25" || got[0][2] != "3" {
		t.Errorf("meta_tables row = %v, want 25 rows / 3 columns", got[0])
	}

	// Where the memory went: the 25 inserted rows sit in one MVCC block, which
	// holds a begin array (2 KiB) for them; a DELETE adds that block's end and
	// tid arrays and nothing else; the three shares add up to the table's
	// footprint.
	const footprint = "SELECT mvcc_bytes, metadata_bytes, data_bytes FROM meta_tables WHERE table_name = 'obs'"
	before := rows(t, s, footprint)[0]
	mustExec(t, s, "DELETE FROM obs WHERE id = 3")
	after := rows(t, s, footprint)[0]
	num := func(v string) int64 {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if mvcc := num(before[0]); mvcc < 2048 || mvcc >= 2*2048 {
		t.Errorf("mvcc_bytes after 25 inserts = %d, want one 2 KiB array plus block headers", mvcc)
	}
	if grew := num(after[0]) - num(before[0]); grew != 2*2048 || after[1] != before[1] || after[2] != before[2] {
		t.Errorf("a DELETE moved mvcc/metadata/data bytes %v -> %v, want mvcc_bytes + 4096 alone", before, after)
	}
	obs, err := s.engine.StorageManager().GetTable("obs")
	if err != nil {
		t.Fatal(err)
	}
	if data, meta := obs.MemoryUsage(); num(after[0])+num(after[1]) != meta || num(after[2]) != data {
		t.Errorf("meta_tables %v does not add up to MemoryUsage data %d + metadata %d", after, data, meta)
	}

	segs := rows(t, s, "SELECT column_name, encoding FROM meta_segments WHERE table_name = 'obs'")
	if len(segs) != 3 { // one chunk x three columns
		t.Fatalf("meta_segments rows = %v", segs)
	}
	for _, r := range segs {
		if r[1] != "Unencoded" {
			t.Errorf("fresh chunk segment encoding = %v, want Unencoded", r)
		}
	}
	// The zone of each column, as the mutable chunk keeps it: id 0..24 in
	// order, grp cycling through 0..6, label row0 < row1 < row10 < ... < row9
	// (not the insertion order).
	zones := rows(t, s, "SELECT column_name, zone_min, zone_max, ascending FROM meta_segments WHERE table_name = 'obs'")
	want := [][]string{{"id", "0", "24", "yes"}, {"grp", "0", "6", "no"}, {"label", "row0", "row9", "no"}}
	if !reflect.DeepEqual(zones, want) {
		t.Errorf("meta_segments zones = %v, want %v", zones, want)
	}
}

func TestMetaMetricsAdvances(t *testing.T) {
	_, s := newObserveEngine(t, DefaultConfig(), 5)
	read := func() int64 {
		r := rows(t, s, "SELECT value FROM meta_metrics WHERE name = 'statements_executed'")
		if len(r) != 1 {
			t.Fatalf("meta_metrics rows = %v", r)
		}
		v, err := strconv.ParseInt(r[0][0], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	first := read()
	second := read()
	if second <= first {
		t.Fatalf("meta_metrics snapshot did not advance between queries: %d -> %d", first, second)
	}
}

func TestMetaTableNameReserved(t *testing.T) {
	e := NewEngine(DefaultConfig(), nil)
	defer e.Close()
	if _, err := e.NewSession().ExecuteOne("CREATE TABLE meta_metrics (a INT)"); err == nil {
		t.Fatal("creating a table named meta_metrics should fail")
	}
}

func TestDebugEndpointViaConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DebugAddr = "127.0.0.1:0"
	e := NewEngine(cfg, nil)
	defer e.Close()
	if e.DebugAddr() == "" {
		t.Fatal("debug endpoint did not start")
	}
}

// TestSealedChunkFromSQL: the INSERT whose row fills a chunk says on its span
// what it paid for the seal, the counters move with it, and meta_segments shows
// the representation and size the size model gave each column — the cents
// column as frame-of-reference over its integers, value_compression
// 'decimal(2)', both offset vectors bit-packed where that needs fewer bytes.
func TestSealedChunkFromSQL(t *testing.T) {
	e := NewEngine(DefaultConfig(), nil)
	t.Cleanup(e.Close)
	kv := storage.NewTable("kv", []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64}, {Name: "tag", Type: types.TypeString, Nullable: true}, {Name: "val", Type: types.TypeFloat64, Nullable: true},
	}, 100, true)
	if err := e.StorageManager().AddTable(kv); err != nil {
		t.Fatal(err)
	}
	s := e.NewSession()
	insert := func(id int) string { return fmt.Sprintf("INSERT INTO kv VALUES (%d, 'load', %d.25)", id, id*7919%1000) }
	for id := 0; id < 98; id++ {
		mustExec(t, s, insert(id))
	}
	ex, err := s.Explain(insert(98))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ex.Text, "sealed=") || metric(t, e, "storage.chunks_sealed") != 0 {
		t.Fatalf("row 99 of 100 sealed a chunk:\n%s", ex.Text)
	}
	if ex, err = s.Explain(insert(99)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Text, "sealed=1") || !strings.Contains(ex.Text, "seal_ns=") {
		t.Errorf("the INSERT that filled the chunk does not show its seal:\n%s", ex.Text)
	}
	if n, ns := metric(t, e, "storage.chunks_sealed"), metric(t, e, "storage.seal_ns"); n != 1 || ns <= 0 || ns != kv.GetChunk(0).SealNS() {
		t.Errorf("storage.chunks_sealed=%d storage.seal_ns=%d, want 1 chunk and the %d ns it took", n, ns, kv.GetChunk(0).SealNS())
	}
	mustExec(t, s, insert(100)) // opens chunk 1, which stays as it is
	got := rows(t, s, "SELECT chunk_id, column_name, encoding, size_bytes, value_compression, vector_compression FROM meta_segments WHERE table_name = 'kv' ORDER BY chunk_id, column_id")
	want := [][]string{
		// One frame + 100 7-bit offsets: 11 words, a width byte and a
		// block start (byte-aligned: 108).
		{"0", "id", "FrameOfReference", "101", "none", "SIMD-BP128"},
		{"0", "tag", "RunLength", "24", "none", "none"}, // one run: header, 4 bytes, end offset
		// Cents: one frame + 100 17-bit offsets of 100·val in 27 words
		// (byte-aligned: 408).
		{"0", "val", "FrameOfReference", "229", "decimal(2)", "SIMD-BP128"},
		{"1", "id", "Unencoded", "8", "none", "none"}, // the one row so far
		{"1", "tag", "Unencoded", "21", "none", "none"},
		{"1", "val", "Unencoded", "9", "none", "none"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("meta_segments of kv = %v, want %v", got, want)
	}
	if n := len(kv.GetChunk(0).Filters(0)) + len(kv.GetChunk(0).Filters(2)); n != 2 {
		t.Errorf("%d filters on the sealed chunk's numeric columns, want 2", n)
	}
	if ex, err = s.Explain("SELECT val FROM kv WHERE id = 42"); err != nil || !strings.Contains(ex.Text, "sorted_chunks=1") || !strings.Contains(ex.Text, "pruned=1 chunks") {
		t.Errorf("a point read does not binary-search the sealed frame-of-reference column (err %v):\n%s", err, ex.Text)
	}
	if got := rows(t, s, "SELECT id, tag, val FROM kv WHERE id = 42"); !reflect.DeepEqual(got, [][]string{{"42", "load", fmt.Sprint(float64(42*7919%1000) + 0.25)}}) {
		t.Errorf("point read in the sealed chunk = %v", got)
	}
}
