package pipeline

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hyrise/internal/concurrency"
	"hyrise/internal/encoding"
	"hyrise/internal/filter"
	"hyrise/internal/index"
	"hyrise/internal/operators"
	"hyrise/internal/rowengine"
	"hyrise/internal/storage"
	"hyrise/internal/tpch"
	"hyrise/internal/types"
)

// chainRows is the fixture of the chain differential: a ascends from one
// 128-row chunk to the next and is shuffled inside a chunk (the zones prune, an
// index on it is selective, and no full chunk can be binary-searched — b's
// first chunk and the four-row last chunk can), b has few values in runs, c
// and s hold NULLs.
func chainRows() [][]types.Value {
	rng := rand.New(rand.NewSource(23))
	rows := make([][]types.Value, 900)
	for i := range rows {
		c, s := types.Float(float64(rng.Intn(40))/4), types.Str(fmt.Sprintf("tag%02d", rng.Intn(12)))
		if rng.Intn(8) == 0 {
			c = types.NullValue
		}
		if rng.Intn(11) == 0 {
			s = types.NullValue
		}
		a := i/128*128 + i%128*37%128
		rows[i] = []types.Value{types.Int(int64(a)), types.Int(int64(i / 30 % 9)), c, s}
	}
	return rows
}

// newChainTable loads chainRows into sealed 128-row chunks of table t.
func newChainTable(t *testing.T, useMvcc bool) *storage.Table {
	t.Helper()
	table := storage.NewTable("t", []storage.ColumnDefinition{
		{Name: "a", Type: types.TypeInt64},
		{Name: "b", Type: types.TypeInt64},
		{Name: "c", Type: types.TypeFloat64, Nullable: true},
		{Name: "s", Type: types.TypeString, Nullable: true},
	}, 128, useMvcc)
	for _, r := range chainRows() {
		if _, err := table.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	table.SealTail()
	concurrency.MarkTableLoaded(table)
	return table
}

// chainOracle is the row engine over the same rows.
func chainOracle(t *testing.T) *rowengine.Engine {
	t.Helper()
	sm := storage.NewStorageManager()
	if err := sm.AddTable(newChainTable(t, false)); err != nil {
		t.Fatal(err)
	}
	return rowengine.NewFromStorage(sm)
}

// newChainEngine serves the fixture, encoded by spec, under cfg.
func newChainEngine(t *testing.T, cfg Config, spec encoding.Spec) (*Engine, *storage.Table) {
	t.Helper()
	table := newChainTable(t, cfg.UseMvcc)
	if err := encoding.EncodeTable(table, &spec, nil); err != nil {
		t.Fatal(err)
	}
	sm := storage.NewStorageManager()
	if err := sm.AddTable(table); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cfg, sm)
	t.Cleanup(e.Close)
	return e, table
}

// chainQuery is one random conjunctive chain; args binds its $1, if it has one.
type chainQuery struct {
	sql  string
	args []types.Value
}

// randomChains builds n statements of 1-4 conjuncts each, mixing predicates the
// ladder answers (`column OP literal`), ones only the evaluator can (arithmetic,
// IN, LIKE, column against column), a parameterized one, and ones that are NULL
// for some rows.
func randomChains(n int) []chainQuery {
	rng := rand.New(rand.NewSource(5))
	k := func(limit int) int { return rng.Intn(limit) }
	conjuncts := []func() string{
		func() string { return fmt.Sprintf("a < %d", k(900)) },
		func() string { return fmt.Sprintf("a >= %d", k(900)) },
		func() string { return fmt.Sprintf("a = %d", k(900)) },
		func() string { return fmt.Sprintf("a BETWEEN %d AND %d", k(450), 450+k(450)) },
		func() string { return fmt.Sprintf("b = %d", k(9)) },
		func() string { return fmt.Sprintf("b <> %d", k(9)) },
		func() string { return fmt.Sprintf("c > %d.5", k(10)) },
		func() string { return "c IS NULL" },
		func() string { return "s IS NOT NULL" },
		func() string { return fmt.Sprintf("s = 'tag%02d'", k(12)) },
		func() string { return fmt.Sprintf("a + b > %d", k(900)) },
		func() string { return fmt.Sprintf("a %% 7 = %d", k(7)) },
		func() string { return fmt.Sprintf("b IN (%d, %d, %d)", k(9), k(9), k(9)) },
		func() string { return fmt.Sprintf("s LIKE 'tag%d%%'", k(2)) },
		func() string { return "c * 2 < b" },
		func() string { return fmt.Sprintf("NOT (c < %d)", k(10)) },
	}
	params := []struct {
		conjunct string
		arg      func() types.Value
	}{
		{"a < $1", func() types.Value { return types.Int(int64(k(900))) }},
		{"b = $1", func() types.Value { return types.Int(int64(k(9))) }},
		{"s = $1", func() types.Value { return types.Str(fmt.Sprintf("tag%02d", k(12))) }},
		{"a + b > $1", func() types.Value { return types.Int(int64(k(900))) }},
	}
	out := make([]chainQuery, n)
	for i := range out {
		parts := make([]string, 1+k(4))
		for j := range parts {
			parts[j] = conjuncts[k(len(conjuncts))]()
		}
		var q chainQuery
		if k(3) == 0 {
			p := params[k(len(params))]
			parts[k(len(parts))] = p.conjunct
			q.args = []types.Value{p.arg()}
		}
		q.sql = "SELECT a, b, c, s FROM t WHERE " + strings.Join(parts, " AND ")
		out[i] = q
	}
	return out
}

// TestDiffChainScan cross-checks the one-pass chain scan against the
// row engine: random conjunctive chains over every encoding/compression pair,
// with and without filters and indexes to prune and probe by, serial, fanned
// out on a scheduler, and on the dynamic access path. The engine runs with
// MVCC on, so every chain also takes the visibility rung (all rows committed).
func TestDiffChainScan(t *testing.T) {
	queries := randomChains(60)
	oracle := chainOracle(t)
	want := make([][]string, len(queries))
	for i, q := range queries {
		rows, _, err := oracle.Query(routeLiteralSQL(q.sql, q.args))
		if err != nil {
			t.Fatalf("rowengine %q: %v", q.sql, err)
		}
		want[i] = canonical(rows)
	}

	specs := []encoding.Spec{
		{Encoding: encoding.Unencoded},
		{Encoding: encoding.Dictionary, Compression: encoding.FixedSizeByteAligned},
		{Encoding: encoding.Dictionary, Compression: encoding.BitPacked128},
		{Encoding: encoding.RunLength},
		{Encoding: encoding.FrameOfReference, Compression: encoding.FixedSizeByteAligned},
		{Encoding: encoding.FrameOfReference, Compression: encoding.BitPacked128},
	}
	variants := map[string]func(*Config){
		"serial": func(cfg *Config) { cfg.parallel = operators.ParallelSerial },
		"forced": func(cfg *Config) {
			cfg.parallel = operators.ParallelForce
			cfg.UseScheduler, cfg.SchedulerWorkers = true, 4
		},
		"dynamic": func(cfg *Config) { cfg.DynamicAccess = true },
	}
	for _, spec := range specs {
		for _, attached := range []bool{false, true} {
			for variant, set := range variants {
				t.Run(fmt.Sprintf("%s/attached=%v/%s", spec, attached, variant), func(t *testing.T) {
					cfg := DefaultConfig()
					set(&cfg)
					e, table := newChainEngine(t, cfg, spec)
					if attached {
						if err := filter.AttachDefaultFilters(table); err != nil {
							t.Fatal(err)
						}
						for _, c := range table.Chunks() {
							if err := index.AddIndexToChunk(c, 0); err != nil {
								t.Fatal(err)
							}
						}
						e.Statistics().Get(table) // the index rung opens on an estimate
					}
					s := e.NewSession()
					for i, q := range queries {
						ps, err := s.PrepareStatement(q.sql)
						if err != nil {
							t.Fatalf("%q: %v", q.sql, err)
						}
						res, err := s.ExecutePreparedStatement(context.Background(), ps, q.args)
						if err != nil {
							t.Fatalf("%q %v: %v", q.sql, q.args, err)
						}
						if got := canonical(ValueRows(res.Table)); !reflect.DeepEqual(got, want[i]) {
							t.Errorf("%q %v: %d rows, rowengine %d rows", q.sql, q.args, len(got), len(want[i]))
						}
					}
					if attached && !cfg.DynamicAccess && (metric(t, e, "scan.segments_pruned") == 0 || metric(t, e, "scan.segments_sorted") == 0 || metric(t, e, "scan.segments_index_probed") == 0) {
						t.Error("no chain pruned a chunk, searched a sorted one or probed an index: the matrix does not reach those rungs")
					}
				})
			}
		}
	}
}

// TestUngroupedAggregateOverEncodedTable: with MVCC off an unfiltered,
// ungrouped aggregate reads the stored table's encoded segments directly — the
// one plan shape a per-encoding COUNT/SUM/MIN/MAX fast path used to answer.
// The generic aggregation gives the same answers over every encoding.
func TestUngroupedAggregateOverEncodedTable(t *testing.T) {
	const sql = "SELECT count(*), count(c), sum(a), avg(c), min(s), max(b) FROM t"
	rows, _, err := chainOracle(t).Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	want := canonical(rows)
	for _, enc := range []encoding.EncodingType{encoding.Unencoded, encoding.Dictionary, encoding.RunLength, encoding.FrameOfReference} {
		cfg := DefaultConfig()
		cfg.UseMvcc = false
		e, _ := newChainEngine(t, cfg, encoding.Spec{Encoding: enc})
		_, _, physical, err := e.Plans(sql)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(physical, "Aggregate(") || !strings.HasSuffix(strings.TrimSpace(physical), "GetTable(t)") || strings.Contains(physical, "TableScan(") {
			t.Fatalf("%s: the aggregate does not read the stored table directly:\n%s", enc, physical)
		}
		if got := canonical(ValueRows(mustExec(t, e.NewSession(), sql).Table)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %v, rowengine %v", enc, got, want)
		}
	}
}

// TestDiffChainScanVisibility is the MVCC matrix of the scan's visibility rung,
// through SQL, serial and fanned out: what a transaction wrote itself, what
// others have not committed, and what they committed after its snapshot.
func TestDiffChainScanVisibility(t *testing.T) {
	for _, mode := range []operators.ParallelMode{operators.ParallelSerial, operators.ParallelForce} {
		cfg := DefaultConfig()
		cfg.parallel = mode
		e := NewEngine(cfg, nil)
		t.Cleanup(e.Close)
		reader, writer, fresh := e.NewSession(), e.NewSession(), e.NewSession()
		mustExec(t, reader, "CREATE TABLE mv (id INT NOT NULL, v INT NOT NULL)")
		mustExec(t, reader, "INSERT INTO mv VALUES (0, 10), (1, 11), (2, 12), (3, 13)")
		ids := func(s *Session) string {
			t.Helper()
			return strings.Join(flatRows(t, s, "SELECT id FROM mv WHERE id >= 0 AND v % 100 >= 10 ORDER BY id"), " ")
		}

		mustExec(t, reader, "BEGIN")
		mustExec(t, reader, "INSERT INTO mv VALUES (100, 10)")
		mustExec(t, reader, "DELETE FROM mv WHERE id = 1")
		if got := ids(reader); got != "0 2 3 100" {
			t.Errorf("mode %d: reader sees %q, want its own insert and not the row it deleted", mode, got)
		}
		if got := ids(fresh); got != "0 1 2 3" {
			t.Errorf("mode %d: another session sees %q of the reader's uncommitted writes", mode, got)
		}

		mustExec(t, writer, "BEGIN")
		mustExec(t, writer, "INSERT INTO mv VALUES (200, 10)")
		mustExec(t, writer, "DELETE FROM mv WHERE id = 2")
		if got := ids(reader); got != "0 2 3 100" {
			t.Errorf("mode %d: reader sees %q while another transaction's insert and delete are uncommitted", mode, got)
		}
		mustExec(t, writer, "COMMIT")
		if got := ids(reader); got != "0 2 3 100" {
			t.Errorf("mode %d: reader sees %q after a commit later than its snapshot", mode, got)
		}
		if got := ids(fresh); got != "0 1 3 200" {
			t.Errorf("mode %d: a new snapshot sees %q after the writer's commit", mode, got)
		}
		mustExec(t, reader, "ROLLBACK")
		if got := ids(reader); got != "0 1 3 200" {
			t.Errorf("mode %d: after its rollback the reader sees %q", mode, got)
		}
	}
}

// TestDiffChainScanReaderBesideWriter: a writer commits pairs of rows that cancel
// out while a reader loops over a fanned-out chain scan; every snapshot must
// hold whole transactions only. Run under -race this is the check that the
// visibility rung reads MVCC columns safely beside commits.
func TestDiffChainScanReaderBesideWriter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.parallel = operators.ParallelForce
	cfg.UseScheduler, cfg.SchedulerWorkers = true, 4
	e := NewEngine(cfg, nil)
	t.Cleanup(e.Close)
	writer, reader := e.NewSession(), e.NewSession()
	mustExec(t, writer, "CREATE TABLE pairs (id INT NOT NULL, v INT NOT NULL)")

	const commits = 200
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < commits; i++ {
			for _, sql := range []string{"BEGIN", fmt.Sprintf("INSERT INTO pairs VALUES (%d, %d)", i, i+1), fmt.Sprintf("INSERT INTO pairs VALUES (%d, %d)", i, -i-1), "COMMIT"} {
				if _, err := writer.ExecuteOne(sql); err != nil {
					t.Errorf("writer %q: %v", sql, err)
					return
				}
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false // one more read, of the final state
		default:
		}
		row := ValueRows(mustExec(t, reader, "SELECT count(*), sum(v) FROM pairs WHERE id >= 0 AND v <> 0").Table)[0]
		if n := row[0].AsInt(); n%2 != 0 || (n > 0 && row[1].AsInt() != 0) {
			t.Fatalf("reader saw %d rows summing to %v: half a transaction", n, row[1])
		}
	}
	wg.Wait()
	if got := flatRows(t, reader, "SELECT count(*) FROM pairs"); got[0] != fmt.Sprint(2*commits) {
		t.Errorf("final count = %v, want %d", got, 2*commits)
	}
}

// TestDiffTPCHChainPlanShape pins what a predicate chain is in the 22 TPC-H
// physical plans (SF 0.01): one TableScan per chain, carrying the chain's
// conjuncts and its visibility check, directly over the GetTable it reads.
// There is no Validate operator and no scan stacked on a scan; the three scans
// left over are the HAVING filters over Aggregates in Q11, Q15 and Q18.
func TestDiffTPCHChainPlanShape(t *testing.T) {
	e, _ := newTPCHParityEngine(t)
	queries := tpch.Queries(tpchParitySF)
	operatorCount, scans, chainScans, tables := 0, 0, 0, 0
	for _, num := range tpch.QueryNumbers() {
		_, _, physical, err := e.Plans(queries[num])
		if err != nil {
			t.Fatalf("Q%d: %v", num, err)
		}
		lines := strings.Split(strings.TrimRight(physical, "\n"), "\n")
		operatorCount += len(lines)
		for i, line := range lines {
			op := strings.TrimSpace(line)
			switch {
			case op == "Validate" || strings.HasPrefix(op, "Validate("):
				t.Errorf("Q%d: plan holds a Validate operator:\n%s", num, physical)
			case strings.HasPrefix(op, "TableScan("):
				scans++
				child := strings.TrimSpace(lines[i+1])
				if strings.HasPrefix(child, "TableScan(") {
					t.Errorf("Q%d: %s is stacked on %s", num, op, child)
				}
				if strings.HasPrefix(child, "GetTable(") {
					chainScans++
					if !strings.HasSuffix(op, "visible)") {
						t.Errorf("Q%d: %s reads a stored table without checking visibility", num, op)
					}
				}
			case strings.HasPrefix(op, "GetTable("):
				tables++
				if parent := strings.TrimSpace(lines[i-1]); !strings.HasPrefix(parent, "TableScan(") {
					t.Errorf("Q%d: %s is read by %s, not by a chain scan", num, op, parent)
				}
			}
		}
	}
	if operatorCount != 326 || scans != 85 || chainScans != 82 || tables != 82 {
		t.Errorf("22 TPC-H plans: %d operators, %d TableScans, %d of them over the %d GetTables; want 326, 85, 82, 82",
			operatorCount, scans, chainScans, tables)
	}
}
