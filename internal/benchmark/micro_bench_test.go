package benchmark

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"hyrise/internal/concurrency"
	"hyrise/internal/encoding"
	"hyrise/internal/expression"
	"hyrise/internal/filter"
	"hyrise/internal/index"
	"hyrise/internal/operators"
	"hyrise/internal/pipeline"
	"hyrise/internal/scheduler"
	"hyrise/internal/statistics"
	"hyrise/internal/storage"
	"hyrise/internal/tpch"
	"hyrise/internal/types"
)

// Microbenchmarks for the parallel execution path. These are the workloads
// the CI benchmark-regression gate tracks (see cmd/benchdiff and the bench
// job in .github/workflows/ci.yml): run with
//
//	go test ./internal/benchmark -bench '^BenchmarkMicro' -benchtime=1x -count=5
//
// Scale is controllable via HYRISE_MICRO_ROWS (join/aggregate input rows,
// default 200000) so the same benchmarks serve quick CI gating and real
// measurement runs.

func microRows() int {
	if s := os.Getenv("HYRISE_MICRO_ROWS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 200_000
}

// microJoinTables builds the join inputs: (key, val), or with composite
// (key, key2, val) where key2 is a function of key, so that joining on both
// key columns finds the pairs joining on key alone does.
func microJoinTables(b *testing.B, n int, composite bool) (*storage.Table, *storage.Table) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	build := func(p string, rows int) *storage.Table {
		defs := []storage.ColumnDefinition{{Name: p + "_key", Type: types.TypeInt64}}
		if composite {
			defs = append(defs, storage.ColumnDefinition{Name: p + "_key2", Type: types.TypeInt64})
		}
		defs = append(defs, storage.ColumnDefinition{Name: p + "_val", Type: types.TypeInt64})
		t := storage.NewTable(p, defs, 65536, false)
		for i := 0; i < rows; i++ {
			key := int64(rng.Intn(rows / 4))
			row := []types.Value{types.Int(key)}
			if composite {
				row = append(row, types.Int(key%16))
			}
			if _, err := t.AppendRow(append(row, types.Int(int64(i)))); err != nil {
				b.Fatal(err)
			}
		}
		t.SealTail()
		return t
	}
	return build("l", n), build("r", n/2)
}

// tableSource feeds a pre-built table into an operator tree.
type tableSource struct{ table *storage.Table }

func (s *tableSource) Name() string                 { return "BenchTable" }
func (s *tableSource) Inputs() []operators.Operator { return nil }
func (s *tableSource) Run(*operators.ExecContext, []*storage.Table) (*storage.Table, error) {
	return s.table, nil
}

func BenchmarkMicroJoin(b *testing.B) {
	n := microRows()
	l, r := microJoinTables(b, n, false)
	l2, r2 := microJoinTables(b, n, true)
	sched := scheduler.New(0) // 0 = one worker per CPU
	defer sched.Shutdown()

	cases := []struct {
		name  string
		mode  operators.ParallelMode
		sched scheduler.Scheduler
		l, r  *storage.Table
		keys  []expression.Expression
	}{
		{"serial", operators.ParallelSerial, nil, l, r, microCols(0)},
		{"radix", operators.ParallelForce, sched, l, r, microCols(0)},
		{"composite", operators.ParallelSerial, nil, l2, r2, microCols(0, 1)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := operators.NewExecContext(nil, tc.sched, nil)
				ctx.Parallel = tc.mode
				join := operators.NewMultiKeyHashJoin(operators.JoinModeInner,
					&tableSource{tc.l}, &tableSource{tc.r}, tc.keys, tc.keys, nil)
				out, err := operators.Execute(join, ctx)
				if err != nil {
					b.Fatal(err)
				}
				if out.RowCount() == 0 {
					b.Fatal("empty join result")
				}
			}
		})
	}
}

// microCols are bound column references to the given input columns.
func microCols(idx ...int) []expression.Expression {
	out := make([]expression.Expression, len(idx))
	for i, c := range idx {
		out[i] = &expression.BoundColumn{Index: c}
	}
	return out
}

// microAggTable builds the aggregate input (g, v) with the group column an
// int or, with stringKeys, that int rendered into a string.
func microAggTable(b *testing.B, n, groups int, stringKeys bool) *storage.Table {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	defs := []storage.ColumnDefinition{
		{Name: "g", Type: types.TypeInt64},
		{Name: "v", Type: types.TypeInt64},
	}
	if stringKeys {
		defs[0].Type = types.TypeString
	}
	t := storage.NewTable("agg", defs, 65536, false)
	for i := 0; i < n; i++ {
		g := types.Int(int64(rng.Intn(groups)))
		if stringKeys {
			g = types.Str(fmt.Sprintf("group-%08d", g.I))
		}
		if _, err := t.AppendRow([]types.Value{
			g,
			types.Int(int64(i)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	t.SealTail()
	return t
}

func BenchmarkMicroAggregate(b *testing.B) {
	n := microRows()
	table := microAggTable(b, n, n/8, false) // group-heavy: the merge dominates
	strTable := microAggTable(b, n, n/8, true)
	sched := scheduler.New(0)
	defer sched.Shutdown()

	g, v := microCols(0)[0], microCols(1)[0]
	countSum := []*expression.Aggregate{{Fn: expression.AggCountStar}, {Fn: expression.AggSum, Arg: v}}
	// MIN and MAX of an int and of a string argument, COUNT of a nullable
	// one: CASE WHEN v % 2 = 0 THEN v END.
	evenV := &expression.Case{Whens: []expression.CaseWhen{{
		When: &expression.Comparison{Op: expression.Eq,
			Left:  &expression.Arithmetic{Op: expression.Mod, Left: v, Right: expression.NewLiteral(types.Int(2))},
			Right: expression.NewLiteral(types.Int(0))},
		Then: v,
	}}}
	minMax := []*expression.Aggregate{
		{Fn: expression.AggMin, Arg: v}, {Fn: expression.AggMax, Arg: v},
		{Fn: expression.AggMin, Arg: g}, {Fn: expression.AggMax, Arg: g},
		{Fn: expression.AggCount, Arg: evenV},
	}
	cases := []struct {
		name  string
		mode  operators.ParallelMode
		sched scheduler.Scheduler
		table *storage.Table
		aggs  []*expression.Aggregate
	}{
		{"serial", operators.ParallelSerial, nil, table, countSum},
		{"parallel", operators.ParallelForce, sched, table, countSum},
		{"string_keys", operators.ParallelSerial, nil, strTable, countSum},
		{"min_max", operators.ParallelSerial, nil, strTable, minMax},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			names := []string{"g"}
			dts := []types.DataType{tc.table.ColumnDefinitions()[0].Type}
			for i, a := range tc.aggs {
				names = append(names, fmt.Sprint("a", i))
				dt, err := expression.InferType(a, func(c int) types.DataType { return tc.table.ColumnDefinitions()[c].Type })
				if err != nil {
					b.Fatal(err)
				}
				dts = append(dts, dt)
			}
			for i := 0; i < b.N; i++ {
				ctx := operators.NewExecContext(nil, tc.sched, nil)
				ctx.Parallel = tc.mode
				agg := operators.NewAggregate(&tableSource{tc.table}, microCols(0), tc.aggs, names, dts)
				out, err := operators.Execute(agg, ctx)
				if err != nil {
					b.Fatal(err)
				}
				if out.RowCount() == 0 {
					b.Fatal("empty aggregate result")
				}
			}
		})
	}
}

// dictionary is Fig. 7's spec: the benchmarks that load TPC-H seal it so, the
// input their baselines were recorded on.
var dictionary = &encoding.Spec{Encoding: encoding.Dictionary, Compression: encoding.FixedSizeByteAligned}

// statementRouteOps is how many executions make one benchmark op: the CI
// gate runs -benchtime=1x, and one ~20 µs statement would be all noise.
const statementRouteOps = 2000

// BenchmarkMicroStatementRoute measures what the statement route adds around
// a small plan on each entry point: a text the cache holds (neither lexed nor
// parsed), a prepared handle, and a named prepared statement. The three cost
// the same since they are one route; the CI gate tracks their ns/op and
// allocs/op, pipeline.TestRouteCacheHitParsesNothing pins the exact allocation
// counts (a parse creeping back into the hit path is +37 per execution, a
// fingerprint +25 — under the gate's 25 %).
func BenchmarkMicroStatementRoute(b *testing.B) {
	e := pipeline.NewEngine(pipeline.DefaultConfig(), nil)
	b.Cleanup(e.Close)
	s := e.NewSession()
	for _, sql := range []string{
		"CREATE TABLE kv (id INT NOT NULL, a INT NOT NULL, b INT NOT NULL, c VARCHAR(10) NOT NULL)",
		"INSERT INTO kv VALUES (1, 6, 1, 'x'), (2, 7, 2, 'y'), (2, 9, 2, 'y'), (3, 8, 3, 'z')",
	} {
		if _, err := s.Execute(sql); err != nil {
			b.Fatal(err)
		}
	}
	const text = "SELECT id, a, b, c FROM kv WHERE id = 2 AND a > 5 ORDER BY a LIMIT 3"
	const parameterized = "SELECT id, a, b, c FROM kv WHERE id = $1 AND a > $2 ORDER BY a LIMIT 3"
	params := []types.Value{types.Int(2), types.Int(5)}
	ps, err := s.PrepareStatement(parameterized)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Prepare("by_id", parameterized); err != nil {
		b.Fatal(err)
	}
	routes := []struct {
		name string
		run  func() (*pipeline.Result, error)
	}{
		{"simple_hit", func() (*pipeline.Result, error) { return s.ExecuteOne(text) }},
		{"prepared", func() (*pipeline.Result, error) {
			return s.ExecutePreparedStatement(context.Background(), ps, params)
		}},
		{"named", func() (*pipeline.Result, error) { return s.ExecutePrepared("by_id", params) }},
	}
	for _, r := range routes {
		b.Run(r.name, func(b *testing.B) {
			if _, err := r.run(); err != nil { // warm: the text is cached from here on
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < statementRouteOps; j++ {
					if res, err := r.run(); err != nil || res.Table.RowCount() != 2 {
						b.Fatalf("rows = %v, err = %v", res, err)
					}
				}
			}
		})
	}
}

// statsAfterWriteOps is how many INSERT+plan pairs make one benchmark op
// (same reason as statementRouteOps): more than one histogram bin's worth of
// the table's 100 000 rows (1/64), so every op contains a fold.
const statsAfterWriteOps = 2000

// BenchmarkMicroStatsAfterWrite measures planning against a table that was
// just written: one single-row INSERT, then the plan (not the execution) of a
// point SELECT with a literal the statement cache has not seen. The SELECT
// has two predicates because ordering predicates is what makes the optimizer
// consult the table's statistics.
func BenchmarkMicroStatsAfterWrite(b *testing.B) {
	const rows = 100_000
	e := pipeline.NewEngine(pipeline.DefaultConfig(), nil)
	b.Cleanup(e.Close)
	s := e.NewSession()
	if _, err := s.Execute("CREATE TABLE kv (id INT NOT NULL, a INT NOT NULL, c VARCHAR(10) NOT NULL)"); err != nil {
		b.Fatal(err)
	}
	for lo := 0; lo < rows; lo += 1000 {
		var sql strings.Builder
		sql.WriteString("INSERT INTO kv VALUES ")
		for id := lo; id < lo+1000; id++ {
			if id > lo {
				sql.WriteByte(',')
			}
			fmt.Fprintf(&sql, "(%d, %d, 'c%d')", id, id%100, id%1000)
		}
		if _, err := s.Execute(sql.String()); err != nil {
			b.Fatal(err)
		}
	}
	next := rows
	pair := func() {
		if _, err := s.ExecuteOne(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d, 'new')", next, next%100)); err != nil {
			b.Fatal(err)
		}
		if _, err := s.PrepareStatement(fmt.Sprintf("SELECT a, c FROM kv WHERE id = %d AND a >= 0", next)); err != nil {
			b.Fatal(err)
		}
		next++
	}
	pair() // the table's first statistics build
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < statsAfterWriteOps; j++ {
			pair()
		}
	}
}

// loadFilterRounds is how many copies of the table get filters in one
// benchmark op (same reason as statementRouteOps): one copy takes ~4 ms.
const loadFilterRounds = 16

// BenchmarkMicroLoad measures the three passes the load → first-plan path
// makes over a table, on lineitem (SF 0.02, 12 chunks of 10 000 rows): encode
// dictionary-encodes the value segments, filters attaches the default pruning
// filters to the encoded chunks, statistics is one engine's first build over
// them. sized_filters and sized_statistics do the same over lineitem sealed by
// the size model (filter.Seal(c, nil)), whose frame-of-reference and unencoded
// columns are summarized by grouping their rows. encode and filters change the
// chunks they are given, so each op gets fresh chunks over the same segments,
// made off the clock.
func BenchmarkMicroLoad(b *testing.B) {
	sm := storage.NewStorageManager()
	if err := tpch.Generate(sm, tpch.Config{ScaleFactor: 0.02, ChunkSize: 10_000, Seed: 42}); err != nil {
		b.Fatal(err)
	}
	raw, err := sm.GetTable("lineitem")
	if err != nil {
		b.Fatal(err)
	}
	fresh := func(t *storage.Table) *storage.Table {
		out := storage.NewTable(t.Name(), t.ColumnDefinitions(), 10_000, false)
		for _, c := range t.Chunks() {
			segs, _ := c.SnapshotSegments()
			shell := storage.NewChunk(segs, nil)
			shell.Finalize()
			out.AppendChunk(shell)
		}
		return out
	}
	encoded, sized := fresh(raw), fresh(raw)
	if err := encoding.EncodeTable(encoded, dictionary, nil); err != nil {
		b.Fatal(err)
	}
	for _, c := range sized.Chunks() {
		filter.Seal(c, nil)
	}
	buildStatistics := func(t *storage.Table) error {
		if ts := statistics.BuildTableStatistics(t, statistics.EqualHeight); int(ts.RowCount) != raw.RowCount() {
			return fmt.Errorf("statistics cover %v of %d rows", ts.RowCount, raw.RowCount())
		}
		return nil
	}
	passes := []struct {
		name   string
		from   *storage.Table
		rounds int
		run    func(*storage.Table) error
	}{
		{"encode", raw, 1, func(t *storage.Table) error { return encoding.EncodeTable(t, dictionary, nil) }},
		{"filters", encoded, loadFilterRounds, filter.AttachDefaultFilters},
		{"statistics", encoded, 1, buildStatistics},
		{"sized_filters", sized, loadFilterRounds, filter.AttachDefaultFilters},
		{"sized_statistics", sized, 1, buildStatistics},
	}
	for _, p := range passes {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tables := make([]*storage.Table, p.rounds)
				for r := range tables {
					tables[r] = fresh(p.from)
				}
				b.StartTimer()
				for _, t := range tables {
					if err := p.run(t); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// pointLookupOps is how many prepared lookups make one benchmark op (same
// reason as statementRouteOps).
const pointLookupOps = 1000

// BenchmarkMicroPointLookup measures a prepared `id = $1` over 200 000 rows in
// 100 000-row chunks, the shape of the pgwire_point workload without the wire:
// ascending loads the ids in order (every chunk's zone excludes the key but
// one, which is binary-searched), shuffled loads a permutation (no zone says
// anything: the control, two typed scans per lookup), and tail keeps the looked-up
// keys in a third, mutable chunk behind 200 000 rows with far larger ids (both
// sealed chunks pruned, the growing tail binary-searched).
func BenchmarkMicroPointLookup(b *testing.B) {
	const rows, tailRows, far = 200_000, 1000, 1_000_000_000
	layouts := []struct {
		name string
		id   func(i int) int64 // id of row i
		keys int               // lookups draw from ids 0..keys-1
	}{
		{"ascending", func(i int) int64 { return int64(i) }, rows},
		{"shuffled", func(i int) int64 { return int64(i) * 100_003 % rows }, rows},
		{"tail", func(i int) int64 {
			if i >= rows {
				return int64(i - rows)
			}
			return far + int64(i)*100_003%rows
		}, tailRows},
	}
	for _, l := range layouts {
		b.Run(l.name, func(b *testing.B) {
			cfg := pipeline.DefaultConfig()
			table := storage.NewTable("kv", []storage.ColumnDefinition{
				{Name: "id", Type: types.TypeInt64},
				{Name: "val", Type: types.TypeFloat64},
			}, storage.DefaultChunkSize, cfg.UseMvcc)
			n := rows
			if l.keys == tailRows {
				n += tailRows
			}
			for i := 0; i < n; i++ {
				if _, err := table.AppendRow([]types.Value{types.Int(l.id(i)), types.Float(float64(i))}); err != nil {
					b.Fatal(err)
				}
			}
			concurrency.MarkTableLoaded(table)
			sm := storage.NewStorageManager()
			if err := sm.AddTable(table); err != nil {
				b.Fatal(err)
			}
			e := pipeline.NewEngine(cfg, sm)
			b.Cleanup(e.Close)
			s := e.NewSession()
			ps, err := s.PrepareStatement("SELECT id, val FROM kv WHERE id = $1")
			if err != nil {
				b.Fatal(err)
			}
			lookup := func(j int) {
				key := int64(j*7919) % int64(l.keys)
				res, err := s.ExecutePreparedStatement(context.Background(), ps, []types.Value{types.Int(key)})
				if err != nil || res.Table.RowCount() != 1 {
					b.Fatalf("id = %d: rows = %v, err = %v", key, res, err)
				}
			}
			lookup(0) // warm: the plan is cached from here on
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < pointLookupOps; j++ {
					lookup(i*pointLookupOps + j)
				}
			}
		})
	}
}

// visibilityScans is how many scans make one benchmark op (same reason as
// statementRouteOps).
const visibilityScans = 20

// BenchmarkMicroVisibility measures the scan's visibility rung alone: `SELECT
// count(*)` over 200 000 rows (no conjunct, so every offset reaches the rung)
// in each state an MVCC block can be in. loaded: bulk-loaded rows, every block
// three scalars, the rung asks no row. inserted: rows a transaction inserted
// and committed; its end froze their begin arrays back to scalars.
// inserted_pinned: the same, while an older transaction stays open, so every
// block keeps its begin array and every row is asked. one_invalidated_per_block:
// loaded rows of which every 256th was deleted, so every block holds an end
// and a tid array — the most a delete can cost the rows around it.
func BenchmarkMicroVisibility(b *testing.B) {
	states := []struct {
		name           string
		loaded, pinned bool
		delete         int // every delete-th row; 0: none
	}{
		{"loaded", true, false, 0},
		{"inserted", false, false, 0},
		{"inserted_pinned", false, true, 0},
		{"one_invalidated_per_block", true, false, storage.MvccBlockRows},
	}
	for _, st := range states {
		b.Run(st.name, func(b *testing.B) {
			n := microRows()
			e := pipeline.NewEngine(pipeline.DefaultConfig(), nil)
			b.Cleanup(e.Close)
			table := storage.NewTable("vis", []storage.ColumnDefinition{{Name: "id", Type: types.TypeInt64}}, storage.DefaultChunkSize, true)
			insert, rows := e.TransactionManager().New(), make([]types.RowID, n)
			for i := range rows {
				rid, err := table.AppendRow([]types.Value{types.Int(int64(i))})
				if err != nil {
					b.Fatal(err)
				}
				if rows[i] = rid; !st.loaded {
					insert.RegisterInsert(table.GetChunk(rid.Chunk), rid.Offset)
				}
			}
			if st.loaded {
				concurrency.MarkTableLoaded(table)
			}
			if st.pinned {
				b.Cleanup(e.TransactionManager().New().Rollback)
			}
			if err := insert.Commit(); err != nil {
				b.Fatal(err)
			}
			want := n
			if st.delete > 0 {
				del := e.TransactionManager().New()
				for i := 0; i < n; i += st.delete {
					if err := del.TryInvalidate(table.GetChunk(rows[i].Chunk), rows[i].Offset); err != nil {
						b.Fatal(err)
					}
					want--
				}
				if err := del.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			if err := e.StorageManager().AddTable(table); err != nil {
				b.Fatal(err)
			}
			s := e.NewSession()
			ps, err := s.PrepareStatement("SELECT count(*) FROM vis")
			if err != nil {
				b.Fatal(err)
			}
			count := func() {
				res, err := s.ExecutePreparedStatement(context.Background(), ps, nil)
				if err != nil || res.Table.GetValue(0, types.RowID{}).I != int64(want) {
					b.Fatalf("count(*) = %v, err = %v, want %d", res, err, want)
				}
			}
			count() // warm: the plan is cached from here on
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < visibilityScans; j++ {
					count()
				}
			}
		})
	}
}

// sealRows is the chunk the seal benchmarks fill: the default chunk size, what
// a table made by CREATE TABLE seals at.
const sealRows = storage.DefaultChunkSize

// commentWords is what TPC-H-style comments are made of.
var commentWords = strings.Fields("furiously sly final ironic pending regular express special " +
	"requests deposits accounts packages instructions theodolites pinto beans foxes ideas " +
	"dependencies platelets asymptotes courts dolphins carefully quickly blithely slyly")

// comment is 4 to 12 of commentWords.
func comment(rng *rand.Rand) string {
	words := make([]string, 4+rng.Intn(9))
	for i := range words {
		words[i] = commentWords[rng.Intn(len(commentWords))]
	}
	return strings.Join(words, " ")
}

// BenchmarkMicroSeal measures what the append that fills a chunk pays per
// column (filter.Seal: summarize, size model, encode, filter) on one
// 100 000-row segment of each shape the model treats differently:
// ascending_int takes the zone's word that the column is sorted (no hashing,
// no sort) and becomes frame-of-reference; constant_string is settled by the
// run count alone; low_cardinality is grouped and becomes a dictionary;
// unique_float is grouped, sorted and stays as it is; comment_string is
// near-unique TPC-H-style text that becomes a dictionary whose values are
// FSST-packed: a symbol table built and every value compressed; decimal_float
// is cents, exact decimals that become frame-of-reference over their integers
// (unique_float fails that test on its first value).
func BenchmarkMicroSeal(b *testing.B) {
	rng := rand.New(rand.NewSource(30))
	column := func(def storage.ColumnDefinition, value func(i int) types.Value) *storage.Table {
		t := storage.NewTable("col", []storage.ColumnDefinition{def}, sealRows, false)
		for i := 0; i < sealRows; i++ {
			if _, err := t.AppendRow([]types.Value{value(i)}); err != nil {
				b.Fatal(err)
			}
		}
		return t
	}
	shapes := []struct {
		name  string
		table *storage.Table
		want  encoding.EncodingType
	}{
		{"ascending_int", column(storage.ColumnDefinition{Name: "id", Type: types.TypeInt64}, func(i int) types.Value { return types.Int(int64(i)) }), encoding.FrameOfReference},
		{"low_cardinality", column(storage.ColumnDefinition{Name: "grp", Type: types.TypeInt64}, func(int) types.Value { return types.Int(int64(rng.Intn(64)) * 1000) }), encoding.Dictionary},
		{"unique_float", column(storage.ColumnDefinition{Name: "val", Type: types.TypeFloat64, Nullable: true}, func(int) types.Value { return types.Float(rng.Float64()) }), encoding.Unencoded},
		{"constant_string", column(storage.ColumnDefinition{Name: "tag", Type: types.TypeString, Nullable: true}, func(int) types.Value { return types.Str("load") }), encoding.RunLength},
		{"comment_string", column(storage.ColumnDefinition{Name: "comment", Type: types.TypeString}, func(int) types.Value { return types.Str(comment(rng)) }), encoding.Dictionary},
		{"decimal_float", column(storage.ColumnDefinition{Name: "price", Type: types.TypeFloat64, Nullable: true}, func(int) types.Value { return types.Float(float64(rng.Intn(100_000)) / 100) }), encoding.FrameOfReference},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// A fresh chunk over the same value segment; taking it in
				// computes its zone, as the appends that filled it would have.
				segs, _ := sh.table.GetChunk(0).SnapshotSegments()
				chunk := storage.NewChunk(segs, nil)
				chunk.Finalize()
				storage.NewTable("col", sh.table.ColumnDefinitions(), sealRows, false).AppendChunk(chunk)
				b.StartTimer()
				filter.Seal(chunk, nil)
				if spec, _ := encoding.SpecOf(chunk.GetSegment(0)); spec.Encoding != sh.want {
					b.Fatalf("sealed as %s, want %s", spec, sh.want)
				}
			}
		})
	}
}

// BenchmarkMicroDictGather measures the gather an operator does on a sealed
// dictionary column: the values at 100 000 shuffled positions of a 100 000-row
// chunk, 25 000 of them distinct, into slices the caller owns — a string
// dictionary (an end offset and a substring of one blob per value) beside an
// int64 one (an array index). Neither allocates per gathered value.
// string_fsst is the same strings sealed by the size model, which packs them:
// the gather decodes each value into one arena it allocates. int64-bp128 is
// the int64 dictionary over bit-packed codes (15 bits where byte-aligned ones
// take 16) gathered at three in four rows in ascending order, as a scan's
// output is: each 64-code group those rows touch is unpacked once.
func BenchmarkMicroDictGather(b *testing.B) {
	rng := rand.New(rand.NewSource(32))
	strs, ints := make([]string, sealRows), make([]int64, sealRows)
	for i := range strs {
		d := rng.Intn(sealRows / 4)
		strs[i] = fmt.Sprintf("deposits %d haggle blithely", d*7919)
		ints[i] = int64(d) * 7919
	}
	pos := make([]types.ChunkOffset, sealRows)
	for i, p := range rng.Perm(sealRows) {
		pos[i] = types.ChunkOffset(p)
	}
	nulls := make([]bool, sealRows)
	b.Run("string", func(b *testing.B) {
		seg, out := encoding.EncodeDictionary(strs, nil, encoding.FixedSizeByteAligned), make([]string, sealRows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seg.Gather(pos, nil, out, nulls)
		}
	})
	b.Run("string_fsst", func(b *testing.B) {
		sealed, _ := encoding.Seal(storage.ValueSegmentFromSlice(strs, nil), false, nil)
		seg, out := sealed.(*encoding.DictionarySegment[string]), make([]string, sealRows)
		if encoding.ValueCompression(seg) != "FSST" {
			b.Fatal("the sealed dictionary is not packed")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seg.Gather(pos, nil, out, nulls)
		}
	})
	b.Run("int64", func(b *testing.B) {
		seg, out := encoding.EncodeDictionary(ints, nil, encoding.FixedSizeByteAligned), make([]int64, sealRows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seg.Gather(pos, nil, out, nulls)
		}
	})
	b.Run("int64-bp128", func(b *testing.B) {
		var ascending []types.ChunkOffset
		for p := range sealRows {
			if p%4 != 3 {
				ascending = append(ascending, types.ChunkOffset(p))
			}
		}
		seg, out := encoding.EncodeDictionary(ints, nil, encoding.BitPacked128), make([]int64, sealRows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seg.Gather(ascending, nil, out, nulls)
		}
	})
}

// BenchmarkMicroAppendSealed measures AppendRow amortized over the seals it
// triggers: 250 000 kv rows (ascending id, constant tag, distinct val — the
// pgwire_point preload) into 100 000-row chunks, on a table registered with an
// engine (two chunks seal inside the loop) beside the same appends on an
// unregistered table (chunks only turn immutable). ns/op ÷ 250 000 is the
// amortized ns per row; the difference between the two is the seals, spread
// over the rows that filled the chunks.
func BenchmarkMicroAppendSealed(b *testing.B) {
	const rows = 250_000
	defs := []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64}, {Name: "tag", Type: types.TypeString, Nullable: true}, {Name: "val", Type: types.TypeFloat64, Nullable: true},
	}
	for _, registered := range []bool{true, false} {
		b.Run(map[bool]string{true: "registered", false: "unregistered"}[registered], func(b *testing.B) {
			e := pipeline.NewEngine(pipeline.DefaultConfig(), nil)
			b.Cleanup(e.Close)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				table := storage.NewTable(fmt.Sprintf("kv%d", i), defs, sealRows, true)
				if registered {
					if err := e.StorageManager().AddTable(table); err != nil {
						b.Fatal(err)
					}
				}
				row := []types.Value{types.Int(0), types.Str("load"), types.Float(0)}
				b.StartTimer()
				for id := 0; id < rows; id++ {
					row[0], row[2] = types.Int(int64(id)), types.Float(float64(id*7919%1_000_003)/1000)
					if _, err := table.AppendRow(row); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if n, _ := e.StorageManager().SealStats(); registered && n != int64(i+1)*(rows/sealRows) {
					b.Fatalf("%d chunks sealed after %d rounds of %d rows", n, i+1, rows)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkMicroIndex measures the group-key index on one 100 000-row chunk of
// unique keys in shuffled order, int64 and string, as each builder fills it:
// the build (index.AddIndexToChunk over the values as they are, and over their
// dictionary), 1 000 `=` probes per op and 100 ranges of 1 000 keys per op.
// The index rung returns a copy of the postings, as every probe here does.
func BenchmarkMicroIndex(b *testing.B) {
	perm := rand.New(rand.NewSource(34)).Perm(sealRows)
	b.Run("int64", func(b *testing.B) {
		benchIndex(b, perm, func(k int) int64 { return int64(k) * 7919 })
	})
	b.Run("string", func(b *testing.B) {
		benchIndex(b, perm, func(k int) string { return fmt.Sprintf("key-%08d", k) })
	})
}

func benchIndex[T types.Ordered](b *testing.B, perm []int, key func(k int) T) {
	vals := make([]T, len(perm))
	for i, k := range perm {
		vals[i] = key(k)
	}
	points, ranges := make([]types.Value, 1000), make([][2]types.Value, 100)
	for i := range points {
		points[i] = types.FromNative(vals[i])
	}
	for r := range ranges {
		ranges[r] = [2]types.Value{types.FromNative(key(r * 997)), types.FromNative(key(r*997 + 999))}
	}
	for _, layout := range []struct {
		name string
		seg  storage.Segment
	}{
		{"values", storage.ValueSegmentFromSlice(vals, nil)},
		{"groupkey", encoding.EncodeDictionary(vals, nil, encoding.FixedSizeByteAligned)},
	} {
		indexed := func(b *testing.B) *storage.Chunk {
			c := storage.NewChunk([]storage.Segment{layout.seg}, nil)
			c.Finalize()
			if err := index.AddIndexToChunk(c, 0); err != nil {
				b.Fatal(err)
			}
			return c
		}
		b.Run(layout.name+"/build", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				indexed(b)
			}
		})
		idx := indexed(b).GetIndex(0)
		b.Run(layout.name+"/equals", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for p := range points {
					if len(idx.Range(&points[p], &points[p], false, false)) != 1 {
						b.Fatalf("%v: not exactly one row", points[p])
					}
				}
			}
		})
		b.Run(layout.name+"/range", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, r := range ranges {
					if n := len(idx.Range(&r[0], &r[1], false, false)); n != 1000 {
						b.Fatalf("range %v: %d rows, want 1000", r, n)
					}
				}
			}
		})
	}
}

// BenchmarkMicroExpression evaluates one expression over a 100 000-row chunk
// of (size INT, phone VARCHAR, nation VARCHAR, volume FLOAT) vectors:
// in_list is Q16's eight-element `size IN (…)`, in_list_strings Q22's
// `substring(phone, 1, 2) IN (…)` over seven country codes, and case Q8's
// `CASE WHEN nation = 'BRAZIL' THEN volume ELSE 0 END`, an INT branch beside
// a FLOAT one.
func BenchmarkMicroExpression(b *testing.B) {
	const rows = 100_000
	rng := rand.New(rand.NewSource(53))
	nations := []string{"BRAZIL", "CANADA", "EGYPT", "FRANCE", "GERMANY"}
	size, phone, nation, volume := make([]int64, rows), make([]string, rows), make([]string, rows), make([]float64, rows)
	for i := range size {
		size[i] = int64(rng.Intn(50) + 1)
		phone[i] = fmt.Sprintf("%d-%03d-%03d-%04d", rng.Intn(25)+10, rng.Intn(1000), rng.Intn(1000), rng.Intn(10000))
		nation[i] = nations[rng.Intn(len(nations))]
		volume[i] = float64(rng.Intn(1_000_000)) / 100
	}
	cols := []*expression.Vector{
		expression.NewIntVector(size, nil), expression.NewStringVector(phone, nil),
		expression.NewStringVector(nation, nil), expression.NewFloatVector(volume, nil),
	}
	col := func(i int) *expression.BoundColumn { return &expression.BoundColumn{Index: i, DT: cols[i].DT} }
	list := func(vals ...types.Value) []expression.Expression {
		out := make([]expression.Expression, len(vals))
		for i, v := range vals {
			out[i] = expression.NewLiteral(v)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		e    expression.Expression
	}{
		{"in_list", &expression.In{Child: col(0), List: list(types.Int(49), types.Int(14), types.Int(23), types.Int(45),
			types.Int(19), types.Int(3), types.Int(36), types.Int(9))}},
		{"in_list_strings", &expression.In{
			Child: &expression.FunctionCall{Name: "substring", Args: []expression.Expression{col(1),
				expression.NewLiteral(types.Int(1)), expression.NewLiteral(types.Int(2))}},
			List: list(types.Str("13"), types.Str("31"), types.Str("23"), types.Str("29"), types.Str("30"),
				types.Str("18"), types.Str("17"))}},
		{"case", &expression.Case{Whens: []expression.CaseWhen{{
			When: &expression.Comparison{Op: expression.Eq, Left: col(2), Right: expression.NewLiteral(types.Str("BRAZIL"))},
			Then: col(3)}}, Else: expression.NewLiteral(types.Int(0))}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ctx := &expression.Context{N: rows, Column: func(i int) (*expression.Vector, error) { return cols[i], nil }}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := expression.Evaluate(tc.e, ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
