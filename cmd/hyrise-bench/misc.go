package main

import (
	"fmt"
	"runtime"
	"time"

	"hyrise/internal/benchmark"
	"hyrise/internal/concurrency"
	"hyrise/internal/encoding"
	"hyrise/internal/operators"
	"hyrise/internal/pipeline"
	"hyrise/internal/storage"
	"hyrise/internal/tpch"
	"hyrise/internal/types"
)

// jit reproduces the shape of the §2.7 claim that code specialization helps
// most "when complex expressions have to be calculated": a scan+aggregate
// with a heavy arithmetic/CASE expression runs through the tuple-at-a-time
// interpreter, the per-value dynamic access path and the vectorized operator
// pipeline. (The engine has no JIT analog: DESIGN.md S3.)
func (h *harness) jit() {
	h.section("§2.7: specialized (vectorized) vs unspecialized execution")
	fmt.Fprintln(h.out, "   interpreted = tuple-at-a-time row engine, dynamic = per-value virtual calls")
	fmt.Fprintln(h.out, "   (the paper's 22x baseline), vectorized = the operator pipeline.")
	items := []benchmark.Item{
		{Name: "simple sum", SQL: "SELECT sum(v1) FROM numbers"},
		{Name: "filtered sum", SQL: "SELECT sum(v1) FROM numbers WHERE v2 > 500000"},
		{Name: "complex expression", SQL: `SELECT sum(v1 * 0.7 + v2 * 0.3 - (v1 - v2) / 4.0),
			sum(CASE WHEN v1 > v2 THEN v1 * 1.19 ELSE v2 * 0.81 END)
			FROM numbers WHERE v1 + v2 > 100000 AND v1 BETWEEN 1000 AND 990000`},
	}

	// One table under both engines; 1M rows at -sf 0.1.
	n := max(int(h.sf*10_000_000), 10_000)
	numbers := storage.NewTable("numbers", []storage.ColumnDefinition{
		{Name: "v1", Type: types.TypeFloat64}, {Name: "v2", Type: types.TypeFloat64},
	}, storage.DefaultChunkSize, true)
	for i := 0; i < n; i++ {
		must(numbers.AppendRow([]types.Value{types.Float(float64(i % 997 * 1009 % 1000000)), types.Float(float64(i * 31 % 1000000))}))
	}
	concurrency.MarkTableLoaded(numbers)
	sm := storage.NewStorageManager()
	if err := sm.AddTable(numbers); err != nil {
		panic(err)
	}
	cfg := pipeline.DefaultConfig()
	cfg.PlanCacheSize = 0 // measure full pipeline work every run
	vectorized := pipeline.NewEngine(cfg, sm)
	defer vectorized.Close()
	cfg.DynamicAccess = true
	dynamic := pipeline.NewEngine(cfg, sm)
	defer dynamic.Close()
	// The tuple-at-a-time interpreter is the closest analog of the
	// pre-specialization execution the paper's 22x refers to.
	vecMS, dynMS, intMS := h.architectures(items, vectorized, dynamic)
	fmt.Fprintf(h.out, "   (%d rows)\n", n)
	fmt.Fprintf(h.out, "%-22s %14s %13s %15s %11s %11s\n", "query", "interpret(ms)", "dynamic(ms)", "vectorized(ms)", "int/vec", "dyn/vec")
	for i, item := range items {
		fmt.Fprintf(h.out, "%-22s %14.2f %13.2f %15.2f %10.2fx %10.2fx\n",
			item.Name, intMS[i], dynMS[i], vecMS[i], intMS[i]/vecMS[i], dynMS[i]/vecMS[i])
	}
	fmt.Fprintln(h.out)
}

// variant is one row of a table that compares engine configurations on one
// query: a name, the engine and the data it runs on.
type variant struct {
	name string
	cfg  pipeline.Config
	spec encoding.Spec
}

// compare builds each variant's engine over TPC-H at chunkSize in turn, times
// query num on it and prints one row per variant, with the speedup over the
// first.
func (h *harness) compare(num, chunkSize int, variants []variant) {
	fmt.Fprintf(h.out, "%-28s %12s %9s\n", "configuration", "best (ms)", "speedup")
	var baseline float64
	for i, v := range variants {
		engine := must(newTPCHEngine(v.cfg, tpch.Config{ScaleFactor: h.sf, ChunkSize: chunkSize}, &v.spec))
		ms := h.best(engine, tpchItems(h.sf, []int{num})...)
		engine.Close()
		if i == 0 {
			baseline = ms[0]
		}
		fmt.Fprintf(h.out, "%-28s %12.2f %8.2fx\n", v.name, ms[0], baseline/ms[0])
	}
	fmt.Fprintln(h.out)
}

// sched reproduces §2.9: the scaling behaviour with more workers, against
// immediate execution — which is also what one worker runs.
func (h *harness) sched() {
	h.section("§2.9: scheduler cost and multi-threaded scalability")
	fmt.Fprintf(h.out, "   host has %d CPU core(s); one worker runs inline, as without a scheduler, so\n", runtime.NumCPU())
	fmt.Fprintln(h.out, "   the scheduler's own cost shows where the workers outnumber the cores.")
	fmt.Fprintf(h.out, "   TPC-H Q1 at scale factor %g, chunk size 25k (chunk-parallel scan+aggregate inputs)\n", h.sf)
	variants := []variant{{name: "immediate (no scheduler)", cfg: pipeline.DefaultConfig(), spec: dictionary}}
	for _, workers := range []int{2, 4, 8} {
		cfg := pipeline.DefaultConfig()
		cfg.UseScheduler, cfg.SchedulerWorkers = true, workers
		variants = append(variants, variant{fmt.Sprintf("scheduler, %d worker(s)", workers), cfg, dictionary})
	}
	h.compare(1, 25_000, variants)
}

// ablation runs the design choices DESIGN.md calls out as alternatives: TPC-H
// Q6 under every segment encoding (§2.3: "on par with manually optimized
// encoding schemes") and Q12 under both equi-join implementations (§2.1:
// several physical operators per logical operator).
func (h *harness) ablation() {
	h.section("Ablation: TPC-H Q6 per segment encoding (scale factor %g, chunk size 25k, best of %d)", h.sf, h.runs)
	var encodings []variant
	for _, spec := range append([]encoding.Spec{{Encoding: encoding.Unencoded}}, fig3Specs...) {
		encodings = append(encodings, variant{spec.String(), pipeline.DefaultConfig(), spec})
	}
	h.compare(6, 25_000, encodings)
	h.section("Ablation: TPC-H Q12 per join implementation (scale factor %g, best of %d)", h.sf, h.runs)
	sortMerge := pipeline.DefaultConfig()
	sortMerge.JoinImpl = operators.PreferSortMergeJoin
	h.compare(12, storage.DefaultChunkSize, []variant{
		{"hash join", pipeline.DefaultConfig(), dictionary},
		{"sort-merge join", sortMerge, dictionary},
	})
}

// cache reproduces the §2.6 plan cache effect: repeated queries skip
// translation and optimization.
func (h *harness) cache() {
	h.section("§2.6: query plan cache")
	const reps = 200
	const sql = `SELECT o_orderpriority, count(*) FROM orders
		WHERE o_orderdate >= '1993-07-01' AND o_orderdate < '1993-10-01'
		GROUP BY o_orderpriority ORDER BY o_orderpriority`
	off := pipeline.DefaultConfig()
	off.PlanCacheSize = 0
	for _, v := range []variant{{name: "cache on", cfg: pipeline.DefaultConfig()}, {name: "cache off", cfg: off}} {
		engine := must(newTPCHEngine(v.cfg, tpch.Config{ScaleFactor: min(h.sf, 0.01), ChunkSize: 10_000}, &dictionary))
		session := engine.NewSession()
		must(session.ExecuteOne(sql)) // populates the cache; not measured
		var planning time.Duration
		run := benchmark.Run("", nil, []benchmark.Item{{Name: v.name, Do: func() (int, error) {
			res := must(session.ExecuteOne(sql))
			planning += res.Timing.Parse + res.Timing.Translate + res.Timing.Optimize + res.Timing.ToPQP
			return res.Table.RowCount(), nil
		}}}, benchmark.Options{Runs: reps}, nil).Queries[0]
		hits, misses := engine.PlanCacheStats()
		engine.Close()
		fmt.Fprintf(h.out, "%-10s %4d reps: total %8.2f ms, planning share %8.2f ms, cache hits/misses %d/%d\n",
			v.name, reps, run.AvgMillis*reps, float64(planning.Microseconds())/1000, hits, misses)
	}
	fmt.Fprintln(h.out)
}
