package operators

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hyrise/internal/expression"
	"hyrise/internal/scheduler"
	"hyrise/internal/statistics"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Differential harness for the morsel-parallel scan and parallel sort: every
// dataset × predicate/keys combination runs once serially and once with the
// mode forced parallel on a real multi-worker scheduler, and the outputs
// must be bit-for-bit equal — same rows, same order. Run under -race this
// also shakes out data races in the disjoint-slot writes.

// parallelCtx builds an ExecContext forced onto the parallel path with tiny
// morsels, so even small fixtures fan out across several tasks.
func parallelCtx(sm *storage.StorageManager, sched *scheduler.Scheduler) *ExecContext {
	ctx := NewExecContext(sm, sched, nil)
	ctx.Parallel = ParallelForce
	ctx.morselRows = 7 // coalesces a few 5-row chunks per morsel
	return ctx
}

// diffTables builds the adversarial datasets: empty, single-chunk,
// duplicate-heavy, an all-NULL column, and row counts landing exactly on
// chunk boundaries.
func diffTables(t *testing.T, sm *storage.StorageManager) []*storage.Table {
	t.Helper()
	defs := []storage.ColumnDefinition{
		{Name: "k", Type: types.TypeInt64},
		{Name: "s", Type: types.TypeString, Nullable: true},
		{Name: "allnull", Type: types.TypeFloat64, Nullable: true},
		{Name: "f", Type: types.TypeFloat64},
	}
	// f cycles through NaN, both zeros and repeats, so float ties and the
	// NaN-first rule meet at run edges.
	floats := []float64{math.NaN(), 0, 1.5, math.Copysign(0, -1), -2, 1.5, math.NaN()}
	rng := rand.New(rand.NewSource(7))
	build := func(name string, chunkSize, n int, dupes int) *storage.Table {
		rows := make([][]types.Value, n)
		for i := 0; i < n; i++ {
			s := types.Value(types.Str(fmt.Sprintf("s%02d", i%13)))
			if i%5 == 0 {
				s = types.NullValue
			}
			k := int64(i)
			if dupes > 0 {
				k = int64(rng.Intn(dupes))
			}
			rows[i] = []types.Value{types.Int(k), s, types.NullValue, types.Float(floats[i%len(floats)])}
		}
		return makeTable(t, sm, name, defs, chunkSize, rows)
	}
	return []*storage.Table{
		build("empty", 5, 0, 0),
		build("single_chunk", 100, 4, 0),
		build("dupe_heavy", 5, 200, 3),   // 40 chunks, 3 distinct keys
		build("boundary", 5, 100, 0),     // rows land exactly on chunk edges
		build("many_chunks", 5, 203, 17), // ragged tail chunk
	}
}

// scanPredicates are predicate chains: the conjuncts of one TableScan, in
// execution order.
func scanPredicates() map[string][]expression.Expression {
	lt := &expression.Comparison{Op: expression.Lt, Left: col(0, types.TypeInt64), Right: lit(types.Int(50))}
	isNull := &expression.IsNull{Child: col(1, types.TypeString)}
	complex := eq(
		&expression.Arithmetic{Op: expression.Mod, Left: col(0, types.TypeInt64), Right: lit(types.Int(7))},
		lit(types.Int(2)),
	) // not a simple predicate: exercises the fallback ladder per morsel
	return map[string][]expression.Expression{
		"eq":            {eq(col(0, types.TypeInt64), lit(types.Int(1)))},
		"between_edge":  {&expression.Between{Child: col(0, types.TypeInt64), Lo: lit(types.Int(4)), Hi: lit(types.Int(10))}}, // spans a 5-row chunk boundary
		"lt":            {lt},
		"is_null":       {isNull},
		"all_null_col":  {&expression.IsNull{Child: col(2, types.TypeFloat64), Negate: true}}, // matches nothing
		"complex":       {complex},
		"chain":         {lt, complex, isNull}, // ladder, then two conjuncts over the survivors
		"chain_complex": {complex, isNull, lt}, // fallback first
		"chain_empty":   {lt, &expression.IsNull{Child: col(2, types.TypeFloat64), Negate: true}, complex},
	}
}

func TestDiffParallelScanMatchesSerial(t *testing.T) {
	sm := storage.NewStorageManager()
	tables := diffTables(t, sm)
	sched := scheduler.New(4)
	defer sched.Shutdown()

	for _, table := range tables {
		for name, chain := range scanPredicates() {
			t.Run(table.Name()+"/"+name, func(t *testing.T) {
				sctx := NewExecContext(sm, nil, nil)
				sctx.Parallel = ParallelSerial
				// The reference is the chain as a stack of one-conjunct scans,
				// each re-reading the reference table of the one below.
				var stacked Operator = &GetTable{TableName: table.Name()}
				for _, pred := range chain {
					stacked = NewTableScan(stacked, pred)
				}
				want, err := Execute(stacked, sctx)
				if err != nil {
					t.Fatal(err)
				}
				dctx := NewExecContext(sm, nil, nil)
				dctx.DynamicAccess = true
				for mode, ctx := range map[string]*ExecContext{"serial": sctx, "parallel": parallelCtx(sm, sched), "dynamic": dctx} {
					got, err := Execute(NewTableScan(&GetTable{TableName: table.Name()}, chain...), ctx)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(tableRows(want), tableRows(got)) {
						t.Fatalf("%s chain scan diverged from the stacked scans:\nstacked: %v\nchain: %v",
							mode, tableRows(want), tableRows(got))
					}
				}
			})
		}
	}
}

// TestDiffParallelSortMatchesSerial runs every sort with one run and with
// 2, 3, 5 and 8 runs — odd run counts leave a run out of a merge round, and
// runs differ in length — and wants the one-run order row for row.
func TestDiffParallelSortMatchesSerial(t *testing.T) {
	sm := storage.NewStorageManager()
	tables := diffTables(t, sm)

	keySets := map[string][]SortKey{
		// Heavy ties: stability is the whole test — equal keys must keep
		// their original relative order, exactly like one stable sort.
		"dupes_asc":  {{Expr: col(0, types.TypeInt64)}},
		"dupes_desc": {{Expr: col(0, types.TypeInt64), Desc: true}},
		"two_keys":   {{Expr: col(1, types.TypeString)}, {Expr: col(0, types.TypeInt64), Desc: true}},
		"null_key":   {{Expr: col(2, types.TypeFloat64)}, {Expr: col(0, types.TypeInt64)}},
		"nan_zeros":  {{Expr: col(3, types.TypeFloat64)}},
		"nan_desc":   {{Expr: col(3, types.TypeFloat64), Desc: true}, {Expr: col(1, types.TypeString)}},
		"all_equal":  {{Expr: lit(types.Int(7))}},
	}
	var scheds []*scheduler.Scheduler
	for _, workers := range []int{2, 3, 5, 8} {
		sched := scheduler.New(workers)
		defer sched.Shutdown()
		scheds = append(scheds, sched)
	}
	for _, table := range tables {
		for name, keys := range keySets {
			t.Run(table.Name()+"/"+name, func(t *testing.T) {
				sctx := NewExecContext(sm, nil, nil)
				sctx.Parallel = ParallelSerial
				serial, err := Execute(NewSort(&GetTable{TableName: table.Name()}, keys), sctx)
				if err != nil {
					t.Fatal(err)
				}
				for _, sched := range scheds {
					par, err := Execute(NewSort(&GetTable{TableName: table.Name()}, keys), parallelCtx(sm, sched))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(tableRows(serial), tableRows(par)) {
						t.Fatalf("%d workers: parallel sort diverged from serial:\nserial: %v\nparallel: %v",
							sched.WorkerCount(), tableRows(serial), tableRows(par))
					}
				}
			})
		}
	}
}

// TestDiffParallelScanCancellation cancels a statement while morsel tasks are in
// flight and asserts the scan surfaces the cancellation without deadlocking
// (the test hanging would trip the go test timeout).
func TestDiffParallelScanCancellation(t *testing.T) {
	sm := storage.NewStorageManager()
	table := numbersTable(t, sm, 64, 20_000)
	sched := scheduler.New(4)
	defer sched.Shutdown()
	pred := &expression.Comparison{Op: expression.Ge, Left: col(0, types.TypeInt64), Right: lit(types.Int(0))}

	t.Run("canceled_before_start", func(t *testing.T) {
		cctx, cancel := context.WithCancel(context.Background())
		cancel()
		ctx := parallelCtx(sm, sched)
		ctx.Ctx = cctx
		if _, err := Execute(NewTableScan(&GetTable{TableName: table.Name()}, pred), ctx); err == nil {
			t.Fatal("want cancellation error, got nil")
		}
	})
	t.Run("canceled_mid_flight", func(t *testing.T) {
		for i := 0; i < 10; i++ {
			cctx, cancel := context.WithCancel(context.Background())
			ctx := parallelCtx(sm, sched)
			ctx.Ctx = cctx
			done := make(chan error, 1)
			go func() {
				_, err := Execute(NewTableScan(&GetTable{TableName: table.Name()}, pred), ctx)
				done <- err
			}()
			cancel() // races with morsel dispatch on purpose
			// Completing at all is the assertion; either outcome (finished
			// before the cancel, or canceled) is legal.
			<-done
		}
	})
	t.Run("sort_canceled_before_start", func(t *testing.T) {
		cctx, cancel := context.WithCancel(context.Background())
		cancel()
		ctx := parallelCtx(sm, sched)
		ctx.Ctx = cctx
		if _, err := Execute(NewSort(&GetTable{TableName: table.Name()}, []SortKey{{Expr: col(0, types.TypeInt64)}}), ctx); err == nil {
			t.Fatal("want cancellation error, got nil")
		}
	})
}

// TestDiffDecideParallel pins the one serial-vs-parallel gate: every operator
// flips exactly at its parallelMinRows entry, a missing or single-worker
// scheduler keeps everything serial, and the mode override beats both.
func TestDiffDecideParallel(t *testing.T) {
	sched4 := scheduler.New(4)
	defer sched4.Shutdown()
	sched1 := scheduler.New(1)
	defer sched1.Shutdown()

	ops := map[string]parallelOp{"scan": opScan, "sort": opSort, "join": opJoin, "aggregate_merge": opAggregateMerge}
	wantMin := map[string]int{"scan": 16384, "sort": 32768, "join": 8192, "aggregate_merge": 4096}
	const huge = 1 << 30
	for name, op := range ops {
		threshold := parallelMinRows[op]
		if threshold != wantMin[name] {
			t.Errorf("%s: parallelMinRows = %d, want %d", name, threshold, wantMin[name])
		}
		cases := []struct {
			name  string
			sched *scheduler.Scheduler
			mode  ParallelMode
			est   int
			want  bool
		}{
			{"below_threshold", sched4, ParallelAuto, threshold - 1, false},
			{"at_threshold", sched4, ParallelAuto, threshold, true},
			{"one_worker", sched1, ParallelAuto, huge, false},
			{"nil_scheduler", nil, ParallelAuto, huge, false},
			{"serial_mode", sched4, ParallelSerial, huge, false},
			{"force_mode_nil_scheduler", nil, ParallelForce, 0, true},
			{"force_mode", sched4, ParallelForce, 0, true},
		}
		for _, tc := range cases {
			ctx := NewExecContext(nil, tc.sched, nil)
			ctx.Parallel = tc.mode
			if got := ctx.decideParallel(op, tc.est); got != tc.want {
				t.Errorf("%s/%s: decideParallel(%d) = %v, want %v", name, tc.name, tc.est, got, tc.want)
			}
		}
	}

	// Fan-out: one task per worker, at least 2, the merge rounded up to a
	// power of two and capped.
	sched300 := scheduler.New(300)
	defer sched300.Shutdown()
	sched5 := scheduler.New(5)
	defer sched5.Shutdown()
	for _, tc := range []struct {
		sched          *scheduler.Scheduler
		fanOut, shards int
	}{
		{nil, 2, 2},
		{sched4, 4, 4},
		{sched5, 5, 8},
		{sched300, 300, 64},
	} {
		ctx := NewExecContext(nil, tc.sched, nil)
		if ctx.fanOut() != tc.fanOut || ctx.mergeFanOut() != tc.shards {
			t.Errorf("workers=%d: fanOut/merge = %d/%d, want %d/%d", ctx.Scheduler.WorkerCount(),
				ctx.fanOut(), ctx.mergeFanOut(), tc.fanOut, tc.shards)
		}
	}
	if morselRows != 65536 {
		t.Errorf("morselRows = %d, want 65536", morselRows)
	}
}

// TestDiffScanCost exercises the scan's size estimate: rows × selectivity from
// the statistics cache with the 1/16 floor, not a bare row count — and no
// estimate at all when the decision cannot depend on one.
func TestDiffScanCost(t *testing.T) {
	sm := storage.NewStorageManager()
	table := numbersTable(t, sm, 64, 2_000)
	sched := scheduler.New(4)
	defer sched.Shutdown()
	cache := statistics.NewCache(statistics.EqualHeight)
	cache.Get(table) // build once; the gate only ever Peeks

	ctx := NewExecContext(sm, sched, nil)
	ctx.Estimator = cache.Peek
	selective := analyzeSimplePredicate(eq(col(0, types.TypeInt64), lit(types.Int(3))), nil)
	wide := analyzeSimplePredicate(
		&expression.Comparison{Op: expression.Ge, Left: col(0, types.TypeInt64), Right: lit(types.Int(0))}, nil)
	if selective == nil || wide == nil {
		t.Fatal("predicates not recognized as simple")
	}

	if cost, est, _ := ctx.scanCost(table, wide, false); cost != 2000 || est != 2000 {
		t.Errorf("wide predicate: cost, est = %d, %d, want 2000, 2000", cost, est)
	}
	// ~1/2000 selectivity floors at 1/16: 2000 * 1/16 = 125.
	if cost, est, _ := ctx.scanCost(table, selective, false); cost != 125 || est > 2 {
		t.Errorf("selective predicate: cost, est = %d, %d, want 125, <= 2", cost, est)
	}
	// Not simple, or no statistics: the raw row count.
	if cost, _, _ := ctx.scanCost(table, nil, false); cost != 2000 {
		t.Errorf("complex predicate: cost = %d, want 2000", cost)
	}
	ctx.Estimator = nil
	if cost, _, _ := ctx.scanCost(table, selective, false); cost != 2000 {
		t.Errorf("no estimator: cost = %d, want 2000", cost)
	}
	// Decision fixed elsewhere: the estimator is not consulted.
	for _, c := range []*ExecContext{NewExecContext(sm, nil, nil), {Scheduler: sched, Parallel: ParallelForce}} {
		c.Estimator = func(*storage.Table) *statistics.TableStatistics {
			t.Error("estimator consulted although the decision does not depend on it")
			return nil
		}
		if _, est, _ := c.scanCost(table, wide, false); est != -1 {
			t.Errorf("est = %d, want -1", est)
		}
	}
}
