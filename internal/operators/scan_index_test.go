package operators

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"hyrise/internal/encoding"
	"hyrise/internal/expression"
	"hyrise/internal/index"
	"hyrise/internal/observe"
	"hyrise/internal/scheduler"
	"hyrise/internal/statistics"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// The index rung's fixture: 2000 rows in four chunks. id is a permutation of
// 0..1999 (so index postings come out of offset order), skew is 7 except on
// eight rows (which makes `skew <> 7` selective), val is id/2 as FLOAT, tag
// is a mostly unique string that is NULL on every seventh row, and odd is 7
// as FLOAT except on the same eight rows, four of which hold NaN.
const (
	rungRows      = 2000
	rungChunkRows = 500
)

var rungDefs = []storage.ColumnDefinition{
	{Name: "id", Type: types.TypeInt64},
	{Name: "skew", Type: types.TypeInt64},
	{Name: "val", Type: types.TypeFloat64},
	{Name: "tag", Type: types.TypeString, Nullable: true},
	{Name: "odd", Type: types.TypeFloat64},
}

func rungTable(t *testing.T, sm *storage.StorageManager, name string, spec encoding.Spec) *storage.Table {
	t.Helper()
	rows := make([][]types.Value, rungRows)
	for i := range rows {
		id := int64(i) * 7919 % rungRows
		skew, odd := int64(7), 7.0
		if i%250 == 3 {
			skew, odd = id+10, float64(id+10)
			if i%500 == 3 {
				odd = math.NaN()
			}
		}
		tag := types.Value(types.Str(fmt.Sprintf("t%04d", id)))
		if i%7 == 0 {
			tag = types.NullValue
		}
		rows[i] = []types.Value{types.Int(id), types.Int(skew), types.Float(float64(id) / 2), tag, types.Float(odd)}
	}
	table := makeTable(t, sm, name, rungDefs, rungChunkRows, rows)
	if spec.Encoding != encoding.Unencoded {
		if err := encoding.EncodeTable(table, &spec, nil); err != nil {
			t.Fatal(err)
		}
	}
	return table
}

// rungCol is a bound column of the fixture with its type filled in, as the
// SQL binder does (parameters are matched against it).
func rungCol(i int) *expression.BoundColumn {
	return &expression.BoundColumn{Index: i, DT: rungDefs[i].Type}
}

func cmp(op expression.ComparisonOp, l, r expression.Expression) *expression.Comparison {
	return &expression.Comparison{Op: op, Left: l, Right: r}
}

func between(c, lo, hi expression.Expression) *expression.Between {
	return &expression.Between{Child: c, Lo: lo, Hi: hi}
}

func param(id int) *expression.Parameter { return &expression.Parameter{ID: id} }

// rungCase is one predicate of the differential. probe says whether the index
// rung must answer every indexed chunk (true) or none at all (false).
type rungCase struct {
	name   string
	pred   expression.Expression
	params []types.Value
	column int
	probe  bool
	// complex: not a simplePredicate at all (no per-column telemetry).
	complex bool
}

func rungCases() []rungCase {
	id, skew, val, tag, odd := rungCol(0), rungCol(1), rungCol(2), rungCol(3), rungCol(4)
	i, f, s := func(v int64) *expression.Literal { return lit(types.Int(v)) },
		func(v float64) *expression.Literal { return lit(types.Float(v)) },
		func(v string) *expression.Literal { return lit(types.Str(v)) }
	return []rungCase{
		// Selective, operand of the column's own type: every indexed chunk probes.
		{name: "id=55", pred: eq(id, i(55)), column: 0, probe: true},
		{name: "55=id", pred: eq(i(55), id), column: 0, probe: true},
		{name: "id<15", pred: cmp(expression.Lt, id, i(15)), column: 0, probe: true},
		{name: "id<=15", pred: cmp(expression.Le, id, i(15)), column: 0, probe: true},
		{name: "id>1985", pred: cmp(expression.Gt, id, i(1985)), column: 0, probe: true},
		{name: "id>=1985", pred: cmp(expression.Ge, id, i(1985)), column: 0, probe: true},
		{name: "id between", pred: between(id, i(100), i(115)), column: 0, probe: true},
		{name: "odd>=8", pred: cmp(expression.Ge, odd, f(8)), column: 4, probe: true},
		{name: "val=27.5", pred: eq(val, f(27.5)), column: 2, probe: true},
		{name: "val between", pred: between(val, f(10), f(15)), column: 2, probe: true},
		{name: "tag=t0055", pred: eq(tag, s("t0055")), column: 3, probe: true},
		// Parameters resolve per execution and probe like literals.
		{name: "id=$0", pred: eq(id, param(0)), params: []types.Value{types.Int(55)}, column: 0, probe: true},
		{name: "id between $0 $1", pred: between(id, param(0), param(1)), params: []types.Value{types.Int(100), types.Int(115)}, column: 0, probe: true},
		{name: "tag=$0", pred: eq(tag, param(0)), params: []types.Value{types.Str("t0055")}, column: 3, probe: true},
		// Operand not of the column's type: the evaluator compares it as a
		// float, so the chunk takes the next rung.
		{name: "id=2.5", pred: eq(id, f(2.5)), column: 0},
		{name: "id<2.5", pred: cmp(expression.Lt, id, f(2.5)), column: 0},
		{name: "id>=2.5", pred: cmp(expression.Ge, id, f(1996.5)), column: 0},
		{name: "id between 1.5 3.5", pred: between(id, f(1.5), f(3.5)), column: 0},
		{name: "id between 1 3.5", pred: between(id, i(1), f(3.5)), column: 0},
		{name: "val=3", pred: eq(val, i(3)), column: 2},
		{name: "val<4", pred: cmp(expression.Lt, val, i(4)), column: 2},
		{name: "id=$0 float", pred: eq(id, param(0)), params: []types.Value{types.Float(2.5)}, column: 0, complex: true},
		// Indexes hold no NULL and no NaN rows, and <> matches NaN: the index
		// rung answers intervals only, however selective the rest is.
		{name: "tag is null", pred: &expression.IsNull{Child: tag}, column: 3},
		{name: "tag is not null", pred: &expression.IsNull{Child: tag, Negate: true}, column: 3},
		{name: "skew<>7", pred: cmp(expression.Ne, skew, i(7)), column: 1},
		{name: "odd<>7", pred: cmp(expression.Ne, odd, f(7)), column: 4},
		// Estimate above indexProbeMaxSelectivity: scanning wins.
		{name: "id>=0", pred: cmp(expression.Ge, id, i(0)), column: 0},
		{name: "id<1000", pred: cmp(expression.Lt, id, i(1000)), column: 0},
		{name: "skew=7", pred: eq(skew, i(7)), column: 1},
	}
}

// TestDiffScanLadderIndexRung is the differential for index probe as a rung of
// the scan ladder: for every encoding × compression (which decides how the
// group-key index is built) × which chunks carry an index × predicate shape
// × operand kind, TableScan over the indexed table must return exactly what it
// returns over an identical table without indexes; every segment scan must be
// accounted to exactly one rung; and the index rung must answer all indexed
// chunks of a selective same-type interval predicate and none otherwise. Each
// case runs serially and forced-parallel.
func TestDiffScanLadderIndexRung(t *testing.T) {
	specs := []encoding.Spec{
		{Encoding: encoding.Unencoded},
		{Encoding: encoding.Dictionary, Compression: encoding.FixedSizeByteAligned},
		{Encoding: encoding.Dictionary, Compression: encoding.BitPacked128},
		{Encoding: encoding.RunLength},
		{Encoding: encoding.FrameOfReference, Compression: encoding.FixedSizeByteAligned},
		{Encoding: encoding.FrameOfReference, Compression: encoding.BitPacked128},
	}
	layouts := map[string]func(ci int) bool{
		"all":         func(int) bool { return true },
		"alternating": func(ci int) bool { return ci%2 == 0 },
		"none":        func(int) bool { return false },
	}
	sched := scheduler.New(4)
	defer sched.Shutdown()
	stats := statistics.NewCache(statistics.EqualHeight)
	cases := rungCases()

	for _, spec := range specs {
		sm := storage.NewStorageManager()
		rungTable(t, sm, "plain", spec)
		want := make([][]string, len(cases))
		for i, tc := range cases {
			ctx := newCtx(t, sm)
			ctx.Params = tc.params
			out, err := Execute(NewTableScan(&GetTable{TableName: "plain"}, tc.pred), ctx)
			if err != nil {
				t.Fatalf("%v/%s: %v", spec, tc.name, err)
			}
			want[i] = tableRows(out)
		}
		for layout, carries := range layouts {
			name := fmt.Sprintf("%s-%s/%s", spec.Encoding, spec.Compression, layout)
			table := rungTable(t, sm, name, spec)
			stats.Get(table)
			indexedChunks := make([]int64, len(rungDefs)) // per column
			for ci, c := range table.Chunks() {
				for col := range rungDefs {
					if carries(ci) {
						if err := index.AddIndexToChunk(c, types.ColumnID(col)); err != nil {
							t.Fatal(err)
						}
						indexedChunks[col]++
					}
				}
			}
			for i, tc := range cases {
				for _, parallel := range []bool{false, true} {
					ctx, m, scans := meteredCtx(t, sm)
					if parallel {
						ctx.Scheduler, ctx.Parallel, ctx.morselRows = sched, ParallelForce, 7
					}
					ctx.Params, ctx.Estimator = tc.params, stats.Peek
					out, err := Execute(NewTableScan(&GetTable{TableName: name}, tc.pred), ctx)
					if err != nil {
						t.Fatalf("%s/%s: %v", name, tc.name, err)
					}
					if got := tableRows(out); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("%s/%s parallel=%v: rows differ from the unindexed scan\ngot:  %v\nwant: %v", name, tc.name, parallel, got, want[i])
					}
					snaps := scans.Snapshot()
					if tc.complex {
						if len(snaps) != 0 || m.ScanSegmentsIndexProbed.Value() != 0 {
							t.Errorf("%s/%s: scan stats = %+v, index probes = %d, want none", name, tc.name, snaps, m.ScanSegmentsIndexProbed.Value())
						}
						continue
					}
					if len(snaps) != 1 || snaps[0].Column != rungDefs[tc.column].Name {
						t.Fatalf("%s/%s: scan stats = %+v, want one %s row", name, tc.name, snaps, rungDefs[tc.column].Name)
					}
					sn := snaps[0]
					if sum := sn.Index + sn.Pruned + sn.Encoded + sn.Unencoded + sn.Fallback; sum != sn.Scans || sn.Scans != int64(table.ChunkCount()) {
						t.Errorf("%s/%s: rungs %+v do not add up to %d scans", name, tc.name, sn, table.ChunkCount())
					}
					wantProbes := int64(0)
					if tc.probe {
						wantProbes = indexedChunks[tc.column]
					}
					if sn.Index != wantProbes || m.ScanSegmentsIndexProbed.Value() != wantProbes {
						t.Errorf("%s/%s parallel=%v: index probes = %d (counter %d), want %d",
							name, tc.name, parallel, sn.Index, m.ScanSegmentsIndexProbed.Value(), wantProbes)
					}
				}
			}
		}
	}
}

// TestDiffIndexRungEstimatesOnce pins how often a scan consults the statistics
// hook: once when a chunk of the input carries an index the predicate could
// use or when the parallel gate needs a size, never twice, and not at all
// when neither can depend on the answer.
func TestDiffIndexRungEstimatesOnce(t *testing.T) {
	sm := storage.NewStorageManager()
	rungTable(t, sm, "plain", encoding.Spec{})
	indexed := rungTable(t, sm, "indexed", encoding.Spec{})
	for _, c := range indexed.Chunks() {
		if err := index.AddIndexToChunk(c, 0); err != nil {
			t.Fatal(err)
		}
	}
	sched := scheduler.New(4)
	defer sched.Shutdown()
	stats := statistics.NewCache(statistics.EqualHeight)
	stats.Get(indexed)

	point := eq(rungCol(0), lit(types.Int(55)))
	for _, tc := range []struct {
		name  string
		table string
		pred  expression.Expression
		sched *scheduler.Scheduler
		mode  ParallelMode
		want  int
	}{
		{name: "no index, no scheduler", table: "plain", pred: point, want: 0},
		{name: "no index, serial override", table: "plain", pred: point, sched: sched, mode: ParallelSerial, want: 0},
		{name: "no index, parallel gate", table: "plain", pred: point, sched: sched, want: 1},
		{name: "index, no scheduler", table: "indexed", pred: point, want: 1},
		{name: "index, serial override", table: "indexed", pred: point, sched: sched, mode: ParallelSerial, want: 1},
		{name: "index, parallel gate", table: "indexed", pred: point, sched: sched, want: 1},
		{name: "index on another column", table: "indexed", pred: eq(rungCol(1), lit(types.Int(7))), want: 0},
		{name: "index, cross-type operand", table: "indexed", pred: eq(rungCol(0), lit(types.Float(2.5))), want: 0},
		{name: "index, null check", table: "indexed", pred: &expression.IsNull{Child: rungCol(0)}, want: 0},
	} {
		calls := 0
		ctx := NewExecContext(sm, tc.sched, nil)
		ctx.Parallel = tc.mode
		ctx.Estimator = func(t *storage.Table) *statistics.TableStatistics {
			calls++
			return stats.Peek(t)
		}
		if _, err := Execute(NewTableScan(&GetTable{TableName: tc.table}, tc.pred), ctx); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if calls != tc.want {
			t.Errorf("%s: %d estimator calls, want %d", tc.name, calls, tc.want)
		}
	}
}

// TestDiffIndexRungFanOut: an indexed scan fans out exactly as decideParallel
// says — one morsel under ParallelSerial, and under ParallelAuto the same
// morsels as the scan of an identical table without indexes (the estimate
// and so the cost are the same).
func TestDiffIndexRungFanOut(t *testing.T) {
	const n, chunkRows = 270_000, 30_000 // 1/16 floor × n clears parallelMinRows[opScan]
	defs := []storage.ColumnDefinition{{Name: "id", Type: types.TypeInt64}}
	// id is a permutation of 0..n-1 whose stride sweeps the whole domain
	// several times per chunk: every chunk's zone spans the probed key and no
	// chunk ascends, so the prune and sorted rungs leave all nine to the index.
	rows := make([][]types.Value, n)
	for i := range rows {
		rows[i] = []types.Value{types.Int(int64(i) * 100_003 % n)}
	}
	sm := storage.NewStorageManager()
	plain := makeTable(t, sm, "plain", defs, chunkRows, rows)
	indexed := makeTable(t, sm, "indexed", defs, chunkRows, rows)
	for _, c := range indexed.Chunks() {
		if err := index.AddIndexToChunk(c, 0); err != nil {
			t.Fatal(err)
		}
	}
	sched := scheduler.New(4)
	defer sched.Shutdown()
	stats := statistics.NewCache(statistics.EqualHeight)
	stats.Get(plain)
	stats.Get(indexed)

	scan := func(table string, mode ParallelMode) (morsels, indexChunks int64) {
		t.Helper()
		ctx := NewExecContext(sm, sched, nil)
		ctx.Parallel, ctx.Estimator, ctx.Trace = mode, stats.Peek, observe.NewTrace("")
		op := NewTableScan(&GetTable{TableName: table}, eq(col(0, types.TypeInt64), lit(types.Int(123_456))))
		out, err := Execute(op, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if out.RowCount() != 1 {
			t.Fatalf("%s: %d rows, want 1", table, out.RowCount())
		}
		attrs := ctx.Trace.Op(op).Attrs
		return attrs["morsels"], attrs["index_chunks"]
	}
	chunks := int64(indexed.ChunkCount())
	if morsels, probed := scan("indexed", ParallelSerial); morsels != 1 || probed != chunks {
		t.Errorf("serial: morsels = %d, index_chunks = %d, want 1, %d", morsels, probed, chunks)
	}
	plainMorsels, plainProbed := scan("plain", ParallelAuto)
	if plainMorsels < 2 || plainProbed != 0 {
		t.Fatalf("unindexed auto scan: morsels = %d, index_chunks = %d, want a fan-out and 0", plainMorsels, plainProbed)
	}
	if morsels, probed := scan("indexed", ParallelAuto); morsels != plainMorsels || probed != chunks {
		t.Errorf("auto: morsels = %d, index_chunks = %d, want %d, %d", morsels, probed, plainMorsels, chunks)
	}
}

// TestDiffIndexesAgreeWithScan holds both index builders to the typed scan
// over awkward values: int64 extremes, ±0, NaN, ±Inf, the empty string, NUL bytes
// and NULL rows, indexed over a value segment (sorted values) and over the same
// values dictionary-encoded (grouped codes). For every scan operator and every
// probe, the index rung either refuses the predicate — exactly when it is not
// an interval — or returns through indexProbe what encoding.ScanValues returns
// over the rows. A build that does not finish fails the test instead of
// hanging it.
func TestDiffIndexesAgreeWithScan(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	indexesAgreeWithScan(t, []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, math.MinInt64 + 1, 0, math.MaxInt64 - 1, 7, math.MaxInt64},
		[]int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, 2, math.MaxInt64 - 1, math.MaxInt64})
	indexesAgreeWithScan(t, []float64{nan, -inf, math.Copysign(0, -1), 0, 1.5, -1.5, inf, nan, 1.5, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64},
		[]float64{nan, -inf, -math.MaxFloat64, -1.5, math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1.5, 2, math.MaxFloat64, inf})
	indexesAgreeWithScan(t, []string{"", "\x00", "\x00\x00", "a", "a\x00", "a\x00b", "b", "", "a", "\x00"},
		[]string{"", "\x00", "\x00\x00", "\x00a", "a", "a\x00", "a\x00b", "b", "c"})
}

func indexesAgreeWithScan[T types.Ordered](t *testing.T, vals, probes []T) {
	t.Helper()
	nulls := make([]bool, len(vals)+3)
	vals = append(vals, vals[:3]...) // three NULL rows carrying values
	for i := len(nulls) - 3; i < len(nulls); i++ {
		nulls[i] = true
	}
	dt := types.FromNative(vals[0]).Type
	for _, seg := range []storage.Segment{
		storage.ValueSegmentFromSlice(vals, nulls),
		encoding.EncodeDictionary(vals, nulls, encoding.FixedSizeByteAligned),
	} {
		c := storage.NewChunk([]storage.Segment{seg}, nil)
		c.Finalize()
		built := make(chan error, 1)
		go func() { built <- index.AddIndexToChunk(c, 0) }()
		select {
		case err := <-built:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: building the index over %T did not finish in 10s", dt, seg)
		}
		idx, kind := c.GetIndex(0), fmt.Sprintf("%T", seg)
		for op := encoding.ScanEq; op <= encoding.ScanIsNotNull; op++ {
			for _, lo := range probes {
				for j, hi := range probes {
					if op != encoding.ScanBetween && j > 0 {
						break // one operand: one pass over the probes
					}
					p := &simplePredicate{pred: encoding.ScanPredicate{Op: op, Value: types.FromNative(lo), Lo: types.FromNative(lo), Hi: types.FromNative(hi)}}
					_, _, interval := scanInterval(&p.pred)
					if !p.operandsTyped(dt) {
						if interval {
							t.Errorf("%s %s %v: the index rung refuses an interval", kind, op, lo)
						}
						continue
					}
					if !interval {
						t.Fatalf("%s %s: the index rung accepts a predicate that is not an interval", kind, op)
					}
					want, _ := encoding.ScanValues(p.pred, vals, nulls, nil)
					if got := indexProbe(idx, p); !slices.Equal(got, want) && len(got)+len(want) > 0 {
						t.Errorf("%s %s (%v, %v): index %v, scan %v", kind, op, lo, hi, got, want)
					}
				}
			}
		}
	}
}
