package operators

import (
	"math/rand"
	"reflect"
	"testing"

	"hyrise/internal/expression"
	"hyrise/internal/scheduler"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// aggFixture builds a multi-chunk table plus a grouped aggregate over it.
func aggFixture(t *testing.T, nRows, nGroups, chunkSize int) (*storage.Table, *Aggregate) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	defs := []storage.ColumnDefinition{
		{Name: "g", Type: types.TypeInt64},
		{Name: "v", Type: types.TypeInt64},
	}
	rows := make([][]types.Value, nRows)
	for i := range rows {
		rows[i] = []types.Value{types.Int(int64(rng.Intn(nGroups))), types.Int(int64(i))}
	}
	table := makeTable(t, nil, "agg_in", defs, chunkSize, rows)
	op := NewAggregate(tableOp(table),
		[]expression.Expression{col(0)},
		[]*expression.Aggregate{
			{Fn: expression.AggCountStar},
			{Fn: expression.AggSum, Arg: col(1)},
			{Fn: expression.AggMin, Arg: col(1)},
			{Fn: expression.AggMax, Arg: col(1)},
		},
		[]string{"g", "n", "s", "lo", "hi"},
		[]types.DataType{types.TypeInt64, types.TypeInt64, types.TypeInt64, types.TypeInt64, types.TypeInt64})
	return table, op
}

// TestAggregateMergeOrderIndependent is the regression test for the merge
// bugfix: the final group order and values must not depend on the order in
// which per-chunk partials are merged. Partials are fed to mergePartials in
// permuted order; the output must be identical every time.
func TestAggregateMergeOrderIndependent(t *testing.T) {
	table, op := aggFixture(t, 5000, 37, 256)
	ctx := NewExecContext(nil, nil, nil)

	chunks := table.Chunks()
	partialsOf := func() []chunkGroups {
		out := make([]chunkGroups, len(chunks))
		base := int64(0)
		for ci, c := range chunks {
			out[ci] = op.aggregateChunk(ctx, c, base)
			base += int64(c.Size())
		}
		return out
	}

	baseline, err := op.mergePartials(ctx, partialsOf())
	if err != nil {
		t.Fatal(err)
	}
	baseOut, err := op.buildOutput(baseline)
	if err != nil {
		t.Fatal(err)
	}
	want := tableRows(baseOut)

	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		partials := partialsOf()
		rng.Shuffle(len(partials), func(i, j int) { partials[i], partials[j] = partials[j], partials[i] })
		merged, err := op.mergePartials(ctx, partials)
		if err != nil {
			t.Fatal(err)
		}
		out, err := op.buildOutput(merged)
		if err != nil {
			t.Fatal(err)
		}
		if got := tableRows(out); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: permuted partial order changed the result\ngot:  %v\nwant: %v", trial, got, want)
		}
	}
}

// TestDiffAggregateParallelMergeMatchesSerial forces the sharded parallel merge
// and checks it produces exactly the serial result, rows in the same order.
func TestDiffAggregateParallelMergeMatchesSerial(t *testing.T) {
	_, op := aggFixture(t, 20000, 997, 512)

	serialCtx := NewExecContext(nil, nil, nil)
	serialOut, err := Execute(op, serialCtx)
	if err != nil {
		t.Fatal(err)
	}
	want := tableRows(serialOut)

	sched := scheduler.New(4)
	defer sched.Shutdown()
	for _, mode := range []ParallelMode{ParallelForce, ParallelSerial} {
		ctx := NewExecContext(nil, sched, nil)
		ctx.Parallel = mode
		out, err := Execute(op, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got := tableRows(out); !reflect.DeepEqual(got, want) {
			t.Fatalf("mode=%d: merge differs from serial\ngot %d rows, want %d rows", mode, len(got), len(want))
		}
	}
}

// TestAggregateNoGroupByStillOneRow guards the SQL "aggregate over empty
// input yields one row" rule through the new merge path.
func TestAggregateNoGroupByStillOneRow(t *testing.T) {
	defs := []storage.ColumnDefinition{{Name: "v", Type: types.TypeInt64}}
	empty := makeTable(t, nil, "empty_in", defs, 16, nil)
	op := NewAggregate(tableOp(empty), nil,
		[]*expression.Aggregate{{Fn: expression.AggCountStar}, {Fn: expression.AggSum, Arg: col(0)}},
		[]string{"n", "s"}, []types.DataType{types.TypeInt64, types.TypeInt64})
	out, err := Execute(op, NewExecContext(nil, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	rows := tableRows(out)
	if len(rows) != 1 || rows[0] != "0|NULL" {
		t.Fatalf("empty aggregate = %v, want [0|NULL]", rows)
	}
}

// TestAggregateGroupOrderIsFirstAppearance pins the output ordering contract:
// groups appear in order of their first row in the table.
func TestAggregateGroupOrderIsFirstAppearance(t *testing.T) {
	defs := []storage.ColumnDefinition{{Name: "g", Type: types.TypeString}}
	rows := [][]types.Value{
		{types.Str("c")}, {types.Str("a")}, {types.Str("c")},
		{types.Str("b")}, {types.Str("a")}, {types.Str("d")},
	}
	table := makeTable(t, nil, "order_in", defs, 2, rows)
	op := NewAggregate(tableOp(table),
		[]expression.Expression{col(0)},
		[]*expression.Aggregate{{Fn: expression.AggCountStar}},
		[]string{"g", "n"}, []types.DataType{types.TypeString, types.TypeInt64})
	out, err := Execute(op, NewExecContext(nil, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	got := tableRows(out)
	want := []string{"c|2", "a|2", "b|1", "d|1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("group order = %v, want %v", got, want)
	}
}
