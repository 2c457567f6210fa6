package operators

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"hyrise/internal/concurrency"
	"hyrise/internal/encoding"
	"hyrise/internal/expression"
	"hyrise/internal/lqp"
	"hyrise/internal/scheduler"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// --- test fixtures ---------------------------------------------------------

func newCtx(t *testing.T, sm *storage.StorageManager) *ExecContext {
	t.Helper()
	return NewExecContext(sm, nil, nil)
}

func makeTable(t *testing.T, sm *storage.StorageManager, name string, defs []storage.ColumnDefinition, chunkSize int, rows [][]types.Value) *storage.Table {
	t.Helper()
	table := storage.NewTable(name, defs, chunkSize, false)
	for _, r := range rows {
		if _, err := table.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	table.SealTail()
	if sm != nil {
		if err := sm.AddTable(table); err != nil {
			t.Fatal(err)
		}
	}
	return table
}

func numbersTable(t *testing.T, sm *storage.StorageManager, chunkSize, n int) *storage.Table {
	t.Helper()
	defs := []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64},
		{Name: "val", Type: types.TypeFloat64},
		{Name: "name", Type: types.TypeString},
	}
	rows := make([][]types.Value, n)
	for i := 0; i < n; i++ {
		rows[i] = []types.Value{
			types.Int(int64(i)),
			types.Float(float64(i%10) / 2),
			types.Str(fmt.Sprintf("name%02d", i%7)),
		}
	}
	return makeTable(t, sm, "numbers", defs, chunkSize, rows)
}

// tableRows materializes all rows of a table as strings for comparison.
func tableRows(t *storage.Table) []string {
	var out []string
	for ci := 0; ci < t.ChunkCount(); ci++ {
		c := t.GetChunk(types.ChunkID(ci))
		for o := 0; o < c.Size(); o++ {
			row := ""
			for col := 0; col < t.ColumnCount(); col++ {
				if col > 0 {
					row += "|"
				}
				row += c.GetSegment(types.ColumnID(col)).ValueAt(types.ChunkOffset(o)).String()
			}
			out = append(out, row)
		}
	}
	return out
}

func sortedRows(t *storage.Table) []string {
	rows := tableRows(t)
	sort.Strings(rows)
	return rows
}

func col(i int) *expression.BoundColumn { return &expression.BoundColumn{Index: i} }
func lit(v types.Value) *expression.Literal {
	return expression.NewLiteral(v)
}
func eq(l, r expression.Expression) *expression.Comparison {
	return &expression.Comparison{Op: expression.Eq, Left: l, Right: r}
}

// --- GetTable / visibility -------------------------------------------------

func TestGetTable(t *testing.T) {
	sm := storage.NewStorageManager()
	table := numbersTable(t, sm, 10, 35) // 4 chunks
	ctx := newCtx(t, sm)

	out, err := Execute(&GetTable{TableName: "numbers"}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out != table {
		t.Error("GetTable should return the stored table itself")
	}
	if _, err := Execute(&GetTable{TableName: "nope"}, ctx); err == nil {
		t.Error("unknown table should fail")
	}
}

// visibleScan is what the translator makes of a ValidateNode above preds over
// a stored table.
func visibleScan(table string, preds ...expression.Expression) *TableScan {
	scan := NewTableScan(&GetTable{TableName: table}, preds...)
	scan.visible = true
	return scan
}

func TestScanFiltersInvisibleRows(t *testing.T) {
	sm := storage.NewStorageManager()
	defs := []storage.ColumnDefinition{{Name: "v", Type: types.TypeInt64}}
	table := storage.NewTable("t", defs, 10, true)
	for i := 0; i < 5; i++ {
		_, _ = table.AppendRow([]types.Value{types.Int(int64(i))})
	}
	concurrency.MarkTableLoaded(table)
	_ = sm.AddTable(table)

	tm := concurrency.NewTransactionManager()
	// Delete row 2, committed.
	del := tm.New()
	if err := del.TryInvalidate(table.GetChunk(0), 2); err != nil {
		t.Fatal(err)
	}
	_ = del.Commit()

	tx := tm.New()
	ctx := NewExecContext(sm, nil, tx)
	out, err := Execute(visibleScan("t"), ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := sortedRows(out)
	want := []string{"0", "1", "3", "4"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("visible rows = %v, want %v", got, want)
	}
	// The conjuncts run before visibility, over the same chunk.
	out, err = Execute(visibleScan("t", &expression.Comparison{Op: expression.Ge, Left: col(0), Right: lit(types.Int(2))}), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sortedRows(out), []string{"3", "4"}; !reflect.DeepEqual(got, want) {
		t.Errorf("visible rows with v >= 2 = %v, want %v", got, want)
	}
	// A visible scan without a transaction fails.
	if _, err := Execute(visibleScan("t"), newCtx(t, sm)); err == nil || !strings.Contains(err.Error(), "requires a transaction context") {
		t.Errorf("visible scan without transaction: err = %v, want \"requires a transaction context\"", err)
	}
}

// TestTranslateChain: predicates on either side of a ValidateNode become the
// conjuncts of one visible scan, bottom one first; a ValidateNode whose chain
// does not end in the stored table is refused, since visibility is read off
// that table's MVCC columns.
func TestTranslateChain(t *testing.T) {
	table := storage.NewTable("t", []storage.ColumnDefinition{{Name: "v", Type: types.TypeInt64}}, 10, true)
	lt := &expression.Comparison{Op: expression.Lt, Left: col(0), Right: lit(types.Int(9))}
	ge := &expression.Comparison{Op: expression.Ge, Left: col(0), Right: lit(types.Int(1))}

	var chain lqp.Node = lqp.NewPredicateNode(lqp.NewStoredTableNode(table, ""), lt)
	chain = lqp.NewPredicateNode(lqp.NewValidateNode(chain), ge)
	op, err := new(Translator).Translate(chain)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := PlanString(op), "TableScan("+lt.String()+" AND "+ge.String()+" AND visible)\n  GetTable(t)\n"; got != want {
		t.Errorf("plan =\n%swant\n%s", got, want)
	}

	proj := lqp.NewProjectionNode(lqp.NewStoredTableNode(table, ""), []expression.Expression{col(0)}, []string{"v"})
	if _, err := new(Translator).Translate(lqp.NewValidateNode(proj)); err == nil || !strings.Contains(err.Error(), "not over a stored table") {
		t.Errorf("ValidateNode over a projection: err = %v", err)
	}
}

// --- TableScan ----------------------------------------------------------------

func TestTableScanSimplePredicates(t *testing.T) {
	sm := storage.NewStorageManager()
	numbersTable(t, sm, 7, 50)
	ctx := newCtx(t, sm)

	cases := []struct {
		pred expression.Expression
		want int
	}{
		{eq(col(0), lit(types.Int(7))), 1},
		{&expression.Comparison{Op: expression.Lt, Left: col(0), Right: lit(types.Int(10))}, 10},
		{&expression.Comparison{Op: expression.Ge, Left: col(0), Right: lit(types.Int(45))}, 5},
		{&expression.Comparison{Op: expression.Ne, Left: col(0), Right: lit(types.Int(0))}, 49},
		{&expression.Between{Child: col(0), Lo: lit(types.Int(10)), Hi: lit(types.Int(19))}, 10},
		{eq(lit(types.Int(7)), col(0)), 1},        // flipped literal side
		{eq(col(2), lit(types.Str("name03"))), 7}, // i%7==3 for i in 0..49
		{&expression.Comparison{Op: expression.Le, Left: col(1), Right: lit(types.Float(1.0))}, 15},
	}
	for i, tc := range cases {
		out, err := Execute(NewTableScan(&GetTable{TableName: "numbers"}, tc.pred), ctx)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if out.RowCount() != tc.want {
			t.Errorf("case %d (%s): %d rows, want %d", i, tc.pred, out.RowCount(), tc.want)
		}
	}
}

func TestTableScanOnAllEncodings(t *testing.T) {
	specs := []encoding.Spec{
		{Encoding: encoding.Unencoded},
		{Encoding: encoding.Dictionary, Compression: encoding.FixedSizeByteAligned},
		{Encoding: encoding.Dictionary, Compression: encoding.BitPacked128},
		{Encoding: encoding.RunLength},
		{Encoding: encoding.FrameOfReference, Compression: encoding.FixedSizeByteAligned},
	}
	for _, spec := range specs {
		t.Run(spec.String(), func(t *testing.T) {
			sm := storage.NewStorageManager()
			table := numbersTable(t, sm, 16, 100)
			if spec.Encoding != encoding.Unencoded {
				if err := encoding.EncodeTable(table, &spec, nil); err != nil {
					t.Fatal(err)
				}
			}
			ctx := newCtx(t, sm)
			pred := &expression.Between{Child: col(0), Lo: lit(types.Int(20)), Hi: lit(types.Int(59))}
			out, err := Execute(NewTableScan(&GetTable{TableName: "numbers"}, pred), ctx)
			if err != nil {
				t.Fatal(err)
			}
			if out.RowCount() != 40 {
				t.Errorf("%v: %d rows, want 40", spec, out.RowCount())
			}
			// String scan on encoded segments.
			pred2 := eq(col(2), lit(types.Str("name01")))
			out2, err := Execute(NewTableScan(&GetTable{TableName: "numbers"}, pred2), ctx)
			if err != nil {
				t.Fatal(err)
			}
			if out2.RowCount() != 15 {
				t.Errorf("%v: string scan %d rows, want 15", spec, out2.RowCount())
			}
		})
	}
}

func TestTableScanComplexPredicateFallback(t *testing.T) {
	sm := storage.NewStorageManager()
	numbersTable(t, sm, 10, 50)
	ctx := newCtx(t, sm)
	// (id < 10 OR id >= 45) AND name LIKE 'name0%'
	pred := &expression.Logical{
		Op: expression.And,
		Left: &expression.Logical{
			Op:    expression.Or,
			Left:  &expression.Comparison{Op: expression.Lt, Left: col(0), Right: lit(types.Int(10))},
			Right: &expression.Comparison{Op: expression.Ge, Left: col(0), Right: lit(types.Int(45))},
		},
		Right: &expression.Comparison{Op: expression.Like, Left: col(2), Right: lit(types.Str("name0%"))},
	}
	out, err := Execute(NewTableScan(&GetTable{TableName: "numbers"}, pred), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.RowCount() != 15 {
		t.Errorf("%d rows, want 15", out.RowCount())
	}
}

func TestTableScanOnReferenceInput(t *testing.T) {
	sm := storage.NewStorageManager()
	numbersTable(t, sm, 10, 50)
	ctx := newCtx(t, sm)
	// Chain two scans: the second operates on a reference table.
	scan1 := NewTableScan(&GetTable{TableName: "numbers"}, &expression.Comparison{Op: expression.Lt, Left: col(0), Right: lit(types.Int(30))})
	scan2 := NewTableScan(scan1, &expression.Comparison{Op: expression.Ge, Left: col(0), Right: lit(types.Int(10))})
	out, err := Execute(scan2, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.RowCount() != 20 {
		t.Errorf("%d rows, want 20", out.RowCount())
	}
	// The composed output should reference the base table directly.
	seg := out.GetChunk(0).GetSegment(0).(*storage.ReferenceSegment)
	if seg.Positions().Table().Name() != "numbers" {
		t.Errorf("composition failed: references %q", seg.Positions().Table().Name())
	}
}

// --- Projection -----------------------------------------------------------------

func TestProjectionComputeAndForward(t *testing.T) {
	sm := storage.NewStorageManager()
	numbersTable(t, sm, 10, 20)
	ctx := newCtx(t, sm)
	proj := NewProjection(
		&GetTable{TableName: "numbers"},
		[]expression.Expression{
			col(0),
			&expression.Arithmetic{Op: expression.Mul, Left: col(0), Right: lit(types.Int(2))},
			&expression.Arithmetic{Op: expression.Add, Left: col(1), Right: lit(types.Float(0.5))},
		},
		[]string{"id", "dbl", "valplus"},
		[]types.DataType{types.TypeInt64, types.TypeInt64, types.TypeFloat64},
	)
	out, err := Execute(proj, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.ColumnCount() != 3 || out.RowCount() != 20 {
		t.Fatalf("shape %dx%d", out.ColumnCount(), out.RowCount())
	}
	c := out.GetChunk(0)
	if v := c.GetSegment(1).ValueAt(3); v.I != 6 {
		t.Errorf("dbl[3] = %v", v)
	}
	if v := c.GetSegment(2).ValueAt(3); v.F != 2.0 {
		t.Errorf("valplus[3] = %v (val=1.5+0.5)", v)
	}
	// Forwarded column reads through.
	if v := c.GetSegment(0).ValueAt(3); v.I != 3 {
		t.Errorf("id[3] = %v", v)
	}
	if out.ColumnDefinitions()[1].Name != "dbl" {
		t.Error("output names wrong")
	}
}

// --- Aggregate -------------------------------------------------------------------

func TestAggregateAllFunctions(t *testing.T) {
	sm := storage.NewStorageManager()
	defs := []storage.ColumnDefinition{
		{Name: "grp", Type: types.TypeString},
		{Name: "x", Type: types.TypeInt64, Nullable: true},
	}
	rows := [][]types.Value{
		{types.Str("a"), types.Int(1)},
		{types.Str("a"), types.Int(3)},
		{types.Str("a"), types.NullValue},
		{types.Str("b"), types.Int(10)},
		{types.Str("b"), types.Int(10)},
	}
	makeTable(t, sm, "g", defs, 2, rows)
	ctx := newCtx(t, sm)
	agg := NewAggregate(
		&GetTable{TableName: "g"},
		[]expression.Expression{col(0)},
		[]*expression.Aggregate{
			{Fn: expression.AggCountStar},
			{Fn: expression.AggCount, Arg: col(1)},
			{Fn: expression.AggSum, Arg: col(1)},
			{Fn: expression.AggAvg, Arg: col(1)},
			{Fn: expression.AggMin, Arg: col(1)},
			{Fn: expression.AggMax, Arg: col(1)},
			{Fn: expression.AggCountDistinct, Arg: col(1)},
		},
		[]string{"grp", "cstar", "c", "s", "a", "mn", "mx", "cd"},
		[]types.DataType{types.TypeString, types.TypeInt64, types.TypeInt64, types.TypeInt64, types.TypeFloat64, types.TypeInt64, types.TypeInt64, types.TypeInt64},
	)
	out, err := Execute(agg, ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := sortedRows(out)
	want := []string{"a|3|2|4|2|1|3|2", "b|2|2|20|10|10|10|1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("aggregate = %v, want %v", got, want)
	}
}

// TestAggregateStateIs32Bytes pins the per-group state: MIN and MAX keep a
// row, not a boxed value, so a state is four words.
func TestAggregateStateIs32Bytes(t *testing.T) {
	if size := unsafe.Sizeof(aggState{}); size > 32 {
		t.Errorf("aggState is %d bytes, want <= 32", size)
	}
}

func TestAggregateNoGroupByEmptyInput(t *testing.T) {
	sm := storage.NewStorageManager()
	makeTable(t, sm, "empty", []storage.ColumnDefinition{{Name: "x", Type: types.TypeInt64}}, 4, nil)
	ctx := newCtx(t, sm)
	agg := NewAggregate(
		&GetTable{TableName: "empty"},
		nil,
		[]*expression.Aggregate{
			{Fn: expression.AggCountStar},
			{Fn: expression.AggSum, Arg: col(0)},
		},
		[]string{"n", "s"},
		[]types.DataType{types.TypeInt64, types.TypeInt64},
	)
	out, err := Execute(agg, ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows := tableRows(out)
	if len(rows) != 1 || rows[0] != "0|NULL" {
		t.Errorf("empty aggregate = %v, want [0|NULL]", rows)
	}
}

func TestAggregateNullGroupKeys(t *testing.T) {
	sm := storage.NewStorageManager()
	defs := []storage.ColumnDefinition{{Name: "k", Type: types.TypeInt64, Nullable: true}}
	rows := [][]types.Value{{types.NullValue}, {types.Int(1)}, {types.NullValue}}
	makeTable(t, sm, "nk", defs, 4, rows)
	ctx := newCtx(t, sm)
	agg := NewAggregate(&GetTable{TableName: "nk"},
		[]expression.Expression{col(0)},
		[]*expression.Aggregate{{Fn: expression.AggCountStar}},
		[]string{"k", "n"},
		[]types.DataType{types.TypeInt64, types.TypeInt64})
	out, err := Execute(agg, ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := sortedRows(out)
	want := []string{"1|1", "NULL|2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("null group keys = %v, want %v", got, want)
	}
}

// --- Sort / Limit -----------------------------------------------------------------

func TestSortMultiKeyAndNulls(t *testing.T) {
	sm := storage.NewStorageManager()
	defs := []storage.ColumnDefinition{
		{Name: "a", Type: types.TypeInt64, Nullable: true},
		{Name: "b", Type: types.TypeString},
	}
	rows := [][]types.Value{
		{types.Int(2), types.Str("x")},
		{types.NullValue, types.Str("n")},
		{types.Int(1), types.Str("b")},
		{types.Int(2), types.Str("a")},
		{types.Int(1), types.Str("a")},
	}
	makeTable(t, sm, "s", defs, 2, rows)
	ctx := newCtx(t, sm)
	sortOp := NewSort(&GetTable{TableName: "s"}, []SortKey{
		{Expr: col(0)},
		{Expr: col(1), Desc: true},
	})
	out, err := Execute(sortOp, ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := tableRows(out)
	want := []string{"1|b", "1|a", "2|x", "2|a", "NULL|n"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sorted = %v, want %v", got, want)
	}
	// DESC on first key: NULLs first.
	sortDesc := NewSort(&GetTable{TableName: "s"}, []SortKey{{Expr: col(0), Desc: true}})
	out, _ = Execute(sortDesc, ctx)
	if rows := tableRows(out); rows[0] != "NULL|n" {
		t.Errorf("desc sort should put NULL first, got %v", rows)
	}
}

func TestLimit(t *testing.T) {
	sm := storage.NewStorageManager()
	numbersTable(t, sm, 7, 20)
	ctx := newCtx(t, sm)
	out, err := Execute(NewLimit(&GetTable{TableName: "numbers"}, 10), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.RowCount() != 10 {
		t.Errorf("limit 10 -> %d rows", out.RowCount())
	}
	out, _ = Execute(NewLimit(&GetTable{TableName: "numbers"}, 100), ctx)
	if out.RowCount() != 20 {
		t.Errorf("limit beyond size -> %d rows", out.RowCount())
	}
	out, _ = Execute(NewLimit(&GetTable{TableName: "numbers"}, 0), ctx)
	if out.RowCount() != 0 {
		t.Errorf("limit 0 -> %d rows", out.RowCount())
	}
}

// --- Joins ------------------------------------------------------------------------

func joinFixture(t *testing.T) *storage.StorageManager {
	t.Helper()
	sm := storage.NewStorageManager()
	makeTable(t, sm, "l", []storage.ColumnDefinition{
		{Name: "lk", Type: types.TypeInt64},
		{Name: "lv", Type: types.TypeString},
	}, 2, [][]types.Value{
		{types.Int(1), types.Str("l1")},
		{types.Int(2), types.Str("l2")},
		{types.Int(2), types.Str("l2b")},
		{types.Int(3), types.Str("l3")},
		{types.Int(5), types.Str("l5")},
	})
	makeTable(t, sm, "r", []storage.ColumnDefinition{
		{Name: "rk", Type: types.TypeInt64},
		{Name: "rv", Type: types.TypeString},
	}, 2, [][]types.Value{
		{types.Int(2), types.Str("r2")},
		{types.Int(3), types.Str("r3")},
		{types.Int(3), types.Str("r3b")},
		{types.Int(4), types.Str("r4")},
	})
	return sm
}

func TestHashJoinModes(t *testing.T) {
	sm := joinFixture(t)
	ctx := newCtx(t, sm)
	l := &GetTable{TableName: "l"}
	r := &GetTable{TableName: "r"}

	inner, err := Execute(NewHashJoin(JoinModeInner, l, r, col(0), col(0), nil), ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := sortedRows(inner)
	want := []string{"2|l2|2|r2", "2|l2b|2|r2", "3|l3|3|r3", "3|l3|3|r3b"}
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("inner = %v, want %v", got, want)
	}

	left, err := Execute(NewHashJoin(JoinModeLeft, l, r, col(0), col(0), nil), ctx)
	if err != nil {
		t.Fatal(err)
	}
	got = sortedRows(left)
	want = []string{"1|l1|NULL|NULL", "2|l2|2|r2", "2|l2b|2|r2", "3|l3|3|r3", "3|l3|3|r3b", "5|l5|NULL|NULL"}
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("left = %v, want %v", got, want)
	}

	semi, err := Execute(NewHashJoin(JoinModeSemi, l, r, col(0), col(0), nil), ctx)
	if err != nil {
		t.Fatal(err)
	}
	got = sortedRows(semi)
	want = []string{"2|l2", "2|l2b", "3|l3"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("semi = %v, want %v", got, want)
	}

	anti, err := Execute(NewHashJoin(JoinModeAnti, l, r, col(0), col(0), nil), ctx)
	if err != nil {
		t.Fatal(err)
	}
	got = sortedRows(anti)
	want = []string{"1|l1", "5|l5"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("anti = %v, want %v", got, want)
	}
}

func TestHashJoinResiduals(t *testing.T) {
	sm := joinFixture(t)
	ctx := newCtx(t, sm)
	l := &GetTable{TableName: "l"}
	r := &GetTable{TableName: "r"}
	// Residual: rv <> 'r3b' (column 3 in combined space).
	residual := &expression.Comparison{Op: expression.Ne, Left: col(3), Right: lit(types.Str("r3b"))}
	out, err := Execute(NewHashJoin(JoinModeInner, l, r, col(0), col(0), []expression.Expression{residual}), ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := sortedRows(out)
	want := []string{"2|l2|2|r2", "2|l2b|2|r2", "3|l3|3|r3"}
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("residual join = %v, want %v", got, want)
	}
	// Left join with residual: l3 still matches r3; others unchanged.
	out, err = Execute(NewHashJoin(JoinModeLeft, l, r, col(0), col(0), []expression.Expression{residual}), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.RowCount() != 5 {
		t.Errorf("left residual join rows = %d, want 5", out.RowCount())
	}
}

func TestSortMergeJoinAgreesWithHashJoin(t *testing.T) {
	sm := joinFixture(t)
	ctx := newCtx(t, sm)
	l := &GetTable{TableName: "l"}
	r := &GetTable{TableName: "r"}
	for _, mode := range []JoinMode{JoinModeInner, JoinModeLeft, JoinModeSemi, JoinModeAnti} {
		hj, err := Execute(NewHashJoin(mode, l, r, col(0), col(0), nil), ctx)
		if err != nil {
			t.Fatal(err)
		}
		smj, err := Execute(NewSortMergeJoin(mode, l, r, col(0), col(0), nil), ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sortedRows(hj), sortedRows(smj)) {
			t.Errorf("%v: hash=%v merge=%v", mode, sortedRows(hj), sortedRows(smj))
		}
	}
}

func TestNestedLoopJoin(t *testing.T) {
	sm := joinFixture(t)
	ctx := newCtx(t, sm)
	l := &GetTable{TableName: "l"}
	r := &GetTable{TableName: "r"}

	// Cross join: 5 x 4 rows.
	cross, err := Execute(NewNestedLoopJoin(JoinModeCross, l, r, nil), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cross.RowCount() != 20 {
		t.Errorf("cross rows = %d, want 20", cross.RowCount())
	}
	// Non-equi: lk < rk.
	lt := &expression.Comparison{Op: expression.Lt, Left: col(0), Right: col(2)}
	out, err := Execute(NewNestedLoopJoin(JoinModeInner, l, r, []expression.Expression{lt}), ctx)
	if err != nil {
		t.Fatal(err)
	}
	// lk=1: 4 matches; lk=2 (x2): 3 each -> wait rk in {2,3,3,4}: lk=2 < {3,3,4} = 3 matches each.
	// lk=3: rk=4 only = 1; lk=5: 0. Total 4+3+3+1 = 11.
	if out.RowCount() != 11 {
		t.Errorf("non-equi rows = %d, want 11", out.RowCount())
	}
	// NLJ agrees with hash join on the equi case.
	eqPred := eq(col(0), col(2))
	nlj, err := Execute(NewNestedLoopJoin(JoinModeInner, l, r, []expression.Expression{eqPred}), ctx)
	if err != nil {
		t.Fatal(err)
	}
	hj, _ := Execute(NewHashJoin(JoinModeInner, l, r, col(0), col(0), nil), ctx)
	if !reflect.DeepEqual(sortedRows(nlj), sortedRows(hj)) {
		t.Errorf("nlj=%v hash=%v", sortedRows(nlj), sortedRows(hj))
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	sm := storage.NewStorageManager()
	defs := []storage.ColumnDefinition{{Name: "k", Type: types.TypeInt64, Nullable: true}}
	makeTable(t, sm, "ln", defs, 4, [][]types.Value{{types.NullValue}, {types.Int(1)}})
	makeTable(t, sm, "rn", defs, 4, [][]types.Value{{types.NullValue}, {types.Int(1)}})
	ctx := newCtx(t, sm)
	out, err := Execute(NewHashJoin(JoinModeInner, &GetTable{TableName: "ln"}, &GetTable{TableName: "rn"}, col(0), col(0), nil), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.RowCount() != 1 {
		t.Errorf("null keys matched: %d rows, want 1", out.RowCount())
	}
}

// --- DML ---------------------------------------------------------------------------

func dmlFixture(t *testing.T) (*storage.StorageManager, *concurrency.TransactionManager) {
	t.Helper()
	sm := storage.NewStorageManager()
	table := storage.NewTable("acc", []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64},
		{Name: "bal", Type: types.TypeFloat64},
	}, 4, true)
	for i := 0; i < 3; i++ {
		_, _ = table.AppendRow([]types.Value{types.Int(int64(i)), types.Float(100)})
	}
	concurrency.MarkTableLoaded(table)
	_ = sm.AddTable(table)
	return sm, concurrency.NewTransactionManager()
}

func TestInsertDeleteUpdateLifecycle(t *testing.T) {
	sm, tm := dmlFixture(t)

	// INSERT in a transaction.
	tx := tm.New()
	ctx := NewExecContext(sm, nil, tx)
	ins := &Insert{TableName: "acc", Rows: [][]expression.Expression{
		{lit(types.Int(10)), lit(types.Float(50))},
		{lit(types.Int(11)), lit(types.Int(60))}, // an INT widens into the FLOAT column
	}}
	if _, err := Execute(ins, ctx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	readCtx := NewExecContext(sm, nil, tm.New())
	out, _ := Execute(visibleScan("acc"), readCtx)
	if out.RowCount() != 5 {
		t.Fatalf("after insert: %d rows, want 5", out.RowCount())
	}

	// DELETE id = 1.
	tx = tm.New()
	ctx = NewExecContext(sm, nil, tx)
	delPlan := NewDelete("acc", visibleScan("acc", eq(col(0), lit(types.Int(1)))))
	if _, err := Execute(delPlan, ctx); err != nil {
		t.Fatal(err)
	}
	_ = tx.Commit()
	out, _ = Execute(visibleScan("acc"), NewExecContext(sm, nil, tm.New()))
	if out.RowCount() != 4 {
		t.Fatalf("after delete: %d rows, want 4", out.RowCount())
	}

	// UPDATE bal = bal + 1 WHERE id = 10.
	tx = tm.New()
	ctx = NewExecContext(sm, nil, tx)
	upPlan := NewUpdate("acc",
		[]int{1},
		[]expression.Expression{&expression.Arithmetic{Op: expression.Add, Left: col(1), Right: lit(types.Float(1))}},
		visibleScan("acc", eq(col(0), lit(types.Int(10)))))
	if _, err := Execute(upPlan, ctx); err != nil {
		t.Fatal(err)
	}
	_ = tx.Commit()
	final, _ := Execute(visibleScan("acc", eq(col(0), lit(types.Int(10)))), NewExecContext(sm, nil, tm.New()))
	rows := tableRows(final)
	if len(rows) != 1 || rows[0] != "10|51" {
		t.Errorf("after update = %v, want [10|51]", rows)
	}

	// Rollback leaves data unchanged.
	tx = tm.New()
	ctx = NewExecContext(sm, nil, tx)
	_, err := Execute(&Insert{TableName: "acc", Rows: [][]expression.Expression{{lit(types.Int(99)), lit(types.Float(0))}}}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	out, _ = Execute(visibleScan("acc"), NewExecContext(sm, nil, tm.New()))
	if out.RowCount() != 4 {
		t.Errorf("after rollback: %d rows, want 4", out.RowCount())
	}
}

func TestInsertValidation(t *testing.T) {
	sm, tm := dmlFixture(t)
	ctx := NewExecContext(sm, nil, tm.New())
	// Column lists and types are checked when the plan is built; a plan for
	// another shape of the table (a DDL since) fails instead of writing.
	bad := &Insert{TableName: "acc", Rows: [][]expression.Expression{{lit(types.Int(1))}}}
	if _, err := Execute(bad, ctx); err == nil || !strings.Contains(err.Error(), "changed since") {
		t.Errorf("a row for a one-column table: err = %v", err)
	}
	up := NewUpdate("acc", []int{2}, []expression.Expression{lit(types.Int(1))}, visibleScan("acc"))
	if _, err := Execute(up, ctx); err == nil || !strings.Contains(err.Error(), "changed since") {
		t.Errorf("an update of a third column: err = %v", err)
	}
	// A value the assignment rule refuses: FLOAT 2.5 into the INT column.
	bad = &Insert{TableName: "acc", Rows: [][]expression.Expression{{lit(types.Float(2.5)), lit(types.Float(1))}}}
	if _, err := Execute(bad, ctx); !errors.Is(err, expression.ErrInvalidValue) {
		t.Errorf("FLOAT 2.5 into INT: err = %v, want ErrInvalidValue", err)
	}
	// Delete without transaction.
	noTx := newCtx(t, sm)
	if _, err := Execute(NewDelete("acc", &GetTable{TableName: "acc"}), noTx); err == nil {
		t.Error("delete without tx should fail")
	}
}

// --- parallel execution --------------------------------------------------------------

func TestExecuteWithQueueScheduler(t *testing.T) {
	sm := storage.NewStorageManager()
	numbersTable(t, sm, 8, 200)
	sched := scheduler.New(4)
	defer sched.Shutdown()
	ctx := NewExecContext(sm, sched, nil)

	scan := NewTableScan(&GetTable{TableName: "numbers"}, &expression.Comparison{Op: expression.Lt, Left: col(0), Right: lit(types.Int(100))})
	agg := NewAggregate(scan, nil,
		[]*expression.Aggregate{{Fn: expression.AggCountStar}, {Fn: expression.AggSum, Arg: col(0)}},
		[]string{"n", "s"}, []types.DataType{types.TypeInt64, types.TypeInt64})
	out, err := Execute(agg, ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows := tableRows(out)
	if len(rows) != 1 || rows[0] != "100|4950" {
		t.Errorf("parallel result = %v", rows)
	}
}

func TestExecuteErrorPropagation(t *testing.T) {
	sm := storage.NewStorageManager()
	ctx := newCtx(t, sm)
	scan := NewTableScan(&GetTable{TableName: "missing"}, eq(col(0), lit(types.Int(1))))
	if _, err := Execute(scan, ctx); err == nil {
		t.Error("missing table should surface an error")
	}
}

func TestPlanString(t *testing.T) {
	scan := NewTableScan(&GetTable{TableName: "t"}, eq(col(0), lit(types.Int(1))))
	s := PlanString(NewLimit(scan, 5))
	if len(s) == 0 || s[0:5] != "Limit" {
		t.Errorf("PlanString = %q", s)
	}
}

func TestSortMergeJoinResidualsAndModes(t *testing.T) {
	sm := joinFixture(t)
	ctx := newCtx(t, sm)
	l := &GetTable{TableName: "l"}
	r := &GetTable{TableName: "r"}
	residual := &expression.Comparison{Op: expression.Ne, Left: col(3), Right: lit(types.Str("r3b"))}
	for _, mode := range []JoinMode{JoinModeInner, JoinModeLeft} {
		hj, err := Execute(NewHashJoin(mode, l, r, col(0), col(0), []expression.Expression{residual}), ctx)
		if err != nil {
			t.Fatal(err)
		}
		smj, err := Execute(NewSortMergeJoin(mode, l, r, col(0), col(0), []expression.Expression{residual}), ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sortedRows(hj), sortedRows(smj)) {
			t.Errorf("%v with residual: hash=%v merge=%v", mode, sortedRows(hj), sortedRows(smj))
		}
	}
	// Semi/anti with residual through both implementations.
	for _, mode := range []JoinMode{JoinModeSemi, JoinModeAnti} {
		hj, _ := Execute(NewHashJoin(mode, l, r, col(0), col(0), []expression.Expression{residual}), ctx)
		smj, _ := Execute(NewSortMergeJoin(mode, l, r, col(0), col(0), []expression.Expression{residual}), ctx)
		if !reflect.DeepEqual(sortedRows(hj), sortedRows(smj)) {
			t.Errorf("%v residual: hash=%v merge=%v", mode, sortedRows(hj), sortedRows(smj))
		}
	}
}

func TestNestedLoopJoinLeftAndSemiModes(t *testing.T) {
	sm := joinFixture(t)
	ctx := newCtx(t, sm)
	l := &GetTable{TableName: "l"}
	r := &GetTable{TableName: "r"}
	eqPred := eq(col(0), col(2))
	for _, mode := range []JoinMode{JoinModeLeft, JoinModeSemi, JoinModeAnti} {
		nlj, err := Execute(NewNestedLoopJoin(mode, l, r, []expression.Expression{eqPred}), ctx)
		if err != nil {
			t.Fatal(err)
		}
		hj, err := Execute(NewHashJoin(mode, l, r, col(0), col(0), nil), ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sortedRows(nlj), sortedRows(hj)) {
			t.Errorf("%v: nlj=%v hash=%v", mode, sortedRows(nlj), sortedRows(hj))
		}
	}
}

func TestMultiKeyHashJoin(t *testing.T) {
	sm := storage.NewStorageManager()
	defs := []storage.ColumnDefinition{
		{Name: "k1", Type: types.TypeInt64},
		{Name: "k2", Type: types.TypeInt64},
		{Name: "v", Type: types.TypeString},
	}
	makeTable(t, sm, "ml", defs, 4, [][]types.Value{
		{types.Int(1), types.Int(1), types.Str("a")},
		{types.Int(1), types.Int(2), types.Str("b")},
		{types.Int(2), types.Int(1), types.Str("c")},
	})
	makeTable(t, sm, "mr", defs, 4, [][]types.Value{
		{types.Int(1), types.Int(1), types.Str("x")},
		{types.Int(1), types.Int(3), types.Str("y")},
		{types.Int(2), types.Int(1), types.Str("z")},
	})
	ctx := newCtx(t, sm)
	join := NewMultiKeyHashJoin(JoinModeInner,
		&GetTable{TableName: "ml"}, &GetTable{TableName: "mr"},
		[]expression.Expression{col(0), col(1)},
		[]expression.Expression{col(0), col(1)},
		nil)
	out, err := Execute(join, ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := sortedRows(out)
	want := []string{"1|1|a|1|1|x", "2|1|c|2|1|z"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("multi-key join = %v, want %v", got, want)
	}
}
