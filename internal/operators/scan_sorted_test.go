package operators

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"hyrise/internal/encoding"
	"hyrise/internal/expression"
	"hyrise/internal/observe"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// sortedColumn is one fuzzed column: the rows as they are appended, and the
// same rows as typed slices for the reference scan.
type sortedColumn struct {
	dt    types.DataType
	rows  []types.Value
	nulls []bool // nil without NULLs
	ints  []int64
	flts  []float64
	strs  []string
}

// fuzzValue maps a byte onto a value of the column type: few distinct values,
// so duplicates and runs are common, and for FLOAT the ones comparisons treat
// specially (NaN, ±0, ±Inf).
func fuzzValue(dt types.DataType, b byte) types.Value {
	switch dt {
	case types.TypeInt64:
		return types.Int(int64(int8(b)) / 4)
	case types.TypeFloat64:
		switch b {
		case 0x80:
			return types.Float(math.NaN())
		case 0x81:
			return types.Float(math.Inf(-1))
		case 0x7F:
			return types.Float(math.Inf(1))
		case 0x01:
			return types.Float(math.Copysign(0, -1))
		}
		return types.Float(float64(int8(b)/4) / 2)
	default:
		if b%32 == 0 {
			return types.Str("")
		}
		return types.Str(string([]byte{'a' + b%8, 'a' + b/8%4}[:1+b%2]))
	}
}

// fuzzOperand maps an integer onto a predicate operand: of the column's type
// (kind 0), a FLOAT against every column — integral (1), fractional like the
// 2.5 an INT column cannot hold (2), NaN (3), ±Inf (4, 5) — or a string.
func fuzzOperand(dt types.DataType, kind uint8, x int64) types.Value {
	if dt == types.TypeString {
		if kind%6 == 1 {
			return types.Int(x % 40) // a number against a STRING column
		}
		return fuzzValue(dt, byte(x))
	}
	switch kind % 6 {
	case 1:
		return types.Float(float64(x % 40))
	case 2:
		return types.Float(float64(x%40) + 0.5)
	case 3:
		return types.Float(math.NaN())
	case 4:
		return types.Float(math.Inf(1))
	case 5:
		return types.Float(math.Inf(-1))
	}
	if dt == types.TypeInt64 {
		return types.Int(x % 40)
	}
	return types.Float(float64(x%40) / 2)
}

// buildSortedColumn decodes the fuzz input: one row per byte (low nibble 0xF
// is a NULL where the column allows them), the first sortedPrefix rows put in
// ascending order — NULL and NaN last, so a prefix that covers the column
// makes it ascending over exactly its comparable rows.
func buildSortedColumn(data []byte, shape uint8, sortedPrefix uint16) sortedColumn {
	col := sortedColumn{dt: []types.DataType{types.TypeInt64, types.TypeFloat64, types.TypeString}[shape%3]}
	withNulls := shape&4 != 0
	for _, b := range data {
		v := fuzzValue(col.dt, b)
		if withNulls && b&0x0F == 0x0F {
			v = types.NullValue
		}
		col.rows = append(col.rows, v)
	}
	rank := func(v types.Value) int {
		switch {
		case v.IsNull():
			return 2
		case v.Type == types.TypeFloat64 && math.IsNaN(v.F):
			return 1
		}
		return 0
	}
	slices.SortStableFunc(col.rows[:min(int(sortedPrefix), len(col.rows))], func(a, b types.Value) int {
		if ra, rb := rank(a), rank(b); ra != rb || ra != 0 {
			return ra - rb
		}
		c, _ := types.Compare(a, b)
		return c
	})
	for i, v := range col.rows {
		if v.IsNull() {
			if col.nulls == nil {
				col.nulls = make([]bool, len(col.rows))
			}
			col.nulls[i] = true
		}
		switch col.dt {
		case types.TypeInt64:
			col.ints = append(col.ints, v.AsInt())
		case types.TypeFloat64:
			col.flts = append(col.flts, v.AsFloat())
		default:
			col.strs = append(col.strs, v.S)
		}
	}
	return col
}

// reference is ScanValues over the typed rows: what every rung must return.
func (col sortedColumn) reference(p encoding.ScanPredicate) ([]types.ChunkOffset, bool) {
	switch col.dt {
	case types.TypeInt64:
		return encoding.ScanValues(p, col.ints, col.nulls, nil)
	case types.TypeFloat64:
		return encoding.ScanValues(p, col.flts, col.nulls, nil)
	default:
		return encoding.ScanValues(p, col.strs, col.nulls, nil)
	}
}

// ascends reports whether every row is comparable and no smaller than the one
// before it: the only columns the sorted rung may take.
func (col sortedColumn) ascends() bool {
	for i, v := range col.rows {
		if v.IsNull() || (v.Type == types.TypeFloat64 && math.IsNaN(v.F)) {
			return false
		}
		if c, _ := types.Compare(col.rows[i-min(i, 1)], v); c > 0 {
			return false
		}
	}
	return len(col.rows) > 0
}

// sameZone compares two zones bound by bound (-0 and +0 are one bound).
func sameZone(a, b storage.Zone) bool {
	same := func(x, y types.Value) bool {
		c, ok := types.Compare(x, y)
		return x.Type == y.Type && (x.IsNull() || (ok && c == 0))
	}
	return a.Ascending == b.Ascending && same(a.Min, b.Min) && same(a.Max, b.Max)
}

// scanExpr is the expression form of a scan predicate over column 0, the one
// the fallback rung evaluates.
func scanExpr(dt types.DataType, p encoding.ScanPredicate) expression.Expression {
	x := &expression.BoundColumn{DT: dt}
	switch p.Op {
	case encoding.ScanBetween:
		return &expression.Between{Child: x, Lo: lit(p.Lo), Hi: lit(p.Hi)}
	case encoding.ScanIsNull, encoding.ScanIsNotNull:
		return &expression.IsNull{Child: x, Negate: p.Op == encoding.ScanIsNotNull}
	}
	for _, op := range []expression.ComparisonOp{expression.Eq, expression.Ne, expression.Lt, expression.Le, expression.Gt, expression.Ge} {
		if sop, _ := scanOpOf(op); sop == p.Op {
			return &expression.Comparison{Op: op, Left: x, Right: lit(p.Value)}
		}
	}
	panic(fmt.Sprintf("no expression for %v", p.Op))
}

// FuzzSortedScan is the differential of the sorted rung: over a column the
// table was given row by row (so its zone is the one the appends wrote) and
// over the same chunk installed whole from each encoding (so its zone is the
// one the encoded segment reports), scanChunkSpecialized must return exactly
// what ScanValues returns — for every operator, INT, FLOAT (NaN, ±0, ±Inf)
// and STRING columns, duplicates, all-equal and empty columns, NULLs, an
// ascending prefix shorter than the column, and operands of another type —
// and it must take the sorted rung exactly when the whole column ascends and
// the predicate is one interval. The fallback rung, the evaluator, must
// return the same rows for operands of the column's own type (an INT column
// and a FLOAT operand compare as floats, which rounds past 2^53).
func FuzzSortedScan(f *testing.F) {
	ascending := make([]byte, 200)
	for i := range ascending {
		ascending[i] = byte(i / 2)
	}
	for shape := uint8(0); shape < 3; shape++ {
		f.Add(ascending, shape, uint16(200), uint8(0), uint8(0), int64(11), int64(5), int64(17))         // = on a sorted column
		f.Add(ascending, shape, uint16(200), uint8(6), uint8(2), int64(11), int64(5), int64(17))         // BETWEEN 5.5 AND 17.5
		f.Add(ascending, shape, uint16(120), uint8(3), uint8(0), int64(9), int64(0), int64(0))           // prefix shorter than the column
		f.Add(ascending, shape|4, uint16(200), uint8(5), uint8(1), int64(3), int64(0), int64(0))         // NULLs sorted to the end
		f.Add([]byte{7, 7, 7, 7, 7}, shape, uint16(5), uint8(2), uint8(0), int64(1), int64(0), int64(0)) // all equal
		f.Add([]byte{}, shape, uint16(0), uint8(0), uint8(0), int64(0), int64(0), int64(0))              // empty
	}
	f.Add([]byte{0x81, 0x01, 0x00, 0x02, 0x7F, 0x80}, uint8(1), uint16(6), uint8(4), uint8(3), int64(0), int64(0), int64(0)) // -Inf -0 +0 .. +Inf NaN, > NaN
	f.Add([]byte{0x81, 0x01, 0x00, 0x02, 0x7F}, uint8(1), uint16(5), uint8(1), uint8(5), int64(0), int64(0), int64(0))       // <> -Inf
	f.Add(ascending, uint8(0), uint16(200), uint8(0), uint8(2), int64(2), int64(0), int64(0))                                // INT column = 2.5
	// NaN rows meet 0.5 under =, <= and <>.
	for _, op := range []encoding.ScanOp{encoding.ScanEq, encoding.ScanLe, encoding.ScanNe} {
		f.Add([]byte{0x80, 0x02, 0x04, 0x80}, uint8(1), uint16(0), uint8(op), uint8(0), int64(1), int64(0), int64(0))
	}

	f.Fuzz(func(t *testing.T, data []byte, shape uint8, sortedPrefix uint16, opByte, operandKind uint8, probe, lo, hi int64) {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		col := buildSortedColumn(data, shape, sortedPrefix)
		pred := encoding.ScanPredicate{Op: encoding.ScanOp(opByte % 9)}
		switch pred.Op {
		case encoding.ScanBetween:
			pred.Lo, pred.Hi = fuzzOperand(col.dt, operandKind, lo), fuzzOperand(col.dt, operandKind, hi)
		case encoding.ScanIsNull, encoding.ScanIsNotNull:
		default:
			pred.Value = fuzzOperand(col.dt, operandKind, probe)
		}
		want, wantOK := col.reference(pred)
		_, _, interval := scanInterval(&pred)
		wantSorted := wantOK && interval && col.ascends()
		typed := pred.Value.Type == col.dt
		switch pred.Op {
		case encoding.ScanBetween:
			typed = pred.Lo.Type == col.dt && pred.Hi.Type == col.dt
		case encoding.ScanIsNull, encoding.ScanIsNotNull:
			typed = true
		}

		defs := []storage.ColumnDefinition{{Name: "x", Type: col.dt, Nullable: true}}
		appended := storage.NewTable("appended", defs, len(col.rows)+1, false)
		for _, v := range col.rows {
			if _, err := appended.AppendRow([]types.Value{v}); err != nil {
				t.Fatal(err)
			}
		}
		check := func(layout string, c *storage.Chunk) {
			t.Helper()
			got, _, kind, ok := scanChunkSpecialized(c, &simplePredicate{column: 0, pred: pred}, false)
			if ok != wantOK {
				t.Fatalf("%s: %v %v answered = %v, ScanValues %v", layout, pred.Op, pred.Value, ok, wantOK)
			}
			if ok && !slices.Equal(got, want) {
				t.Fatalf("%s: %v value=%v lo=%v hi=%v over %v: got %v, ScanValues %v", layout, pred.Op, pred.Value, pred.Lo, pred.Hi, col.rows, got, want)
			}
			if sorted := ok && kind == observe.ScanPathSorted; sorted != wantSorted {
				t.Fatalf("%s: %v over %v: sorted rung taken = %v, want %v", layout, pred.Op, col.rows, sorted, wantSorted)
			}
			if typed {
				got, err := (&chunkScan{ctx: NewExecContext(nil, nil, nil)}).eval(c, scanExpr(col.dt, pred), nil)
				if err != nil || !slices.Equal(got, want) {
					t.Fatalf("%s: fallback rung, %v value=%v lo=%v hi=%v over %v: got %v (%v), ScanValues %v", layout, pred.Op, pred.Value, pred.Lo, pred.Hi, col.rows, got, err, want)
				}
			}
		}
		if len(col.rows) == 0 {
			return // a chunk without rows is never scanned (chunkScan.run)
		}
		tail := appended.GetChunk(0)
		check("mutable tail", tail)
		appended.SealTail()
		check("sealed", tail)

		specs := []encoding.Spec{
			{Encoding: encoding.Dictionary, Compression: encoding.FixedSizeByteAligned},
			{Encoding: encoding.Dictionary, Compression: encoding.BitPacked128},
			{Encoding: encoding.RunLength},
		}
		if col.dt != types.TypeString { // a FLOAT column of exact decimals is frame-of-reference too
			specs = append(specs,
				encoding.Spec{Encoding: encoding.FrameOfReference, Compression: encoding.FixedSizeByteAligned},
				encoding.Spec{Encoding: encoding.FrameOfReference, Compression: encoding.BitPacked128})
		}
		written, _ := tail.Zone(0)
		for _, spec := range specs {
			enc, _ := encoding.Seal(tail.GetSegment(0), false, &spec)
			// Installed whole, as a snapshot restore does: the zone is rebuilt
			// from the encoded segment and must be the one the appends wrote.
			installed := storage.NewChunk([]storage.Segment{enc}, nil)
			installed.Finalize()
			storage.NewTable("installed", defs, len(col.rows)+1, false).AppendChunk(installed)
			if rebuilt, _ := installed.Zone(0); !sameZone(rebuilt, written) {
				t.Fatalf("%v: zone rebuilt from the segment %+v, written with the rows %+v", spec, rebuilt, written)
			}
			check(spec.String()+" installed", installed)
		}
	})
}

// TestDiffSortedRungStopsAtDescent: a tail that ascends is binary-searched while
// it grows; from the row that descends on, no view of the chunk takes the
// sorted rung again, and both before and after the scan finds every row.
func TestDiffSortedRungStopsAtDescent(t *testing.T) {
	sm := storage.NewStorageManager()
	table := makeTable(t, sm, "t", []storage.ColumnDefinition{{Name: "id", Type: types.TypeInt64}}, 1000, nil)
	find := func(id int64) (rows int, sorted int64) {
		t.Helper()
		ctx, m, _ := meteredCtx(t, sm)
		out, err := Execute(NewTableScan(&GetTable{TableName: "t"}, eq(col(0), lit(types.Int(id)))), ctx)
		if err != nil {
			t.Fatal(err)
		}
		return out.RowCount(), m.ScanSegmentsSorted.Value()
	}
	const k = 40
	for i := int64(0); i < k; i++ {
		if _, err := table.AppendRow([]types.Value{types.Int(2 * i)}); err != nil {
			t.Fatal(err)
		}
		if rows, sorted := find(2 * i); rows != 1 || sorted != 1 {
			t.Fatalf("after %d ascending rows: id = %d found %d times on %d sorted chunks, want 1 and 1", i+1, 2*i, rows, sorted)
		}
	}
	for i := int64(0); i < k-1; i++ {
		if _, err := table.AppendRow([]types.Value{types.Int(2*k - 3 - 2*i)}); err != nil { // odd, descending from below the last even id
			t.Fatal(err)
		}
		for _, id := range []int64{2 * i, 2*k - 3 - 2*i} {
			if rows, sorted := find(id); rows != 1 || sorted != 0 {
				t.Fatalf("%d rows after the descent: id = %d found %d times on %d sorted chunks, want 1 and 0", i+1, id, rows, sorted)
			}
		}
	}
	if z, _ := table.GetChunk(0).Zone(0); z.Ascending != k {
		t.Errorf("the column ascends over %d rows, want %d", z.Ascending, k)
	}
}
