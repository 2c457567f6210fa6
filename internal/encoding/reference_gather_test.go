package encoding_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"hyrise/internal/encoding"
	"hyrise/internal/pipeline"
	"hyrise/internal/rowengine"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

var gatherSpecs = []encoding.Spec{
	{Encoding: encoding.Unencoded},
	{Encoding: encoding.Dictionary, Compression: encoding.FixedSizeByteAligned},
	{Encoding: encoding.Dictionary, Compression: encoding.BitPacked128},
	{Encoding: encoding.RunLength},
	{Encoding: encoding.FrameOfReference, Compression: encoding.FixedSizeByteAligned},
	{Encoding: encoding.FrameOfReference, Compression: encoding.BitPacked128},
}

// gatherTable is a stored table of five chunks (64 rows each, the last one
// shorter) with an int, a float and a string column, NULLs in two of them.
func gatherTable(t testing.TB, name string, spec encoding.Spec) *storage.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	table := storage.NewTable(name, []storage.ColumnDefinition{
		{Name: name + "_i", Type: types.TypeInt64, Nullable: true},
		{Name: name + "_f", Type: types.TypeFloat64},
		{Name: name + "_s", Type: types.TypeString, Nullable: true},
		{Name: name + "_k", Type: types.TypeInt64},
	}, 64, false)
	for r := 0; r < 300; r++ {
		row := []types.Value{types.Int(int64(r/3 + rng.Intn(2))), types.Float(float64(rng.Intn(40)) / 4),
			types.Str(fmt.Sprintf("s%02d", rng.Intn(30))), types.Int(int64(rng.Intn(12)))}
		if rng.Intn(9) == 0 {
			row[0] = types.NullValue
		}
		if rng.Intn(7) == 0 {
			row[2] = types.NullValue
		}
		if _, err := table.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := encoding.EncodeTable(table, &spec, nil); err != nil {
		t.Fatal(err)
	}
	return table
}

// typedValues reads a segment through the static path (encoding.Materialize)
// and boxes the result, so it can be compared with Segment.ValueAt.
func typedValues(seg storage.Segment) []types.Value {
	out := make([]types.Value, seg.Len())
	fill := func(null []bool, at func(i int) types.Value) {
		for i := range out {
			if out[i] = types.NullValue; null == nil || !null[i] {
				out[i] = at(i)
			}
		}
	}
	switch seg.DataType() {
	case types.TypeInt64:
		v, n := encoding.Materialize[int64](seg)
		fill(n, func(i int) types.Value { return types.Int(v[i]) })
	case types.TypeFloat64:
		v, n := encoding.Materialize[float64](seg)
		fill(n, func(i int) types.Value { return types.Float(v[i]) })
	default:
		v, n := encoding.Materialize[string](seg)
		fill(n, func(i int) types.Value { return types.Str(v[i]) })
	}
	return out
}

func dynamicValues(seg storage.Segment) []types.Value {
	out := make([]types.Value, seg.Len())
	for i := range out {
		out[i] = seg.ValueAt(types.ChunkOffset(i))
	}
	return out
}

// TestDiffReferenceGather: the typed gather through a position list's shared
// split returns what chasing every reference by hand returns, for every
// encoding and every shape of list an operator produces; and positions
// composed twice (a join over a join over a scan) still address the right
// rows, with the row engine as the judge.
func TestDiffReferenceGather(t *testing.T) {
	for _, spec := range gatherSpecs {
		t.Run(spec.String(), func(t *testing.T) {
			table := gatherTable(t, "g", spec)
			rng := rand.New(rand.NewSource(11))
			var ascending, shuffled, oneChunk, outer types.PosList
			var chunkOffsets []types.ChunkOffset
			for ci, c := range table.Chunks() {
				for o := 0; o < c.Size(); o++ {
					rid := types.RowID{Chunk: types.ChunkID(ci), Offset: types.ChunkOffset(o)}
					if o%3 == 0 {
						ascending = append(ascending, rid)
					}
					if ci == 2 && o%2 == 1 {
						oneChunk, chunkOffsets = append(oneChunk, rid), append(chunkOffsets, rid.Offset)
					}
				}
			}
			for i := 0; i < 200; i++ {
				ci := rng.Intn(table.ChunkCount())
				rid := types.RowID{Chunk: types.ChunkID(ci), Offset: types.ChunkOffset(rng.Intn(table.GetChunk(types.ChunkID(ci)).Size()))}
				shuffled = append(shuffled, rid)
				if outer = append(outer, rid); rng.Intn(4) == 0 {
					outer = append(outer, types.NullRowID)
				}
			}
			lists := map[string]*storage.Positions{
				"ascending":     storage.NewPositions(table, ascending),
				"shuffled":      storage.NewPositions(table, shuffled),
				"one_chunk":     storage.NewPositions(table, oneChunk),
				"scanned_chunk": storage.ChunkPositions(table, 2, chunkOffsets),
				"empty":         storage.NewPositions(table, nil),
				"outer":         storage.NewPositions(table, outer),
				"padded":        storage.NewPositions(table, append(append(types.PosList{}, ascending...), types.NullRowID, types.NullRowID)),
				"all_null":      storage.NewPositions(table, types.PosList{types.NullRowID, types.NullRowID}),
			}
			for name, pos := range lists {
				for col := 0; col < 3; col++ {
					ref := storage.NewReferenceSegment(pos, types.ColumnID(col))
					if got, want := typedValues(ref), dynamicValues(ref); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s column %d: typed gather\n%v\nValueAt\n%v", name, col, got, want)
					}
					if ref.Len() < 2 {
						continue
					}
					sub := []types.ChunkOffset{types.ChunkOffset(ref.Len() - 1), 0, 1}
					vals, nulls := encoding.MaterializePositions[int64](storage.NewReferenceSegment(pos, 3), sub)
					for i, p := range sub {
						if want := ref.Positions().Rows()[p]; nulls[i] != want.IsNull() ||
							!nulls[i] && types.Int(vals[i]) != table.GetValue(3, want) {
							t.Fatalf("%s: subset read of row %d = (%d, %v)", name, p, vals[i], nulls[i])
						}
					}
				}
			}
		})
	}

	t.Run("composed", func(t *testing.T) {
		sm := storage.NewStorageManager()
		for i, name := range []string{"ta", "tb", "tc"} {
			if err := sm.AddTable(gatherTable(t, name, gatherSpecs[1+i])); err != nil {
				t.Fatal(err)
			}
		}
		cfg := pipeline.DefaultConfig()
		cfg.UseMvcc = false
		engine := pipeline.NewEngine(cfg, sm)
		t.Cleanup(engine.Close)
		oracle := rowengine.NewFromStorage(sm)
		for _, sql := range []string{
			`SELECT ta_i, ta_s, tb_f, tb_s, tc_i, tc_s FROM ta JOIN tb ON ta_k = tb_k JOIN tc ON tb_i = tc_i
				WHERE ta_i < 40 AND tc_f > 2 AND tb_k <> 3`,
			`SELECT ta_i, tb_s, tc_f FROM ta LEFT JOIN tb ON ta_i = tb_i AND tb_k = 1 JOIN tc ON ta_k = tc_k
				WHERE ta_f >= 5 AND tc_i < 9`,
		} {
			res, err := engine.NewSession().ExecuteOne(sql)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := oracle.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			var typed [][]types.Value
			for _, c := range res.Table.Chunks() {
				cols := make([][]types.Value, c.ColumnCount())
				for col := range cols {
					seg := c.GetSegment(types.ColumnID(col))
					if _, ok := seg.(*storage.ReferenceSegment); !ok {
						t.Fatalf("%s: column %d is a %T, want the join's positions forwarded", sql, col, seg)
					}
					cols[col] = typedValues(seg)
				}
				for r := 0; r < c.Size(); r++ {
					row := make([]types.Value, len(cols))
					for col := range cols {
						row[col] = cols[col][r]
					}
					typed = append(typed, row)
				}
			}
			if len(want) == 0 {
				t.Fatalf("%s: the oracle returns no rows, the test checks nothing", sql)
			}
			if got, want := sortedRows(typed), sortedRows(want); !reflect.DeepEqual(got, want) {
				t.Errorf("%s:\ncolumnar %d rows %v\nrowengine %d rows %v", sql, len(got), got, len(want), want)
			}
		}
	})
}

func sortedRows(rows [][]types.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// TestReferenceGatherAllocatesSplitOnce pins what sharing the positions buys:
// reading four columns of one reference chunk regroups the list once — four
// reads cost one read plus three more output vectors (values and NULL flags).
func TestReferenceGatherAllocatesSplitOnce(t *testing.T) {
	table := gatherTable(t, "g", gatherSpecs[1])
	rng := rand.New(rand.NewSource(3))
	rows := make(types.PosList, 500)
	for i := range rows {
		ci := types.ChunkID(rng.Intn(table.ChunkCount()))
		rows[i] = types.RowID{Chunk: ci, Offset: types.ChunkOffset(rng.Intn(table.GetChunk(ci).Size()))}
	}
	read := func(columns int) float64 {
		return testing.AllocsPerRun(50, func() {
			pos := storage.NewPositions(table, rows)
			segs := []storage.Segment{storage.NewReferenceSegment(pos, 0), storage.NewReferenceSegment(pos, 3),
				storage.NewReferenceSegment(pos, 0), storage.NewReferenceSegment(pos, 3)}
			for _, seg := range segs[:columns] {
				encoding.Materialize[int64](seg)
			}
		})
	}
	if one, four := read(1), read(4); four != one+3*2 {
		t.Errorf("four columns of one chunk cost %v allocations, one column %v: want %v + 6", four, one, one)
	}
}
