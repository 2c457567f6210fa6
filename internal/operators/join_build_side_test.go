package operators

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hyrise/internal/expression"
	"hyrise/internal/observe"
	"hyrise/internal/scheduler"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// TestDiffJoinBuildSide: HashJoin builds on its smaller input, and whichever
// side it builds the output is the one a build on the right input gives, row
// order included — for every mode, with and without a residual predicate,
// over NULL, NaN and duplicate keys, one- and two-column keys, either side
// smaller, and one or several partitions.
func TestDiffJoinBuildSide(t *testing.T) {
	sched := scheduler.New(4)
	defer sched.Shutdown()
	rng := rand.New(rand.NewSource(70))
	// Columns: k (FLOAT, NULL every 7th, NaN every 11th row), g (INT), seq.
	rows := func(n, keys int) [][]types.Value {
		out := make([][]types.Value, n)
		for i := range out {
			k := types.Value(types.Float(float64(rng.Intn(keys))))
			switch {
			case i%7 == 3:
				k = types.NullValue
			case i%11 == 5:
				k = types.Float(math.NaN())
			}
			out[i] = []types.Value{k, types.Int(int64(rng.Intn(3))), types.Int(int64(i))}
		}
		return out
	}
	defs := func(p string) []storage.ColumnDefinition {
		return []storage.ColumnDefinition{
			{Name: p + "_k", Type: types.TypeFloat64, Nullable: true},
			{Name: p + "_g", Type: types.TypeInt64},
			{Name: p + "_seq", Type: types.TypeInt64},
		}
	}
	sizes := []struct {
		name        string
		left, right int
		side        string
	}{
		{"left_smaller", 40, 700, "left"},
		{"right_smaller", 700, 40, "right"},
		{"equal", 300, 300, "right"},
		{"left_empty", 0, 50, "left"},
	}
	residuals := map[string][]expression.Expression{
		"no_residual": nil,
		// l_seq < r_seq, over the concatenated left++right schema.
		"residual": {cmp(expression.Lt, col(2, types.TypeInt64), col(5, types.TypeInt64))},
	}
	keySets := map[string][2][]expression.Expression{
		"k":   {{col(0, types.TypeFloat64)}, {col(0, types.TypeFloat64)}},
		"k_g": {{col(0, types.TypeFloat64), col(1, types.TypeInt64)}, {col(0, types.TypeFloat64), col(1, types.TypeInt64)}},
	}
	for _, sz := range sizes {
		l := makeTable(t, nil, "l", defs("l"), 64, rows(sz.left, 12))
		r := makeTable(t, nil, "r", defs("r"), 64, rows(sz.right, 12))
		for keyName, keys := range keySets {
			for resName, res := range residuals {
				for _, mode := range allJoinModes() {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", sz.name, keyName, resName, mode), func(t *testing.T) {
						j := NewMultiKeyHashJoin(mode, tableOp(l), tableOp(r), keys[0], keys[1], res)
						for _, parts := range []int{1, 2, 8} {
							ctx := NewExecContext(nil, sched, nil)
							ctx.Trace = observe.NewTrace("")
							got, err := j.run(ctx, l, r, parts)
							if err != nil {
								t.Fatal(err)
							}
							if side := ctx.Trace.Op(j).Labels["build"]; side != sz.side {
								t.Fatalf("%d partitions: built the %s side, want %s", parts, side, sz.side)
							}
							want := forcedBuildJoin(t, NewExecContext(nil, nil, nil), j, l, r, parts, false)
							if g, w := tableRows(got), tableRows(want); !reflect.DeepEqual(g, w) {
								t.Fatalf("%d partitions: output differs from a right-side build\ngot:  %v\nwant: %v", parts, g, w)
							}
							if !reflect.DeepEqual(got.ColumnDefinitions(), want.ColumnDefinitions()) {
								t.Fatalf("%d partitions: schema %v, want %v", parts, got.ColumnDefinitions(), want.ColumnDefinitions())
							}
						}
					})
				}
			}
		}
	}
}

// forcedBuildJoin is HashJoin.run with the build forced onto the left input
// (buildLeft) or the right one.
func forcedBuildJoin(t *testing.T, ctx *ExecContext, j *HashJoin, l, r *storage.Table, parts int, buildLeft bool) *storage.Table {
	t.Helper()
	left, right, err := joinKeys(ctx, l, r, j.LeftKeys, j.RightKeys)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := j.pairs(ctx, left, right, parts, buildLeft)
	if err != nil {
		t.Fatal(err)
	}
	if ps, err = j.filterResiduals(ctx, left.rows, right.rows, ps); err != nil {
		t.Fatal(err)
	}
	return j.finish(left.rows, right.rows, ps)
}
