package operators

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"hyrise/internal/expression"
	"hyrise/internal/scheduler"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// --- key table differential -------------------------------------------------
//
// Hash join, sort-merge join and the grouped aggregate all find equal keys
// through keys.go. Here each runs over random typed key columns and is
// compared with a reference that knows nothing of hashing: a nested loop over
// boxed values for the joins, a linear search through the groups seen so far
// for GROUP BY and COUNT(DISTINCT). The reference states the key rules in the
// plainest way they can be written down.

// refValuesEqual is key equality on boxed values: one type compares by value
// with -0.0 = +0.0, an int meets a float as a float (what the engine's `=`
// does), other type pairs never match. grouping is GROUP BY's rule (NULL keys
// form one group, NaN = NaN); joins pass false, and a NULL or NaN key then
// matches nothing.
func refValuesEqual(a, b types.Value, grouping bool) bool {
	if a.IsNull() || b.IsNull() {
		return grouping && a.IsNull() && b.IsNull()
	}
	switch {
	case a.Type == types.TypeInt64 && b.Type == types.TypeInt64:
		return a.I == b.I
	case a.Type.IsNumeric() && b.Type.IsNumeric():
		x, y := a.AsFloat(), b.AsFloat()
		return x == y || (grouping && math.IsNaN(x) && math.IsNaN(y))
	case a.Type == types.TypeString && b.Type == types.TypeString:
		return a.S == b.S
	}
	return false
}

func refKeysEqual(a, b []types.Value, nKeys int, grouping bool) bool {
	for k := 0; k < nKeys; k++ {
		if !refValuesEqual(a[k], b[k], grouping) {
			return false
		}
	}
	return true
}

func renderRow(vals ...types.Value) string {
	s := ""
	for i, v := range vals {
		if i > 0 {
			s += "|"
		}
		s += v.String()
	}
	return s
}

func nullRow(n int) []types.Value {
	out := make([]types.Value, n)
	for i := range out {
		out[i] = types.NullValue
	}
	return out
}

// refKeyJoin is the nested-loop reference over the first nKeys columns. The
// inner pairs come out in the order every hash join fan-out must reproduce:
// left rows in order, and for each the matching right rows in order.
func refKeyJoin(mode JoinMode, left, right [][]types.Value, nKeys int) []string {
	var pairs, unmatchedLeft, kept []string
	matchedRight := make([]bool, len(right))
	for _, l := range left {
		matched := false
		for ri, r := range right {
			if refKeysEqual(l, r, nKeys, false) {
				matched = true
				matchedRight[ri] = true
				pairs = append(pairs, renderRow(append(append([]types.Value{}, l...), r...)...))
			}
		}
		if matched == (mode == JoinModeSemi) {
			kept = append(kept, renderRow(l...))
		}
		if !matched {
			unmatchedLeft = append(unmatchedLeft, renderRow(append(append([]types.Value{}, l...), nullRow(len(l))...)...))
		}
	}
	if mode == JoinModeSemi || mode == JoinModeAnti {
		return kept
	}
	out := pairs
	if mode.nullExtendsRight() {
		out = append(out, unmatchedLeft...)
	}
	if mode.nullExtendsLeft() {
		for ri, m := range matchedRight {
			if !m {
				out = append(out, renderRow(append(nullRow(len(right[ri])), right[ri]...)...))
			}
		}
	}
	return out
}

// refGroupBy groups by the first nKeys columns and counts rows and the
// distinct non-NULL values of column nKeys, by linear search: groups come out
// in order of first appearance, carrying the key of the row that opened them.
func refGroupBy(rows [][]types.Value, nKeys int) []string {
	type refGroup struct {
		key      []types.Value
		count    int
		distinct []types.Value
	}
	var groups []*refGroup
	for _, row := range rows {
		var g *refGroup
		for _, cand := range groups {
			if refKeysEqual(cand.key, row, nKeys, true) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &refGroup{key: row[:nKeys]}
			groups = append(groups, g)
		}
		g.count++
		arg := row[nKeys]
		seen := arg.IsNull()
		for _, d := range g.distinct {
			seen = seen || refValuesEqual(d, arg, true)
		}
		if !seen {
			g.distinct = append(g.distinct, arg)
		}
	}
	out := make([]string, len(groups))
	for i, g := range groups {
		out[i] = renderRow(append(append([]types.Value{}, g.key...), types.Int(int64(g.count)), types.Int(int64(len(g.distinct))))...)
	}
	return out
}

// keyPools are the value pools key columns draw from: small enough that keys
// repeat, and holding the values whose handling the key rules pin.
var keyPools = map[types.DataType][]types.Value{
	types.TypeInt64: {
		types.Int(0), types.Int(1), types.Int(-1), types.Int(2), types.Int(7),
		types.Int(math.MaxInt64), types.Int(math.MinInt64), types.Int(1 << 53), types.Int(1<<53 + 1),
	},
	types.TypeFloat64: {
		types.Float(0), types.Float(math.Copysign(0, -1)), types.Float(1), types.Float(-1), types.Float(2),
		types.Float(7), types.Float(0.5), types.Float(-2.25), types.Float(1 << 53), types.Float(1 << 63),
		types.Float(math.Inf(1)), types.Float(math.NaN()), types.Float(math.Float64frombits(0x7FF8000000000123)),
	},
	types.TypeString: {
		// The last two pairs are what a rendered composite key confused: a
		// component holding the separator and the next component's type tag.
		types.Str(""), types.Str("a"), types.Str("b"), types.Str("c"), types.Str("ab"), types.Str("\x00"),
		types.Str("a\x00"), types.Str("a\x003b"), types.Str("b\x003c"), types.Str("a\x001b"),
	},
}

// randomKeyRows draws n rows of the given key column types, each value NULL
// one time in nullEvery (0: never), followed by a sequence column that makes
// every row distinguishable in the output.
func randomKeyRows(rng *rand.Rand, n int, keyTypes []types.DataType, nullEvery int) [][]types.Value {
	rows := make([][]types.Value, n)
	for i := range rows {
		row := make([]types.Value, 0, len(keyTypes)+1)
		for _, dt := range keyTypes {
			pool := keyPools[dt]
			v := pool[rng.Intn(len(pool))]
			if nullEvery > 0 && rng.Intn(nullEvery) == 0 {
				v = types.NullValue
			}
			row = append(row, v)
		}
		rows[i] = append(row, types.Int(int64(i)))
	}
	return rows
}

func keyedTable(t *testing.T, name string, keyTypes []types.DataType, rows [][]types.Value) *storage.Table {
	t.Helper()
	var defs []storage.ColumnDefinition
	for i, dt := range keyTypes {
		defs = append(defs, storage.ColumnDefinition{Name: fmt.Sprintf("%s_k%d", name, i), Type: dt, Nullable: true})
	}
	defs = append(defs, storage.ColumnDefinition{Name: name + "_seq", Type: types.TypeInt64})
	return makeTable(t, nil, name, defs, 48, rows)
}

func keyCols(keyTypes []types.DataType) []expression.Expression {
	out := make([]expression.Expression, len(keyTypes))
	for i, dt := range keyTypes {
		out[i] = col(i, dt)
	}
	return out
}

func TestDiffKeyTable(t *testing.T) {
	sched := scheduler.New(4)
	defer sched.Shutdown()
	I, F, S := types.TypeInt64, types.TypeFloat64, types.TypeString

	// keyRows are one-key rows holding keys, in order.
	keyRows := func(keys ...types.Value) [][]types.Value {
		rows := make([][]types.Value, len(keys))
		for i, k := range keys {
			rows[i] = []types.Value{k, types.Int(int64(i))}
		}
		return rows
	}
	// cutRun is 100 probe keys that are all 7 but the first and the last:
	// every range boundary at 2 and 8 ranges falls inside the run.
	cutRun := append(append([]types.Value{types.Int(1)}, slices.Repeat([]types.Value{types.Int(7)}, 98)...), types.Int(2))
	nullNaN := slices.Repeat([]types.Value{types.NullValue, types.Float(math.NaN())}, 20)
	joinCases := []struct {
		name        string
		left, right []types.DataType
		// rows, if set, gives the inputs instead of 260 and 200 random rows.
		rows func(rng *rand.Rand) (left, right [][]types.Value)
	}{
		{"int", []types.DataType{I}, []types.DataType{I}, nil},
		{"float", []types.DataType{F}, []types.DataType{F}, nil},
		{"string", []types.DataType{S}, []types.DataType{S}, nil},
		{"int=float", []types.DataType{I}, []types.DataType{F}, nil},
		{"float=int", []types.DataType{F}, []types.DataType{I}, nil},
		{"string,string", []types.DataType{S, S}, []types.DataType{S, S}, nil},
		{"int,string", []types.DataType{I, S}, []types.DataType{I, S}, nil},
		{"int=float,string,float=int", []types.DataType{I, S, F}, []types.DataType{F, S, I}, nil},
		{"string=int", []types.DataType{S}, []types.DataType{I}, nil}, // never matches
		// Edges of the probe ranges; each side is built once below, so each
		// side is probed once.
		{"empty_side", []types.DataType{F}, []types.DataType{F}, func(rng *rand.Rand) ([][]types.Value, [][]types.Value) {
			return nil, randomKeyRows(rng, 30, []types.DataType{F}, 7)
		}},
		{"fewer_rows_than_ranges", []types.DataType{I}, []types.DataType{I}, func(*rand.Rand) ([][]types.Value, [][]types.Value) {
			return keyRows(types.Int(7), types.Int(1), types.Int(7)), keyRows(types.Int(7), types.Int(7))
		}},
		{"cut_run_of_equal_keys", []types.DataType{I}, []types.DataType{I}, func(*rand.Rand) ([][]types.Value, [][]types.Value) {
			return keyRows(cutRun...), keyRows(types.Int(7), types.Int(2), types.NullValue, types.Int(7), types.Int(3))
		}},
		{"all_null_or_nan", []types.DataType{F}, []types.DataType{F}, func(rng *rand.Rand) ([][]types.Value, [][]types.Value) {
			return randomKeyRows(rng, 200, []types.DataType{F}, 9), keyRows(nullNaN...)
		}},
	}
	modes := append(allJoinModes(), JoinModeCross) // a keyed Cross join is an Inner join
	for ci, jc := range joinCases {
		rng := rand.New(rand.NewSource(int64(100 + ci)))
		var left, right [][]types.Value
		if jc.rows != nil {
			left, right = jc.rows(rng)
		} else {
			left = randomKeyRows(rng, 260, jc.left, 9)
			right = randomKeyRows(rng, 200, jc.right, 7)
		}
		l, r := keyedTable(t, "l", jc.left, left), keyedTable(t, "r", jc.right, right)
		nKeys := len(jc.left)
		for _, mode := range modes {
			t.Run(fmt.Sprintf("join/%s/%s", jc.name, mode), func(t *testing.T) {
				want := refKeyJoin(mode, left, right, nKeys)
				hashJoin := func(ctx *ExecContext, parts int) []string {
					t.Helper()
					ctx.morselRows = 100 // several morsels per side
					j := NewMultiKeyHashJoin(mode, tableOp(l), tableOp(r), keyCols(jc.left), keyCols(jc.right), nil)
					out, err := j.run(ctx, l, r, parts)
					if err != nil {
						t.Fatalf("hash join, %d partitions: %v", parts, err)
					}
					return tableRows(out)
				}
				// The reference lists pairs, then unmatched left rows, then
				// unmatched right rows, each in row order — the sequence the
				// hash join must emit for every partition count, whichever
				// side it builds.
				for _, parts := range []int{1, 2, 8} {
					ctx := NewExecContext(nil, nil, nil)
					if parts > 1 {
						ctx = NewExecContext(nil, sched, nil)
					}
					if got := hashJoin(ctx, parts); !reflect.DeepEqual(got, want) {
						t.Fatalf("hash join, %d partitions, differs from reference\ngot:  %q\nwant: %q", parts, got, want)
					}
					j := NewMultiKeyHashJoin(mode, tableOp(l), tableOp(r), keyCols(jc.left), keyCols(jc.right), nil)
					for _, buildLeft := range []bool{false, true} {
						if got := tableRows(forcedBuildJoin(t, ctx, j, l, r, parts, buildLeft)); !reflect.DeepEqual(got, want) {
							t.Fatalf("hash join, %d partitions, left built %v, differs from reference\ngot:  %q\nwant: %q", parts, buildLeft, got, want)
						}
					}
				}
				if nKeys > 1 || mode == JoinModeCross {
					return
				}
				if jc.left[0] != jc.right[0] && !(jc.left[0].IsNumeric() && jc.right[0].IsNumeric()) {
					return // the sort-merge join refuses incomparable key types
				}
				smj, err := Execute(NewSortMergeJoin(mode, tableOp(l), tableOp(r), col(0, jc.left[0]), col(0, jc.right[0]), nil), NewExecContext(nil, nil, nil))
				if err != nil {
					t.Fatal(err)
				}
				got, sortedWant := sortedRows(smj), append([]string(nil), want...)
				sort.Strings(sortedWant)
				if !reflect.DeepEqual(got, sortedWant) {
					t.Fatalf("sort-merge join differs from reference\ngot:  %q\nwant: %q", got, sortedWant)
				}
			})
		}
	}

	groupCases := [][]types.DataType{{I}, {F}, {S}, {S, S}, {I, F}, {S, I, F}}
	for ci, keyTypes := range groupCases {
		for _, argType := range []types.DataType{I, F, S} {
			t.Run(fmt.Sprintf("group/%v/distinct_%s", keyTypes, argType), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(200 + ci)))
				colTypes := append(append([]types.DataType{}, keyTypes...), argType)
				rows := randomKeyRows(rng, 400, colTypes, 8)
				table := keyedTable(t, "g", colTypes, rows)
				nKeys := len(keyTypes)
				want := refGroupBy(rows, nKeys)

				names := make([]string, nKeys+2)
				outTypes := append(append([]types.DataType{}, keyTypes...), I, I)
				for _, mode := range []ParallelMode{ParallelSerial, ParallelForce} { // 1 and 4 merge shards
					ctx := NewExecContext(nil, sched, nil)
					ctx.Parallel = mode
					op := NewAggregate(tableOp(table), keyCols(keyTypes),
						[]*expression.Aggregate{{Fn: expression.AggCountStar}, {Fn: expression.AggCountDistinct, Arg: col(nKeys, argType)}},
						names, outTypes)
					out, err := Execute(op, ctx)
					if err != nil {
						t.Fatal(err)
					}
					if got := tableRows(out); !reflect.DeepEqual(got, want) {
						t.Fatalf("mode %d: groups differ from reference (values or order)\ngot:  %q\nwant: %q", mode, got, want)
					}
				}
			})
		}
	}
}

// TestKeyComponentsStaySeparate is the regression test for the rendered
// composite key: components were joined with a 0 byte and a type-tag byte, so
// a string component holding those bytes made two different two-column keys
// render alike — the join matched them and GROUP BY merged them.
func TestKeyComponentsStaySeparate(t *testing.T) {
	tag := string(rune('0' + types.TypeString))
	defs := []storage.ColumnDefinition{{Name: "a", Type: types.TypeString}, {Name: "b", Type: types.TypeString}}
	one := [][]types.Value{{types.Str("a\x00" + tag + "b"), types.Str("c")}}
	other := [][]types.Value{{types.Str("a"), types.Str("b\x00" + tag + "c")}}
	l, r := makeTable(t, nil, "l", defs, 4, one), makeTable(t, nil, "r", defs, 4, other)
	both := makeTable(t, nil, "both", defs, 4, append(one, other...))
	ab := []types.DataType{types.TypeString, types.TypeString}

	join := NewMultiKeyHashJoin(JoinModeInner, tableOp(l), tableOp(r), keyCols(ab), keyCols(ab), nil)
	out, err := Execute(join, NewExecContext(nil, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.RowCount() != 0 {
		t.Errorf("join matched different keys: %q", tableRows(out))
	}

	agg := NewAggregate(tableOp(both), keyCols(ab), []*expression.Aggregate{{Fn: expression.AggCountStar}},
		[]string{"a", "b", "n"}, []types.DataType{types.TypeString, types.TypeString, types.TypeInt64})
	out, err = Execute(agg, NewExecContext(nil, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.RowCount() != 2 {
		t.Errorf("GROUP BY merged different keys: %q", tableRows(out))
	}
}

// TestGroupByFloatZeroAndNaN pins the numeric key rules GROUP BY shares with
// `=` and the join: -0.0 and +0.0 are one group (they were two, "-0" and
// "0"), and every NaN is one group whatever its payload. Each group shows the
// key of its first row.
func TestGroupByFloatZeroAndNaN(t *testing.T) {
	defs := []storage.ColumnDefinition{{Name: "f", Type: types.TypeFloat64}}
	negZero := math.Copysign(0, -1)
	rows := [][]types.Value{
		{types.Float(negZero)}, {types.Float(math.NaN())}, {types.Float(0)},
		{types.Float(math.Float64frombits(0x7FF8000000000123))}, {types.Float(negZero)}, {types.Float(1)},
	}
	table := makeTable(t, nil, "f", defs, 2, rows)
	agg := NewAggregate(tableOp(table), keyCols([]types.DataType{types.TypeFloat64}), []*expression.Aggregate{{Fn: expression.AggCountStar}},
		[]string{"f", "n"}, []types.DataType{types.TypeFloat64, types.TypeInt64})
	out, err := Execute(agg, NewExecContext(nil, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"-0|3", "NaN|2", "1|1"}
	if got := tableRows(out); !reflect.DeepEqual(got, want) {
		t.Errorf("float groups = %q, want %q", got, want)
	}
}
