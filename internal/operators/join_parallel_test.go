package operators

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"hyrise/internal/expression"
	"hyrise/internal/scheduler"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// --- differential join tests ----------------------------------------------
//
// Every join implementation and partition count is checked against an
// independent naive nested-loop reference computed directly over the row
// values. The hash join must additionally emit the same rows in the same
// order for every partition count (not just the same set): all of them
// restore global probe order by construction.

// refJoin computes the expected join output as row strings, independent of
// any operator code. Key column is 0 on both sides; NULL keys never match.
func refJoin(mode JoinMode, left, right [][]types.Value) []string {
	render := func(vals ...types.Value) string {
		s := ""
		for i, v := range vals {
			if i > 0 {
				s += "|"
			}
			s += v.String()
		}
		return s
	}
	nullsFor := func(n int) []types.Value {
		out := make([]types.Value, n)
		for i := range out {
			out[i] = types.NullValue
		}
		return out
	}
	var out []string
	matchedRight := make([]bool, len(right))
	for _, l := range left {
		matched := false
		for ri, r := range right {
			if c, ok := types.Compare(l[0], r[0]); !ok || c != 0 {
				continue
			}
			matched = true
			matchedRight[ri] = true
			if mode != JoinModeSemi && mode != JoinModeAnti {
				out = append(out, render(append(append([]types.Value{}, l...), r...)...))
			}
		}
		switch {
		case mode == JoinModeSemi && matched, mode == JoinModeAnti && !matched:
			out = append(out, render(l...))
		case mode.nullExtendsRight() && !matched:
			out = append(out, render(append(append([]types.Value{}, l...), nullsFor(2)...)...))
		}
	}
	if mode.nullExtendsLeft() {
		for ri, m := range matchedRight {
			if !m {
				out = append(out, render(append(nullsFor(2), right[ri]...)...))
			}
		}
	}
	return out
}

// joinDataset is one differential-test input.
type joinDataset struct {
	name        string
	left, right [][]types.Value
}

func joinDatasets() []joinDataset {
	rng := rand.New(rand.NewSource(42))
	rows := func(n, keyRange, nullEvery int) [][]types.Value {
		out := make([][]types.Value, n)
		for i := range out {
			key := types.Value(types.Int(int64(rng.Intn(keyRange))))
			if nullEvery > 0 && i%nullEvery == 0 {
				key = types.NullValue
			}
			out[i] = []types.Value{key, types.Int(int64(i))}
		}
		return out
	}
	return []joinDataset{
		{"both_empty", nil, nil},
		{"empty_left", nil, rows(20, 5, 0)},
		{"empty_right", rows(20, 5, 0), nil},
		{"small_random", rows(50, 20, 0), rows(40, 20, 0)},
		{"null_keys", rows(60, 10, 4), rows(60, 10, 3)},
		{"duplicate_heavy", rows(120, 3, 0), rows(90, 3, 0)},
		{"no_overlap", rows(30, 5, 0), func() [][]types.Value {
			r := rows(30, 5, 0)
			for i := range r {
				if !r[i][0].IsNull() {
					r[i][0] = types.Int(r[i][0].I + 1000)
				}
			}
			return r
		}()},
		{"large_random", rows(3000, 100, 7), rows(2500, 100, 5)},
	}
}

func joinInputTables(t *testing.T, ds joinDataset, chunkSize int) (*storage.Table, *storage.Table) {
	t.Helper()
	defs := func(prefix string) []storage.ColumnDefinition {
		return []storage.ColumnDefinition{
			{Name: prefix + "_key", Type: types.TypeInt64, Nullable: true},
			{Name: prefix + "_seq", Type: types.TypeInt64},
		}
	}
	l := makeTable(t, nil, "l", defs("l"), chunkSize, ds.left)
	r := makeTable(t, nil, "r", defs("r"), chunkSize, ds.right)
	return l, r
}

func allJoinModes() []JoinMode {
	return []JoinMode{JoinModeInner, JoinModeLeft, JoinModeRight, JoinModeFull, JoinModeSemi, JoinModeAnti}
}

func TestDiffJoinAgainstReference(t *testing.T) {
	sched := scheduler.New(4)
	defer sched.Shutdown()

	for _, ds := range joinDatasets() {
		for _, mode := range allJoinModes() {
			t.Run(fmt.Sprintf("%s/%s", ds.name, mode), func(t *testing.T) {
				l, r := joinInputTables(t, ds, 64)
				want := refJoin(mode, ds.left, ds.right)
				sort.Strings(want)

				runWith := func(name string, ctx *ExecContext, op Operator) []string {
					t.Helper()
					out, err := Execute(op, ctx)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					return tableRows(out)
				}

				hashJoin := func(ctx *ExecContext, parts int) []string {
					t.Helper()
					j := NewHashJoin(mode, tableOp(l), tableOp(r), col(0, types.TypeInt64), col(0, types.TypeInt64), nil)
					out, err := j.run(ctx, l, r, parts)
					if err != nil {
						t.Fatalf("hash join, %d partitions: %v", parts, err)
					}
					return tableRows(out)
				}
				serial := hashJoin(NewExecContext(nil, nil, nil), 1)
				for _, parts := range []int{2, 8} {
					radix := hashJoin(NewExecContext(nil, sched, nil), parts)
					// Must match one partition exactly, including row order.
					if !reflect.DeepEqual(radix, serial) {
						t.Fatalf("%d partitions: order differs from 1 partition\nradix:  %v\nserial: %v", parts, radix, serial)
					}
				}

				sorted := append([]string(nil), serial...)
				sort.Strings(sorted)
				if !reflect.DeepEqual(sorted, want) {
					t.Fatalf("hash join differs from reference\ngot:  %v\nwant: %v", sorted, want)
				}

				sortMerge := func(name string, ctx *ExecContext) []string {
					t.Helper()
					return runWith(name, ctx, NewSortMergeJoin(mode, tableOp(l), tableOp(r), col(0, types.TypeInt64), col(0, types.TypeInt64), nil))
				}
				smj := sortMerge("sortmerge", NewExecContext(nil, nil, nil))
				fanned := NewExecContext(nil, sched, nil)
				fanned.Parallel = ParallelForce
				// Both sides' sorts fan out to 4 runs: the order must not move.
				if par := sortMerge("sortmerge parallel", fanned); !reflect.DeepEqual(par, smj) {
					t.Fatalf("parallel sort-merge join: order differs from serial\nparallel: %v\nserial:   %v", par, smj)
				}
				sort.Strings(smj)
				if !reflect.DeepEqual(smj, want) {
					t.Fatalf("sort-merge join differs from reference\ngot:  %v\nwant: %v", smj, want)
				}

				nlj := runWith("nlj", NewExecContext(nil, nil, nil),
					NewNestedLoopJoin(mode, tableOp(l), tableOp(r), []expression.Expression{eq(col(0, types.TypeInt64), col(2, types.TypeInt64))}))
				sort.Strings(nlj)
				if !reflect.DeepEqual(nlj, want) {
					t.Fatalf("nested-loop join differs from reference\ngot:  %v\nwant: %v", nlj, want)
				}
			})
		}
	}
}

// TestCancelHashJoin cancels a hash join at each point where it checks its
// context, one run per check — among them the one-goroutine build's, every
// cancelStride rows, and each probe block's — on one range without a
// scheduler and on four ranges with one, building either side. Every run
// returns context.Canceled and none hangs: a task left waiting would keep the
// join from returning and Shutdown from finishing. On one range the join
// also stops where it was canceled, the build included.
func TestCancelHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := func(n int) [][]types.Value {
		out := make([][]types.Value, n)
		for i := range out {
			out[i] = []types.Value{types.Int(int64(rng.Intn(1000))), types.Int(int64(i))}
		}
		return out
	}
	l, r := joinInputTables(t, joinDataset{name: "cancel", left: rows(4 * cancelStride), right: rows(3 * cancelStride)}, 4096)
	j := NewHashJoin(JoinModeInner, tableOp(l), tableOp(r), col(0, types.TypeInt64), col(0, types.TypeInt64), nil)
	left, right, err := joinKeys(NewExecContext(nil, nil, nil), l, r, j.LeftKeys, j.RightKeys)
	if err != nil {
		t.Fatal(err)
	}
	sched := scheduler.New(4)
	defer sched.Shutdown()

	for _, tc := range []struct {
		sched  *scheduler.Scheduler
		ranges int
	}{{nil, 1}, {sched, 4}} {
		for _, buildLeft := range []bool{false, true} {
			// join runs the join canceled at check at (never if at is 0) and
			// returns how often it checked.
			join := func(at int64) (int64, error) {
				cctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				cc := &cancelAtCheck{Context: cctx, cancel: cancel, at: at}
				ctx := NewExecContext(nil, tc.sched, nil)
				ctx.Ctx = cc
				done := make(chan error, 1)
				go func() {
					_, err := j.pairs(ctx, left, right, tc.ranges, buildLeft)
					done <- err
				}()
				select {
				case err := <-done:
					return cc.checks.Load(), err
				case <-time.After(30 * time.Second):
					t.Fatalf("%d ranges, left built %v, canceled at check %d: no return", tc.ranges, buildLeft, at)
					return 0, nil
				}
			}
			// The build checks 3 or 4 times, the probe 4 or 3 blocks.
			checks, err := join(0)
			if err != nil || checks < 7 {
				t.Fatalf("%d ranges, left built %v: %d checks, err = %v; want >= 7 checks, no error", tc.ranges, buildLeft, checks, err)
			}
			for at := int64(1); at <= checks; at++ {
				n, err := join(at)
				if err != context.Canceled {
					t.Fatalf("%d ranges, left built %v, canceled at check %d of %d: err = %v, want context.Canceled",
						tc.ranges, buildLeft, at, checks, err)
				}
				// On one range nothing runs beside the canceled loop: the
				// join returns after at most two more checks, those that
				// close a phase.
				if tc.ranges == 1 && n > at+2 {
					t.Fatalf("left built %v, canceled at check %d: went on to check %d", buildLeft, at, n)
				}
			}
		}
	}
}

// cancelAtCheck is a context that cancels itself at its at-th Err call (never
// if at is 0) and counts the calls.
type cancelAtCheck struct {
	context.Context
	cancel context.CancelFunc
	at     int64
	checks atomic.Int64
}

func (c *cancelAtCheck) Err() error {
	if c.checks.Add(1) == c.at {
		c.cancel()
	}
	return c.Context.Err()
}

// tableOp wraps a materialized table as an operator input.
func tableOp(t *storage.Table) Operator { return &tableWrapper{t} }

type tableWrapper struct{ table *storage.Table }

func (w *tableWrapper) Name() string       { return "TestTable" }
func (w *tableWrapper) Inputs() []Operator { return nil }
func (w *tableWrapper) Run(*ExecContext, []*storage.Table) (*storage.Table, error) {
	return w.table, nil
}
