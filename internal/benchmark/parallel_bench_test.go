package benchmark

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"hyrise/internal/expression"
	"hyrise/internal/operators"
	"hyrise/internal/scheduler"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Benchmarks for the morsel-driven parallel paths: table scan and sort, each
// with serial and parallel sub-benchmarks so
// the multi-core CI lane can gate `benchdiff speedup` on the ratio. Under
// GOMAXPROCS=1 the parallel variants still run (strategy forced), which
// keeps the serial lane's regression gate meaningful for them too.

// microScanTable builds a multi-chunk int64 table where `v BETWEEN` bounds
// select roughly half the rows — enough surviving work per morsel that the
// dispatch overhead must be earned back.
func microScanTable(b *testing.B, n int) *storage.Table {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	defs := []storage.ColumnDefinition{
		{Name: "v", Type: types.TypeInt64},
		{Name: "payload", Type: types.TypeInt64},
	}
	t := storage.NewTable("scan", defs, 16384, false)
	for i := 0; i < n; i++ {
		if _, err := t.AppendRow([]types.Value{
			types.Int(int64(rng.Intn(1_000_000))),
			types.Int(int64(i)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	t.SealTail()
	return t
}

func BenchmarkMicroScanParallel(b *testing.B) {
	n := microRows()
	table := microScanTable(b, n)
	sched := scheduler.New(0) // 0 = one worker per CPU
	defer sched.Shutdown()

	pred := &expression.Between{
		Child: &expression.BoundColumn{Index: 0, DT: types.TypeInt64},
		Lo:    expression.NewLiteral(types.Int(250_000)),
		Hi:    expression.NewLiteral(types.Int(750_000)),
	}
	cases := []struct {
		name  string
		mode  operators.ParallelMode
		sched *scheduler.Scheduler
	}{
		{"serial", operators.ParallelSerial, nil},
		{"parallel", operators.ParallelForce, sched},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := operators.NewExecContext(nil, tc.sched, nil)
				ctx.Parallel = tc.mode
				scan := operators.NewTableScan(&tableSource{table}, pred)
				out, err := operators.Execute(scan, ctx)
				if err != nil {
					b.Fatal(err)
				}
				if out.RowCount() == 0 {
					b.Fatal("empty scan result")
				}
			}
		})
	}
}

func BenchmarkMicroSort(b *testing.B) {
	n := microRows()
	table := microScanTable(b, n)
	sched := scheduler.New(0)
	defer sched.Shutdown()

	cases := []struct {
		name  string
		mode  operators.ParallelMode
		sched *scheduler.Scheduler
	}{
		{"serial", operators.ParallelSerial, nil},
		{"parallel", operators.ParallelForce, sched},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := operators.NewExecContext(nil, tc.sched, nil)
				ctx.Parallel = tc.mode
				sort := operators.NewSort(&tableSource{table}, []operators.SortKey{
					{Expr: &expression.BoundColumn{Index: 0, DT: types.TypeInt64}},
					{Expr: &expression.BoundColumn{Index: 1, DT: types.TypeInt64}, Desc: true},
				})
				out, err := operators.Execute(sort, ctx)
				if err != nil {
					b.Fatal(err)
				}
				if out.RowCount() != table.RowCount() {
					b.Fatal("sort dropped rows")
				}
			}
		})
	}
}

// fanOutRounds is how many fan-outs make one benchmark op: the CI gate runs
// -benchtime=1x, and one sub-millisecond call would be all noise.
const fanOutRounds = 20

func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// BenchmarkMicroFanOut measures what a fan-out of two jobs costs end to end
// when the workers are parked: the caller works alone for a millisecond (an
// operator's serial phase), then hands two spin jobs of the named length to
// scheduler.Run on a 2-worker scheduler. The reported ns/op is the mean
// duration of that call only; with both jobs running at once it is one job's
// length plus the wake-up, and every microsecond a worker takes to notice
// the second job shows. It needs two Ps to mean that, so it sets GOMAXPROCS
// to 2 whatever the lane's value is.
func BenchmarkMicroFanOut(b *testing.B) {
	if runtime.NumCPU() < 2 {
		b.Skip("needs two CPUs")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	sched := scheduler.New(2)
	defer sched.Shutdown()

	for _, tc := range []struct {
		name string
		job  time.Duration
	}{
		{"2x50us", 50 * time.Microsecond},
		{"2x200us", 200 * time.Microsecond},
		{"2x1ms", time.Millisecond},
	} {
		jobs := []func(){func() { spin(tc.job) }, func() { spin(tc.job) }}
		b.Run(tc.name, func(b *testing.B) {
			var inGroup time.Duration
			for i := 0; i < b.N*fanOutRounds; i++ {
				spin(time.Millisecond)
				t0 := time.Now()
				if err := scheduler.Run(context.Background(), sched, nil, jobs...); err != nil {
					b.Fatal(err)
				}
				inGroup += time.Since(t0)
			}
			b.ReportMetric(float64(inGroup.Nanoseconds())/float64(b.N*fanOutRounds), "ns/op")
		})
	}
}
