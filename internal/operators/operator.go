// Package operators implements Hyrise's physical query plan (paper §2.6):
// concrete, executable implementations of the logical operators, produced
// from an optimized LQP by the LQP-to-PQP translator. Operators follow the
// operator-at-a-time model: each computes its full output table — usually a
// reference table of positions, avoiding materialization — before its
// successors run. The scheduler executes the PQP as a task DAG (§2.9).
package operators

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"hyrise/internal/concurrency"
	"hyrise/internal/encoding"
	"hyrise/internal/expression"
	"hyrise/internal/observe"
	"hyrise/internal/scheduler"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Operator is one node of the physical query plan.
type Operator interface {
	// Name identifies the operator kind for plan visualization.
	Name() string
	// Inputs returns the child operators.
	Inputs() []Operator
	// Run computes the output given the already-computed input tables.
	Run(ctx *ExecContext, inputs []*storage.Table) (*storage.Table, error)
}

// ExecContext carries the per-execution state: the transaction, the
// scheduler, and the subquery memo.
type ExecContext struct {
	// Ctx carries the statement's cancellation signal (client cancel or
	// statement timeout). Operators check it at chunk granularity; nil means
	// "never canceled".
	Ctx context.Context
	// Tx is the active transaction; nil when MVCC is disabled.
	Tx *concurrency.TransactionContext
	// Scheduler runs operator tasks and intra-operator jobs; nil means
	// immediate inline execution.
	Scheduler scheduler.Scheduler
	// SM resolves table names (GetTable, DML).
	SM *storage.StorageManager
	// Params holds the values of the statement's placeholders (Parameter
	// expressions), the same in every subquery: each of its slot's type,
	// converted at bind.
	Params []types.Value
	// Outer holds the values of OuterRef expressions: the correlated values
	// a subquery plan runs with, bound per outer row; nil at the top.
	Outer []types.Value
	// DynamicAccess forces the per-value interface access path everywhere
	// (no specialized scans, no static materialization) — the
	// "Hyrise1-style runtime abstraction" baseline of Figure 3b/Figure 6.
	DynamicAccess bool
	// Trace, when non-nil, collects a span per operator execution (name,
	// duration, row counts, chunks pruned). Nil disables tracing; the only
	// hot-path cost is one pointer check per operator.
	Trace *observe.Trace
	// Metrics, when non-nil, receives global execution counters (rows
	// scanned, operators executed).
	Metrics *observe.ExecMetrics
	// Scans, when non-nil, receives per-column scan workload statistics
	// (code-path hit rates, predicate shapes, selectivities) that the
	// encoding advisor consumes to re-encode segments.
	Scans *observe.ScanStats
	// Waits, when non-nil, receives the statement's blocked time per wait
	// kind (scheduler queue, WAL sync, MVCC conflict) — the global side of
	// wait-event attribution; the same nanoseconds land on Trace.
	Waits *observe.WaitMetrics
	// Active, when non-nil, is the statement's entry in the live-query
	// registry; operators flip its state and bump its row counter.
	Active *observe.ActiveQuery
	// LockWait bounds how long DML waits for a contended row claim before
	// aborting with a conflict. Zero preserves immediate aborts.
	LockWait time.Duration
	// Parallel overrides decideParallel for every operator at once (scan,
	// sort, hash join, aggregate merge). Tests and benchmarks only; the zero
	// value lets the engine decide.
	Parallel ParallelMode
	// Estimator, when non-nil, returns a table's statistics for the cost
	// gates (statistics.Cache.Peek): nil for a table that has no entry yet,
	// and it makes none; a column of a table that has one is built once, the
	// first time anyone asks for it, a gate included.
	Estimator Estimator

	// morselRows, when > 0, replaces the morselRows constant; in-package
	// tests shrink it so that small fixtures split into several morsels.
	morselRows int

	// subqueries memoizes subquery executions by plan and correlated values,
	// so that a correlated subquery runs once per distinct outer tuple. One
	// memo serves a statement execution: a child context points at its
	// root's.
	subqueries sync.Map
	root       *ExecContext
}

// NewExecContext creates an execution context.
func NewExecContext(sm *storage.StorageManager, sched scheduler.Scheduler, tx *concurrency.TransactionContext) *ExecContext {
	return &ExecContext{SM: sm, Scheduler: sched, Tx: tx}
}

// Err returns the statement context's cancellation cause (context.Canceled
// or context.DeadlineExceeded), or nil while execution may proceed.
// Operators call this between chunk-granular units of work.
func (ctx *ExecContext) Err() error {
	if ctx.Ctx == nil {
		return nil
	}
	return ctx.Ctx.Err()
}

// child derives a context for a subquery invocation: the statement's
// parameters pass down unchanged, the correlated values bind as Outer. The
// subquery memo is shared so nested invocations memoize per execution.
// Metrics propagate (subquery scans count globally); the trace does not —
// subquery time is attributed to the operator that evaluates the subquery
// expression, keeping the annotated plan tree-shaped.
func (ctx *ExecContext) child(outer []types.Value) *ExecContext {
	return &ExecContext{
		Ctx:           ctx.Ctx,
		Tx:            ctx.Tx,
		Scheduler:     ctx.Scheduler,
		SM:            ctx.SM,
		Params:        ctx.Params,
		Outer:         outer,
		DynamicAccess: ctx.DynamicAccess,
		Metrics:       ctx.Metrics,
		Scans:         ctx.Scans,
		Waits:         ctx.Waits,
		LockWait:      ctx.LockWait,
		Parallel:      ctx.Parallel,
		Estimator:     ctx.Estimator,
		morselRows:    ctx.morselRows,
		root:          ctx.memoRoot(),
	}
}

// memoRoot returns the context that owns the statement's subquery memo.
func (ctx *ExecContext) memoRoot() *ExecContext {
	if ctx.root != nil {
		return ctx.root
	}
	return ctx
}

// noteWait files blocked nanoseconds into the global wait histograms and the
// statement trace — the same measurement feeds both, so EXPLAIN ANALYZE and
// the wait.* metrics always agree. Safe to call from concurrent tasks.
func (ctx *ExecContext) noteWait(kind observe.WaitKind, ns int64) {
	ctx.Waits.Observe(kind, ns)
	if tr := ctx.Trace; tr != nil {
		tr.AddWait(kind, time.Duration(ns))
	}
}

// runJobs executes the closures as one task group: in parallel on a
// multi-worker scheduler, inline otherwise (scheduler.TaskGroup.Wait). Jobs
// not yet started when the statement context dies are skipped — this is the
// chunk-granularity cancellation point of every parallel operator (scan,
// join, aggregate, projection); callers must check ctx.Err() after runJobs
// returns and surface it.
func (ctx *ExecContext) runJobs(jobs []func()) {
	g := scheduler.NewTaskGroup(ctx.Ctx, ctx.Scheduler)
	if ctx.Waits != nil || ctx.Trace != nil {
		g.SetQueueWaitObserver(func(ns int64) { ctx.noteWait(observe.WaitSchedulerQueue, ns) })
	}
	g.Go(jobs...)
	_ = g.Wait()
}

// noteJoinPhases files a hash join's partition count and build/probe wall
// nanoseconds into the metrics registry and the trace span (if any); the span
// also gets the build side's rows and the candidate pairs the probe found.
func (ctx *ExecContext) noteJoinPhases(op Operator, partitions, buildRows, pairs int, buildNS, probeNS int64) {
	if m := ctx.Metrics; m != nil {
		m.JoinPartitions.Add(int64(partitions))
		m.JoinBuildNS.Add(buildNS)
		m.JoinProbeNS.Add(probeNS)
	}
	if tr := ctx.Trace; tr != nil {
		tr.AddOpAttr(op, "partitions", int64(partitions))
		tr.AddOpAttr(op, "build_rows", int64(buildRows))
		tr.AddOpAttr(op, "pairs", int64(pairs))
		tr.AddOpAttr(op, "build_ns", buildNS)
		tr.AddOpAttr(op, "probe_ns", probeNS)
	}
}

// noteAggregateMerge files an aggregate's merge shard count, merged groups
// and wall nanoseconds into the metrics registry and the trace span (if any).
func (ctx *ExecContext) noteAggregateMerge(op Operator, shards, groups int, mergeNS int64) {
	if m := ctx.Metrics; m != nil {
		m.AggregateMergeNS.Add(mergeNS)
	}
	if tr := ctx.Trace; tr != nil {
		tr.AddOpAttr(op, "merge_shards", int64(shards))
		tr.AddOpAttr(op, "groups", int64(groups))
		tr.AddOpAttr(op, "merge_ns", mergeNS)
	}
}

// Execute runs a physical plan: every operator becomes a task whose
// dependencies are its inputs; tasks run through the context's scheduler
// (or inline without one) and the root's output is returned.
//
// Error surfacing is deterministic: only operators that fail themselves
// record an error (input failures propagate as a flag, never as a synthetic
// error), and among several failures the deepest operator wins, with plan
// order as the tie-break. The selection happens at task time against static
// (depth, order) keys, so the same failing plan reports the same root cause
// regardless of scheduler interleaving.
func Execute(root Operator, ctx *ExecContext) (*storage.Table, error) {
	results := make(map[Operator]*storage.Table)
	failed := make(map[Operator]bool)
	var mu sync.Mutex
	var rootErr error
	var rootErrDepth, rootErrOrder int

	var tasks []*scheduler.Task
	taskOf := make(map[Operator]*scheduler.Task)
	nextOrder := 0

	var build func(op Operator, depth int) *scheduler.Task
	build = func(op Operator, depth int) *scheduler.Task {
		if t, ok := taskOf[op]; ok {
			return t
		}
		inputs := op.Inputs()
		opDepth, opOrder := depth, nextOrder
		nextOrder++
		t := scheduler.NewTask(func() {
			inTables := make([]*storage.Table, len(inputs))
			mu.Lock()
			bad := false
			for i, in := range inputs {
				if failed[in] {
					bad = true
					break
				}
				inTables[i] = results[in]
			}
			mu.Unlock()
			if bad {
				mu.Lock()
				failed[op] = true
				mu.Unlock()
				return
			}
			// Cooperative cancellation: a dead statement context stops the
			// plan before this operator starts. The cause (context.Canceled
			// or DeadlineExceeded) propagates like an operator failure.
			if err := ctx.Err(); err != nil {
				mu.Lock()
				failed[op] = true
				if rootErr == nil {
					rootErr, rootErrDepth, rootErrOrder = err, opDepth, opOrder
				}
				mu.Unlock()
				return
			}
			ctx.Active.SetState(observe.StateExecuting)
			var t0 time.Time
			if ctx.Trace != nil {
				t0 = time.Now()
			}
			out, err := op.Run(ctx, inTables)
			if ctx.Trace != nil && err == nil {
				recordSpan(ctx.Trace, op, time.Since(t0), inTables, out)
			}
			if ctx.Metrics != nil {
				ctx.Metrics.OperatorsExecuted.Inc()
			}
			mu.Lock()
			if err != nil {
				failed[op] = true
				if rootErr == nil || opDepth > rootErrDepth ||
					(opDepth == rootErrDepth && opOrder < rootErrOrder) {
					rootErr, rootErrDepth, rootErrOrder = err, opDepth, opOrder
				}
			} else {
				results[op] = out
			}
			mu.Unlock()
		})
		if ctx.Ctx != nil {
			t.WithContext(ctx.Ctx)
		}
		if ctx.Waits != nil || ctx.Trace != nil {
			t.ObserveQueueWait(func(ns int64) { ctx.noteWait(observe.WaitSchedulerQueue, ns) })
		}
		taskOf[op] = t
		for _, in := range inputs {
			t.DependsOn(build(in, depth+1))
		}
		tasks = append(tasks, t)
		return t
	}
	rootTask := build(root, 0)

	sched := ctx.Scheduler
	if sched == nil {
		sched = scheduler.NewImmediateScheduler()
	}
	ctx.Active.SetState(observe.StateQueued)
	sched.Schedule(tasks...)
	rootTask.Wait()

	mu.Lock()
	defer mu.Unlock()
	if rootErr != nil {
		return nil, rootErr
	}
	// Tasks skipped by the scheduler (context died while queued) record no
	// error of their own; report the cancellation cause instead of an empty
	// result.
	if results[root] == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if out := results[root]; out != nil {
		ctx.Active.AddRows(int64(out.RowCount()))
	}
	return results[root], nil
}

// recordSpan files one operator execution into the trace.
func recordSpan(tr *observe.Trace, op Operator, d time.Duration, inputs []*storage.Table, out *storage.Table) {
	var rowsIn, rowsOut int64
	for _, in := range inputs {
		if in != nil {
			rowsIn += int64(in.RowCount())
		}
	}
	if out != nil {
		rowsOut = int64(out.RowCount())
	}
	tr.RecordOp(op, op.Name(), d, rowsIn, rowsOut)
}

// PlanString renders a PQP tree, one operator a line, inputs indented below
// it: the console's \visualize. With a trace, each line carries the
// operator's measurements — the EXPLAIN ANALYZE output format.
func PlanString(root Operator, tr *observe.Trace) string {
	var b strings.Builder
	var walk func(op Operator, depth int)
	walk = func(op Operator, depth int) {
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
		b.WriteString(op.Name())
		if tr != nil {
			if sp := tr.Op(op); sp != nil {
				b.WriteString("  [time=")
				b.WriteString(sp.Duration.String())
				if len(op.Inputs()) > 0 {
					fmt.Fprintf(&b, ", in=%d rows", sp.RowsIn)
				}
				fmt.Fprintf(&b, ", out=%d rows", sp.RowsOut)
				if sp.ChunksPruned > 0 {
					fmt.Fprintf(&b, ", pruned=%d chunks", sp.ChunksPruned)
				}
				if sp.Calls > 1 {
					fmt.Fprintf(&b, ", calls=%d", sp.Calls)
				}
				if len(sp.Attrs) > 0 {
					names := make([]string, 0, len(sp.Attrs))
					for k := range sp.Attrs {
						names = append(names, k)
					}
					sort.Strings(names)
					for _, k := range names {
						fmt.Fprintf(&b, ", %s=%d", k, sp.Attrs[k])
					}
				}
				b.WriteByte(']')
			} else {
				b.WriteString("  [not executed]")
			}
		}
		b.WriteByte('\n')
		for _, in := range op.Inputs() {
			walk(in, depth+1)
		}
	}
	walk(root, 0)
	return b.String()
}

// dynamicVector materializes the offsets pos of a segment (nil: all of it)
// through the per-value interface path (Segment.ValueAt), the
// dynamic-polymorphism baseline.
func dynamicVector(seg storage.Segment, pos []types.ChunkOffset) *expression.Vector {
	if pos == nil {
		pos = identityOffsets(seg.Len())
	}
	switch seg.DataType() {
	case types.TypeInt64, types.TypeBool: // a BOOL column stores 0/1
		vals, nulls := encoding.MaterializeDynamic[int64](seg, pos)
		return expression.NewIntVector(vals, nulls)
	case types.TypeFloat64:
		vals, nulls := encoding.MaterializeDynamic[float64](seg, pos)
		return expression.NewFloatVector(vals, nulls)
	default:
		vals, nulls := encoding.MaterializeDynamic[string](seg, pos)
		return expression.NewStringVector(vals, nulls)
	}
}

// evalContext builds an expression evaluation context over n rows of one
// chunk — the rows at offsets pos, or with a nil pos the whole chunk — with
// lazily materialized columns and subquery executors.
func (ctx *ExecContext) evalContext(chunk *storage.Chunk, n int, pos []types.ChunkOffset) *expression.Context {
	cache := make(map[int]*expression.Vector)
	ec := &expression.Context{
		N:      n,
		Params: ctx.Params,
		Outer:  ctx.Outer,
		Column: func(i int) (*expression.Vector, error) {
			if v, ok := cache[i]; ok {
				return v, nil
			}
			if chunk == nil || i >= chunk.ColumnCount() {
				return nil, fmt.Errorf("operators: column %d out of range", i)
			}
			seg := chunk.GetSegment(types.ColumnID(i))
			var v *expression.Vector
			switch {
			case ctx.DynamicAccess:
				v = dynamicVector(seg, pos)
			case pos != nil:
				v = expression.VectorFromSegmentPositions(seg, pos)
			default:
				v = expression.VectorFromSegment(seg)
			}
			cache[i] = v
			return v, nil
		},
	}
	ctx.installSubqueryExecutors(ec)
	return ec
}
