// Package operators implements Hyrise's physical query plan (paper §2.6):
// concrete, executable implementations of the logical operators, produced
// from an optimized LQP by the LQP-to-PQP translator. Operators follow the
// operator-at-a-time model: each computes its full output table — usually a
// reference table of positions, avoiding materialization — before its
// successors run. A multi-worker scheduler executes the PQP as a task DAG
// (§2.9); without one, the operators run inline in post-order.
package operators

import (
	"context"
	"fmt"
	"slices"
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

	// affected is what the plan's DML root reports (RowsAffected).
	affected int64

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

// RowsAffected reports the rows the plan's INSERT, UPDATE or DELETE wrote:
// its result, since a DML root returns no table.
func (ctx *ExecContext) RowsAffected() int64 { return ctx.affected }

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

// Execute runs a physical plan and returns the root's output. A DML root
// returns no table: its count is RowsAffected.
//
// The plan is walked once into a post-order slice of nodes — each operator
// once, however many parents share it — and every node runs the same step:
// its operator runs when all of its inputs ran, and is skipped otherwise. On
// the inline route (no scheduler, or a single-worker one) the steps run in
// slice order on the calling goroutine; a multi-worker scheduler gets one
// task per node, each depending on its inputs' tasks.
//
// Error surfacing is deterministic: only operators that fail themselves
// record an error (an input that did not run skips its consumers, never as a
// synthetic error), and among several failures the deepest operator wins,
// with plan order as the tie-break. The selection happens at step time
// against static (depth, order) keys, so the same failing plan reports the
// same root cause regardless of scheduler interleaving.
func Execute(root Operator, ctx *ExecContext) (*storage.Table, error) {
	r := &planRun{ctx: ctx}
	r.nodes, r.edges = r.nodeBuf[:0], r.edgeBuf[:0]
	r.add(root, 0)
	r.tables = slices.Grow(r.tableBuf[:0], len(r.edges))[:len(r.edges)]
	if s := ctx.Scheduler; s == nil || s.WorkerCount() <= 1 {
		for i := range r.nodes {
			r.step(i)
		}
	} else {
		r.schedule(s)
	}
	if r.err != nil {
		return nil, r.err
	}
	top := &r.nodes[len(r.nodes)-1]
	if !top.ran {
		// Skipped by the scheduler: the context died while it was queued.
		return nil, ctx.Err()
	}
	if top.out != nil {
		ctx.Active.AddRows(int64(top.out.RowCount()))
	} else {
		ctx.Active.AddRows(ctx.affected)
	}
	return top.out, nil
}

// planNode is one operator of a planRun. Its inputs are
// planRun.edges[in0:in0+nIn], indices of earlier nodes.
type planNode struct {
	op           Operator
	in0, nIn     int
	depth, order int // the error selection's keys: depth and preorder
	out          *storage.Table
	ran          bool // Run returned without error; out may still be nil (DML)
}

// planRun is one execution of a plan: its nodes in post-order, so every
// node's inputs come before it and the root is last.
type planRun struct {
	ctx    *ExecContext
	nodes  []planNode
	edges  []int            // the nodes' inputs, one run per node
	tables []*storage.Table // the nodes' input tables, laid out like edges
	orders int              // operators numbered so far, in preorder

	// A plan of up to four operators needs no allocation beyond the run.
	nodeBuf  [4]planNode
	edgeBuf  [4]int
	tableBuf [4]*storage.Table

	mu                 sync.Mutex // guards the error: tasks may fail at once
	err                error
	errDepth, errOrder int
}

// add appends op and the inputs it does not share with an earlier node, in
// post-order, and returns op's index.
func (r *planRun) add(op Operator, depth int) int {
	for i := range r.nodes {
		if r.nodes[i].op == op {
			return i
		}
	}
	order := r.orders
	r.orders++
	inputs := op.Inputs()
	ids := make([]int, 0, 4)
	for _, in := range inputs {
		ids = append(ids, r.add(in, depth+1))
	}
	r.nodes = append(r.nodes, planNode{op: op, in0: len(r.edges), nIn: len(ids), depth: depth, order: order})
	r.edges = append(r.edges, ids...)
	return len(r.nodes) - 1
}

// step runs node i's operator when all of its inputs ran. A dead statement
// context stops the plan before the operator starts; its cause
// (context.Canceled or DeadlineExceeded) is reported like an operator
// failure.
func (r *planRun) step(i int) {
	n := &r.nodes[i]
	ctx := r.ctx
	inputs := r.tables[n.in0 : n.in0+n.nIn]
	for k, j := range r.edges[n.in0 : n.in0+n.nIn] {
		if !r.nodes[j].ran {
			return
		}
		inputs[k] = r.nodes[j].out
	}
	if err := ctx.Err(); err != nil {
		r.fail(n, err, false)
		return
	}
	ctx.Active.SetState(observe.StateExecuting)
	var t0 time.Time
	if ctx.Trace != nil {
		t0 = time.Now()
	}
	out, err := n.op.Run(ctx, inputs)
	if ctx.Metrics != nil {
		ctx.Metrics.OperatorsExecuted.Inc()
	}
	if err != nil {
		r.fail(n, err, true)
		return
	}
	if ctx.Trace != nil {
		rowsOut := ctx.affected
		if out != nil {
			rowsOut = int64(out.RowCount())
		}
		recordSpan(ctx.Trace, n.op, time.Since(t0), inputs, rowsOut)
	}
	n.out, n.ran = out, true
}

// fail records node n's error: the first one, or with deepest set the
// deepest in plan order.
func (r *planRun) fail(n *planNode, err error, deepest bool) {
	r.mu.Lock()
	if r.err == nil || deepest && (n.depth > r.errDepth || n.depth == r.errDepth && n.order < r.errOrder) {
		r.err, r.errDepth, r.errOrder = err, n.depth, n.order
	}
	r.mu.Unlock()
}

// schedule runs the steps as scheduler tasks, one per node, and waits for
// the root's. A task whose context has died is skipped; its node is left
// not ran.
func (r *planRun) schedule(s scheduler.Scheduler) {
	ctx := r.ctx
	tasks := make([]*scheduler.Task, len(r.nodes))
	for i := range r.nodes {
		t := scheduler.NewTask(func() { r.step(i) })
		if ctx.Ctx != nil {
			t.WithContext(ctx.Ctx)
		}
		if ctx.Waits != nil || ctx.Trace != nil {
			t.ObserveQueueWait(func(ns int64) { ctx.noteWait(observe.WaitSchedulerQueue, ns) })
		}
		n := &r.nodes[i]
		for _, j := range r.edges[n.in0 : n.in0+n.nIn] {
			t.DependsOn(tasks[j])
		}
		tasks[i] = t
	}
	ctx.Active.SetState(observe.StateQueued)
	s.Schedule(tasks...)
	tasks[len(tasks)-1].Wait()
}

// recordSpan files one operator execution into the trace.
func recordSpan(tr *observe.Trace, op Operator, d time.Duration, inputs []*storage.Table, rowsOut int64) {
	var rowsIn int64
	for _, in := range inputs {
		if in != nil {
			rowsIn += int64(in.RowCount())
		}
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
