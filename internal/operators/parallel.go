package operators

import (
	"fmt"
	"time"

	"hyrise/internal/encoding"
	"hyrise/internal/statistics"
	"hyrise/internal/storage"
)

// This file holds every serial-vs-parallel decision of the engine (paper
// §2.9): scans and sorts split their input into morsels — runs of consecutive
// chunks — hash joins into probe row ranges, and the aggregate merge into
// hash shards, all dispatched as scheduler tasks. Whether an operator fans
// out at all is decided in one place, decideParallel, from a size estimate
// the operator derives from its input and the statistics it already has;
// nothing here is user-tunable.

// ParallelMode overrides the automatic serial-vs-parallel decisions of every
// operator at once. It exists for tests and benchmarks that must pin a path;
// production configurations leave it at ParallelAuto.
type ParallelMode uint8

// Parallel modes.
const (
	// ParallelAuto lets decideParallel choose per operator execution.
	ParallelAuto ParallelMode = iota
	// ParallelSerial keeps every operator on its single-task path.
	ParallelSerial
	// ParallelForce fans every operator out regardless of input size (without
	// a scheduler the tasks just run one after another).
	ParallelForce
)

// parallelOp names an operator that has a serial and a fanned-out shape.
type parallelOp uint8

const (
	opScan parallelOp = iota
	opSort
	opJoin
	opAggregateMerge
)

// parallelMinRows is the size estimate at which fanning an operator out
// starts to pay for task dispatch and the merge of the partial results. They
// are constants, not options: no binary, example or benchmark workload ever
// needed different values. TestDiffDecideParallel pins them, and
// TestDiffTPCHParallelDecisionParity pins what they decide for TPC-H.
var parallelMinRows = [...]int{
	// Estimated scan cost: input rows × predicate selectivity, the
	// selectivity floored at scanSelectivityFloor. Small or cheaply pruned
	// inputs skip the dispatch; a selective scan over a large table still
	// fans out because the rows must be visited either way.
	opScan: 16384,
	// Input rows: splitting into runs only amortizes once the run sorts
	// dominate the k-way merge that follows them.
	opSort: 32768,
	// Build plus probe rows: hashing both sides in ranges and probing from
	// several tasks only amortizes task dispatch on larger inputs.
	opJoin: 8192,
	// Partial groups summed over all chunks: every shard walks all partials,
	// so the fan-out wins only when hash-map inserts dominate that walk.
	opAggregateMerge: 4096,
}

const (
	// morselRows is the row budget of one scan morsel: consecutive chunks are
	// coalesced until the budget fills, so many small chunks become one task
	// while a large chunk stays its own morsel.
	morselRows = 65536
	// scanSelectivityFloor bounds the selectivity used by the scan cost from
	// below: even a point lookup must visit every row of an unpruned segment,
	// so per-row scan cost never drops to zero with the estimate.
	scanSelectivityFloor = 1.0 / 16
	// indexProbeMaxSelectivity is the estimated selectivity up to which a
	// chunk's secondary index answers a scan: a probe returns positions that
	// must be sorted back into offset order, which only beats a sequential
	// scan of the segment when few rows qualify.
	indexProbeMaxSelectivity = 0.01
	// maxMergeShards caps the aggregate merge fan-out: every shard scans all
	// partials, so shards beyond the core count only add passes.
	maxMergeShards = 64
	// cancelStride is how many rows or groups a join's build or probe, a
	// merge shard or a sort merge handles between cancellation checks.
	cancelStride = 4096
)

// decideParallel is the engine's one serial-vs-parallel gate: an operator
// fans out when a scheduler is attached and its size estimate reaches the
// operator's entry in parallelMinRows. ctx.Parallel overrides the answer for
// every operator alike.
func (ctx *ExecContext) decideParallel(op parallelOp, estRows int) bool {
	switch ctx.Parallel {
	case ParallelSerial:
		return false
	case ParallelForce:
		return true
	}
	return ctx.Scheduler != nil && estRows >= parallelMinRows[op]
}

// fanOut is how many tasks a fanned-out operator splits into: one per
// scheduler worker, at least 2 so forced-parallel paths still exercise their
// split/merge logic without a scheduler.
func (ctx *ExecContext) fanOut() int {
	return max(ctx.Scheduler.WorkerCount(), 2)
}

// mergeFanOut is the aggregate merge shard count (a power of two).
func (ctx *ExecContext) mergeFanOut() int {
	return nextPow2(min(ctx.fanOut(), maxMergeShards))
}

// nextPow2 rounds n up to a power of two.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// morsel is a run of consecutive chunks scanned by one task.
type morsel struct {
	lo, hi int // chunk index range [lo, hi)
}

// morselRanges coalesces the chunk list into morsels of about targetRows
// rows. Every chunk lands in exactly one morsel and morsels cover chunks in
// order, so per-chunk outputs keep their slots and the merged result is
// bit-for-bit equal to a serial scan.
func morselRanges(chunks []*storage.Chunk, targetRows int) []morsel {
	var out []morsel
	lo, acc := 0, 0
	for ci, c := range chunks {
		acc += c.Size()
		if acc >= targetRows {
			out = append(out, morsel{lo: lo, hi: ci + 1})
			lo, acc = ci+1, 0
		}
	}
	if lo < len(chunks) {
		out = append(out, morsel{lo: lo, hi: len(chunks)})
	}
	return out
}

// morselTargetRows is morselRows unless an in-package test shrank it so that
// small fixtures fan out.
func (ctx *ExecContext) morselTargetRows() int {
	if ctx.morselRows > 0 {
		return ctx.morselRows
	}
	return morselRows
}

// estimateScanSelectivity estimates the fraction of rows a simple predicate
// keeps, from the table's cached histograms. Returns 1 (no reduction) when
// no statistics are available, the predicate is not simple, or the shape is
// not estimable — the gate then falls back to raw row count, which is the
// conservative direction (more parallelism, never less correctness).
func (ctx *ExecContext) estimateScanSelectivity(input *storage.Table, simple *simplePredicate) float64 {
	if simple == nil || ctx.Estimator == nil {
		return 1
	}
	ts := ctx.Estimator(input)
	if ts == nil {
		return 1
	}
	col := simple.column
	cs := ts.Column(col)
	if cs == nil {
		return 1
	}
	pr := &simple.pred
	switch pr.Op {
	case encoding.ScanEq:
		return ts.EstimateEquals(col, pr.Value)
	case encoding.ScanNe:
		return ts.EstimateNotEquals(col, pr.Value)
	case encoding.ScanIsNull:
		return cs.NullFraction()
	case encoding.ScanIsNotNull:
		return 1 - cs.NullFraction()
	default: // <, <=, >, >=, BETWEEN
		lo, hi, _ := scanInterval(pr)
		return ts.EstimateRange(col, lo, hi)
	}
}

// scanCost is the scan's one selectivity estimate per operator run and what
// it is needed for: the size estimate for decideParallel — input rows ×
// estimated selectivity, floored — the estimated qualifying rows for the
// trace, and the selectivity itself, which opens or closes the index rung.
// When nothing can depend on it (override set or no scheduler, and no chunk
// of the input indexed) the estimator is not consulted and estRows is -1.
func (ctx *ExecContext) scanCost(input *storage.Table, simple *simplePredicate, indexed bool) (cost int, estRows int64, sel float64) {
	if !indexed && (ctx.Parallel != ParallelAuto || ctx.Scheduler == nil) {
		return 0, -1, 1
	}
	total := input.RowCount()
	if total == 0 {
		return 0, 0, 1
	}
	sel = ctx.estimateScanSelectivity(input, simple)
	return int(float64(total) * max(sel, scanSelectivityFloor)), int64(float64(total) * sel), sel
}

// noteScan records a scan's decision on the trace span, so EXPLAIN ANALYZE
// shows it with the estimate behind it (estRows < 0: none was made, see
// scanCost), and what the pass did: the chunks it pruned — their rows count
// neither as the span's input nor as rows_scanned — the chunks that answered
// by binary search or through their index, the rows left after each conjunct
// of the chain and the rows visibility hid. Only a real fan-out reaches
// scan.morsels and scan.parallel_ns, which measure morsel-parallel scans alone.
func (ctx *ExecContext) noteScan(op Operator, scan *chunkScan, parallel bool, morsels int, wallNS, estRows int64) {
	prunedRows := scan.prunedRows.Load()
	if m := ctx.Metrics; m != nil {
		m.RowsScanned.Add(int64(scan.input.RowCount()) - prunedRows)
		if parallel {
			m.ScanMorsels.Add(int64(morsels))
			m.ScanParallelNS.Add(wallNS)
		}
	}
	if tr := ctx.Trace; tr != nil {
		if len(scan.prunedIDs) > 0 {
			tr.AddOpPruned(op, scan.prunedIDs, prunedRows)
		}
		tr.AddOpAttr(op, "morsels", int64(morsels))
		if parallel {
			tr.AddOpAttr(op, "parallel_ns", wallNS)
		}
		if estRows >= 0 {
			tr.AddOpAttr(op, "est_rows", estRows)
		}
		if n := scan.sorted.Load(); n > 0 {
			tr.AddOpAttr(op, "sorted_chunks", n)
		}
		if n := scan.probed.Load(); n > 0 {
			tr.AddOpAttr(op, "index_chunks", n)
		}
		for k := range scan.after {
			tr.AddOpAttr(op, fmt.Sprintf("rows_after_%d", k+1), scan.after[k].Load())
		}
		if scan.visible {
			tr.AddOpAttr(op, "rows_invisible", scan.invisible.Load())
		}
	}
}

// noteSortParallel files a parallel sort's run count and wall time spent in
// the parallel phase (run sorts + merge rounds).
func (ctx *ExecContext) noteSortParallel(op Operator, runs int, wallNS int64) {
	if m := ctx.Metrics; m != nil {
		m.SortRuns.Add(int64(runs))
		m.SortParallelNS.Add(wallNS)
	}
	if tr := ctx.Trace; tr != nil {
		tr.AddOpAttr(op, "sort_runs", int64(runs))
		tr.AddOpAttr(op, "parallel_ns", wallNS)
	}
}

// scanWallClock starts a wall-clock measurement only when someone will read
// it (metrics or trace attached).
func (ctx *ExecContext) scanWallClock() time.Time {
	if ctx.Metrics == nil && ctx.Trace == nil {
		return time.Time{}
	}
	return time.Now()
}

// sinceNS is time.Since tolerating the zero start scanWallClock returns.
func sinceNS(t0 time.Time) int64 {
	if t0.IsZero() {
		return 0
	}
	return time.Since(t0).Nanoseconds()
}

// Estimator is the narrow statistics hook operators use for cost gating:
// it returns cached table statistics (nil when none have been built yet).
// Wired by the pipeline to the engine's statistics cache.
type Estimator func(t *storage.Table) *statistics.TableStatistics
