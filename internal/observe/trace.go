package observe

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"time"
)

// StageSpan is the wall time of one pipeline stage (parse, translate,
// optimize, to_pqp, execute).
type StageSpan struct {
	Name     string
	Duration time.Duration
}

// OpSpan aggregates the executions of one physical operator within a single
// query. Operators inside correlated subqueries run once per distinct
// parameter binding; their spans accumulate across calls.
type OpSpan struct {
	// Name is the operator's diagnostic name (e.g. "TableScan(a > 3)").
	Name string
	// Seq is the completion order of the operator's first execution;
	// with inline execution children finish before their parents.
	Seq int64
	// Calls counts executions (> 1 only for re-executed subquery plans).
	Calls int64
	// Duration is the summed wall time across calls.
	Duration time.Duration
	// RowsIn / RowsOut are the summed input and output row counts; rows of
	// pruned chunks are not input.
	RowsIn, RowsOut int64
	// ChunksPruned is the number of input chunks the operator skipped because
	// the chunk's zone ruled them out (TableScan only), and
	// PrunedChunkIDs says which, in no particular order.
	ChunksPruned   int64
	PrunedChunkIDs []int
	// Attrs carries operator-specific measurements (e.g. the hash join's
	// probe range count and build/probe nanoseconds). Nil when the operator
	// recorded none.
	Attrs map[string]int64
	// Labels carries operator-specific choices (e.g. the side a hash join
	// built); nil when the operator made none.
	Labels map[string]string
}

// Trace is the record of one query execution: per-stage wall times plus
// per-operator spans. A nil *Trace disables collection; the executor's only
// cost is one pointer check per operator. Traces are safe for concurrent
// recording (operator tasks may run on scheduler workers).
type Trace struct {
	// SQL is the statement text being traced.
	SQL string
	// CacheHit reports whether the physical plan came from the plan cache.
	CacheHit bool
	// Canceled reports that the traced statement was stopped before
	// completion — by a client cancel request or a statement timeout.
	Canceled bool

	mu       sync.Mutex
	stages   []StageSpan
	ops      map[any]*OpSpan
	seq      int64
	total    time.Duration
	waits    [NumWaitKinds]WaitSpan
	planText string
}

// WaitSpan aggregates the time one statement spent blocked on one wait kind
// (scheduler queue, WAL sync, MVCC conflict, admission).
type WaitSpan struct {
	Kind     WaitKind
	Count    int64
	Duration time.Duration
}

// NewTrace starts an empty trace for the statement.
func NewTrace(sql string) *Trace {
	return &Trace{SQL: sql, ops: make(map[any]*OpSpan)}
}

// AddStage appends a stage span (stages are reported in insertion order).
func (t *Trace) AddStage(name string, d time.Duration) {
	t.mu.Lock()
	t.stages = append(t.stages, StageSpan{Name: name, Duration: d})
	t.mu.Unlock()
}

// Stages returns the recorded stage spans in order.
func (t *Trace) Stages() []StageSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]StageSpan(nil), t.stages...)
}

// StageTotal sums the stage durations.
func (t *Trace) StageTotal() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, s := range t.stages {
		sum += s.Duration
	}
	return sum
}

// SetTotal records the end-to-end wall time of the traced execution.
func (t *Trace) SetTotal(d time.Duration) {
	t.mu.Lock()
	t.total = d
	t.mu.Unlock()
}

// Total returns the end-to-end wall time.
func (t *Trace) Total() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// AddWait accumulates one wait event onto the trace. Durations clamp to at
// least 1ns so every recorded wait is visible. Safe for concurrent use —
// scheduler workers record queue waits while the session goroutine records
// commit waits.
func (t *Trace) AddWait(kind WaitKind, d time.Duration) {
	if kind >= NumWaitKinds {
		return
	}
	if d <= 0 {
		d = 1
	}
	t.mu.Lock()
	t.waits[kind].Kind = kind
	t.waits[kind].Count++
	t.waits[kind].Duration += d
	t.mu.Unlock()
}

// Waits returns the non-empty wait spans in kind order.
func (t *Trace) Waits() []WaitSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []WaitSpan
	for k := WaitKind(0); k < NumWaitKinds; k++ {
		if t.waits[k].Count > 0 {
			out = append(out, t.waits[k])
		}
	}
	return out
}

// SetPlanText attaches the annotated plan rendering (EXPLAIN ANALYZE tree)
// to the trace, so sinks like the slow-query log can show where the time
// went after the fact.
func (t *Trace) SetPlanText(s string) {
	t.mu.Lock()
	t.planText = s
	t.mu.Unlock()
}

// PlanText returns the annotated plan rendering ("" when not captured).
func (t *Trace) PlanText() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.planText
}

// RecordOp accumulates one operator execution under the given key (the
// executor uses the operator instance itself). Durations clamp to at least
// 1ns so every executed operator reports non-zero time.
func (t *Trace) RecordOp(key any, name string, d time.Duration, rowsIn, rowsOut int64) {
	if d <= 0 {
		d = 1
	}
	t.mu.Lock()
	// The span may pre-exist with only what the operator noted during Run.
	sp := t.span(key)
	sp.Name = name
	sp.Calls++
	sp.Duration += d
	sp.RowsIn += rowsIn
	sp.RowsOut += rowsOut
	t.mu.Unlock()
}

// span returns the span recorded under key, creating it on first use. The
// caller holds t.mu.
func (t *Trace) span(key any) *OpSpan {
	sp, ok := t.ops[key]
	if !ok {
		t.seq++
		sp = &OpSpan{Seq: t.seq}
		t.ops[key] = sp
	}
	return sp
}

// AddOpPruned notes, from inside Run, that the operator skipped the input
// chunks ids, holding rows rows. RecordOp later adds the operator's whole
// input to RowsIn, so the skipped rows are taken off here.
func (t *Trace) AddOpPruned(key any, ids []int, rows int64) {
	t.mu.Lock()
	sp := t.span(key)
	sp.ChunksPruned += int64(len(ids))
	sp.PrunedChunkIDs = append(sp.PrunedChunkIDs, ids...)
	sp.RowsIn -= rows
	t.mu.Unlock()
}

// AddOpAttr accumulates a named measurement onto the operator's span.
// Operators call it from inside Run (the span entry is created on first
// use and later completed by RecordOp); repeated adds under the same name
// sum, so per-partition contributions aggregate naturally.
func (t *Trace) AddOpAttr(key any, name string, delta int64) {
	t.mu.Lock()
	sp := t.span(key)
	if sp.Attrs == nil {
		sp.Attrs = make(map[string]int64)
	}
	sp.Attrs[name] += delta
	t.mu.Unlock()
}

// SetOpLabel records a named choice onto the operator's span, from inside
// Run like AddOpAttr; a later call under the same name replaces it.
func (t *Trace) SetOpLabel(key any, name, value string) {
	t.mu.Lock()
	sp := t.span(key)
	if sp.Labels == nil {
		sp.Labels = make(map[string]string)
	}
	sp.Labels[name] = value
	t.mu.Unlock()
}

// copySpan copies a span with maps of its own.
func copySpan(sp *OpSpan) OpSpan {
	cp := *sp
	cp.Attrs = maps.Clone(sp.Attrs)
	cp.Labels = maps.Clone(sp.Labels)
	return cp
}

// Op returns a copy of the span recorded under key, or nil if the operator
// never executed.
func (t *Trace) Op(key any) *OpSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp, ok := t.ops[key]
	if !ok {
		return nil
	}
	cp := copySpan(sp)
	return &cp
}

// OpSpans returns copies of all operator spans ordered by completion (Seq).
func (t *Trace) OpSpans() []OpSpan {
	t.mu.Lock()
	out := make([]OpSpan, 0, len(t.ops))
	for _, sp := range t.ops {
		out = append(out, copySpan(sp))
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// String renders the trace header and stage breakdown (the operator tree is
// rendered by the operators package, which knows the plan shape).
func (t *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %s\n", t.SQL)
	t.mu.Lock()
	stages := append([]StageSpan(nil), t.stages...)
	total := t.total
	t.mu.Unlock()
	b.WriteString("stages:")
	var sum time.Duration
	for _, s := range stages {
		fmt.Fprintf(&b, " %s=%v", s.Name, s.Duration)
		sum += s.Duration
	}
	if total > 0 {
		fmt.Fprintf(&b, " | total=%v (stages %.1f%%)", total, 100*float64(sum)/float64(total))
	}
	b.WriteByte('\n')
	if ws := t.Waits(); len(ws) > 0 {
		b.WriteString(FormatWaits(ws))
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatWaits renders wait spans as a single "waits:" line (shared by
// Trace.String and the EXPLAIN ANALYZE output).
func FormatWaits(ws []WaitSpan) string {
	var b strings.Builder
	b.WriteString("waits:")
	for _, w := range ws {
		fmt.Fprintf(&b, " %s=%v(%d)", w.Kind, w.Duration, w.Count)
	}
	return b.String()
}
