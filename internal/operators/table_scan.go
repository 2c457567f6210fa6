package operators

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hyrise/internal/concurrency"
	"hyrise/internal/encoding"
	"hyrise/internal/expression"
	"hyrise/internal/observe"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// TableScan filters rows by a conjunctive predicate chain, one pass per chunk
// (paper §2.6: the surviving positions are what moves from conjunct to
// conjunct, nothing is materialized in between). Simple predicates of the form
// `column OP literal` run directly on the encoded representation via
// encoding.ScannableSegment (paper §2.3): value-id comparison for
// dictionaries, offset-domain block scans for frame-of-reference, per-run
// evaluation for run-length — after a prune that skips the chunks whose zone
// or filters prove that some conjunct cannot match, a binary search where the
// chunk's zone says the column ascends and, for a selective predicate on a
// chunk that carries a secondary index (paper §2.4), an index probe.
// Everything else falls back to the vectorized expression evaluator over
// materialized columns.
type TableScan struct {
	// preds are the chain's conjuncts in execution order: the first runs
	// through the ladder over whole chunks, each further one over the offsets
	// that survived so far. Empty for a chain that only checks visibility.
	preds []expression.Expression
	// visible drops, last, the rows the context's transaction must not see
	// (paper §2.8) — where the chain held a ValidateNode.
	visible bool
	inputs  []Operator // the one input, held as Inputs returns it
}

// NewTableScan builds a scan of preds, in that order.
func NewTableScan(in Operator, preds ...expression.Expression) *TableScan {
	return &TableScan{preds: preds, inputs: []Operator{in}}
}

// Name implements Operator.
func (op *TableScan) Name() string {
	parts := make([]string, len(op.preds), len(op.preds)+1)
	for i, p := range op.preds {
		parts[i] = p.String()
	}
	if op.visible {
		parts = append(parts, "visible")
	}
	return "TableScan(" + strings.Join(parts, " AND ") + ")"
}

// Inputs implements Operator.
func (op *TableScan) Inputs() []Operator { return op.inputs }

// Run implements Operator: the chunk list is split into morsels (runs of
// consecutive chunks, see morselRanges) and each morsel runs the scan ladder
// (chunkScan) as one scheduler task. decideParallel keeps the scan in one
// morsel when the fan-out would not amortize; it is asked once for the whole
// chain, whose later conjuncts and visibility check ride on the same tasks.
func (op *TableScan) Run(ctx *ExecContext, inputs []*storage.Table) (*storage.Table, error) {
	input := inputs[0]
	if op.visible && ctx.Tx == nil {
		return nil, fmt.Errorf("operators: a visible TableScan requires a transaction context")
	}
	chunks := input.Chunks()
	scan := newChunkScan(ctx, input, op.preds, op.visible)

	// One morsel over every chunk is the serial scan.
	morsels := []morsel{{lo: 0, hi: len(chunks)}}
	var t0 time.Time
	indexed := scan.indexed(chunks)
	cost, estRows, sel := ctx.scanCost(input, scan.simple, indexed)
	scan.probe = indexed && sel <= indexProbeMaxSelectivity
	parallel := ctx.decideParallel(opScan, cost)
	if parallel {
		morsels = morselRanges(chunks, ctx.morselTargetRows())
		t0 = ctx.scanWallClock()
	}
	out, err := scanMorsels(ctx, input, chunks, morsels, scan.run)
	ctx.noteScan(op, scan, parallel, len(morsels), sinceNS(t0), estRows)
	return out, err
}

// scanMorsels runs scanChunk over every chunk, one task per morsel, and
// assembles the reference table. Per-chunk position lists land in fixed
// slots and merge in chunk order, so the output is bit-for-bit equal for
// every split of the chunk list.
func scanMorsels(ctx *ExecContext, input *storage.Table, chunks []*storage.Chunk, morsels []morsel,
	scanChunk func(ci int, c *storage.Chunk) ([]types.ChunkOffset, error)) (*storage.Table, error) {
	rowsPerChunk := make([][]types.ChunkOffset, len(chunks))
	errs := make([]error, len(chunks))
	jobs := make([]func(), len(morsels))
	for mi, m := range morsels {
		m := m
		jobs[mi] = func() {
			for ci := m.lo; ci < m.hi; ci++ {
				// Chunk-granular cancellation inside a running morsel.
				if ctx.Err() != nil {
					return
				}
				rowsPerChunk[ci], errs[ci] = scanChunk(ci, chunks[ci])
			}
		}
	}
	ctx.runJobs(jobs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return buildReferenceTable(input, rowsPerChunk), nil
}

// chunkScan is the per-chunk pass of a predicate chain: prune by the zone →
// first conjunct by the ladder (binary search over an ascending
// column → index probe → encoded scan → typed scan over unencoded values;
// each chunk takes the first rung that applies to it) → visibility, block by
// block (concurrency.VisibleOffsets) → every conjunct left, the first one too
// where no rung applied, by vectorized expression evaluation over the
// surviving offsets only. Visibility comes before any expression evaluation
// because evaluation can fail on a row's value (an INT overflow), and a row
// the transaction cannot see must not fail its statement; the rungs before it
// compare values and fail on none. The prune rung is the engine's only
// pruning site (paper §2.4): it runs per execution, so it sees a prepared
// statement's bound values and bins set after the plan was cached,
// and the scan always reads the stored table itself, whose chunk ids DML
// writes into its redo records. Everything a
// chunk needs is resolved once per operator run; run is safe to call from
// concurrent tasks on distinct chunks.
type chunkScan struct {
	ctx     *ExecContext
	input   *storage.Table
	preds   []expression.Expression
	visible bool
	simple  *simplePredicate         // nil when preds[0] is not `column OP literal`
	cell    *observe.ColumnScanStats // telemetry of simple's column; nil without
	prune   []*simplePredicate       // the chain's simple predicates that bound their column
	probe   bool                     // the index rung is open (TableScan.Run decides)

	prunedRows     atomic.Int64 // rows of the chunks the prune rung skipped
	prunedMu       sync.Mutex
	prunedIDs      []int          // which chunks those were; kept for the trace only
	sorted, probed atomic.Int64   // chunks the sorted rung and the index rung answered
	after          []atomic.Int64 // rows that survived conjunct k
	invisible      atomic.Int64   // rows the visibility rung hid
}

func newChunkScan(ctx *ExecContext, input *storage.Table, preds []expression.Expression, visible bool) *chunkScan {
	s := &chunkScan{ctx: ctx, input: input, preds: preds, visible: visible, after: make([]atomic.Int64, len(preds))}
	for i, e := range preds {
		p := analyzeSimplePredicate(e, ctx)
		if i == 0 {
			s.simple = p
			s.cell = ctx.scanStatsCell(input, p)
		}
		if p != nil {
			if _, _, ok := scanInterval(&p.pred); ok {
				s.prune = append(s.prune, p)
			}
		}
	}
	return s
}

// record files one chunk's scan under the column of the predicate that
// answered it: the rung, the rows it covered and the rows that qualified.
func (s *chunkScan) record(p *simplePredicate, kind observe.ScanPathKind, rowsIn, rowsOut int) {
	cell := s.cell
	if p != s.simple {
		// A later conjunct pruned the chunk; its column gets a cell only now
		// that there is something to file under it.
		cell = s.ctx.scanStatsCell(s.input, p)
	}
	if cell != nil {
		cell.Record(kind, p.pred.Op.IsPoint(), int64(rowsIn), int64(rowsOut))
	}
}

// run returns the qualifying positions of chunk ci.
func (s *chunkScan) run(ci int, c *storage.Chunk) ([]types.ChunkOffset, error) {
	n := c.Size()
	if n == 0 {
		return nil, nil
	}
	for _, p := range s.prune {
		if pruneChunkScan(c, p) {
			noteScanPath(s.ctx, observe.ScanPathPruned, 0)
			s.prunedRows.Add(int64(n))
			if s.ctx.Trace != nil {
				s.prunedMu.Lock()
				s.prunedIDs = append(s.prunedIDs, ci)
				s.prunedMu.Unlock()
			}
			s.record(p, observe.ScanPathPruned, n, 0)
			return nil, nil
		}
	}
	var offsets []types.ChunkOffset
	k0 := 0 // the first conjunct left to the evaluator
	if matches, ok := s.ladder(c, n); ok {
		offsets, k0 = matches, 1
		s.after[0].Add(int64(len(matches)))
	} else {
		offsets = identityOffsets(n)
	}
	if mvcc := c.MvccData(); s.visible && mvcc != nil {
		survivors := len(offsets)
		offsets = concurrency.VisibleOffsets(mvcc, offsets, s.ctx.Tx.TID(), s.ctx.Tx.Snapshot())
		s.invisible.Add(int64(survivors - len(offsets)))
	}
	for k := k0; k < len(s.preds) && len(offsets) > 0; k++ {
		rows, at := len(offsets), offsets
		if k == 0 && rows == n && c.IsImmutable() && c.Size() == n {
			at = nil // the fallback rung over a sealed chunk reads whole segments
		}
		var err error
		if offsets, err = s.eval(c, s.preds[k], at); err != nil {
			return nil, err
		}
		if k == 0 && s.simple != nil {
			s.record(s.simple, observe.ScanPathFallback, rows, len(offsets))
		}
		s.after[k].Add(int64(len(offsets)))
	}
	return offsets, nil
}

// ladder answers the chain's first conjunct over the whole chunk by the first
// rung that applies; ok is false when none does and evaluation must.
func (s *chunkScan) ladder(c *storage.Chunk, n int) (matches []types.ChunkOffset, ok bool) {
	if s.simple == nil || s.ctx.DynamicAccess {
		return nil, false
	}
	matches, enc, kind, ok := scanChunkSpecialized(c, s.simple, s.probe)
	if ok {
		noteScanPath(s.ctx, kind, enc)
		switch kind {
		case observe.ScanPathSorted:
			s.sorted.Add(1)
		case observe.ScanPathIndex:
			s.probed.Add(1)
		}
		s.record(s.simple, kind, n, len(matches))
	}
	return matches, ok
}

// eval is the fallback rung and the rung of every conjunct after the first:
// vectorized expression evaluation over the columns pred reads, materialized
// whole (offsets nil) or gathered at offsets, which it filters in place.
func (s *chunkScan) eval(c *storage.Chunk, pred expression.Expression, offsets []types.ChunkOffset) ([]types.ChunkOffset, error) {
	n := len(offsets)
	if offsets == nil {
		n = c.Size()
	}
	ec := s.ctx.evalContext(c, n, offsets)
	if offsets == nil {
		countDecodedSegments(s.ctx, c, ec)
	}
	keep, err := expression.EvaluateBool(pred, ec)
	if err != nil {
		return nil, err
	}
	out := offsets[:0]
	for i, k := range keep {
		if k {
			o := types.ChunkOffset(i)
			if offsets != nil {
				o = offsets[i]
			}
			out = append(out, o)
		}
	}
	return out, nil
}

// indexed reports whether some chunk could answer through the index rung:
// the predicate confines the column to an interval with operands of the
// column's own type (a lookup converts a 2.5 probing an INT index exactly, but
// the evaluator compares the two as floats, which rounds integers past 2^53;
// indexes hold no NULL and no NaN rows, so null checks and <>, which matches
// NaN, scan) and a chunk carries an index on that column.
func (s *chunkScan) indexed(chunks []*storage.Chunk) bool {
	p := s.simple
	defs := s.input.ColumnDefinitions()
	if p == nil || s.ctx.DynamicAccess || int(p.column) >= len(defs) || !p.operandsTyped(defs[p.column].Type) {
		return false
	}
	for _, c := range chunks {
		if c.GetIndex(p.column) != nil {
			return true
		}
	}
	return false
}

// simplePredicate is a `column OP literal`, `column BETWEEN lit AND lit`, or
// `column IS [NOT] NULL` predicate eligible for the encoded scan paths.
type simplePredicate struct {
	column types.ColumnID
	pred   encoding.ScanPredicate
}

// scanInterval is the closed interval [lo, hi] a scan predicate confines its
// column to (nil = open end; `=` has lo == hi). ok is false for <> and
// IS [NOT] NULL, which bound nothing. Exclusive bounds count as inclusive:
// what reads the interval (zones, index ranges, histograms) may keep too
// much, never too little.
func scanInterval(pr *encoding.ScanPredicate) (lo, hi *types.Value, ok bool) {
	switch pr.Op {
	case encoding.ScanEq:
		return &pr.Value, &pr.Value, true
	case encoding.ScanLt, encoding.ScanLe:
		return nil, &pr.Value, true
	case encoding.ScanGt, encoding.ScanGe:
		return &pr.Value, nil, true
	case encoding.ScanBetween:
		return &pr.Lo, &pr.Hi, true
	}
	return nil, nil, false
}

// operandsTyped reports whether the predicate is an interval whose operands
// are each of type dt.
func (p *simplePredicate) operandsTyped(dt types.DataType) bool {
	switch pr := &p.pred; pr.Op {
	case encoding.ScanNe, encoding.ScanIsNull, encoding.ScanIsNotNull:
		return false
	case encoding.ScanBetween:
		return pr.Lo.Type == dt && pr.Hi.Type == dt
	default:
		return pr.Value.Type == dt
	}
}

// scanOpOf maps comparison operators onto encoded scan operators.
func scanOpOf(op expression.ComparisonOp) (encoding.ScanOp, bool) {
	switch op {
	case expression.Eq:
		return encoding.ScanEq, true
	case expression.Ne:
		return encoding.ScanNe, true
	case expression.Lt:
		return encoding.ScanLt, true
	case expression.Le:
		return encoding.ScanLe, true
	case expression.Gt:
		return encoding.ScanGt, true
	case expression.Ge:
		return encoding.ScanGe, true
	default:
		return 0, false
	}
}

// scanOperand resolves a scan operand to a concrete value: a literal
// directly, a statement placeholder through the execution's parameters, a
// correlated column through the outer row's values. Encoded scans compare
// against raw codes of the column's type, so a value of a different type (an
// outer reference of another numeric type, say a float probing an int
// column) reports false and the predicate degrades to the vectorized
// fallback, which compares the two in their common type.
func scanOperand(e expression.Expression, ctx *ExecContext, dt types.DataType) (types.Value, bool) {
	var slots []types.Value
	var id int
	switch x := e.(type) {
	case *expression.Literal:
		return x.Value, !x.Value.IsNull()
	case *expression.Parameter:
		slots, id = ctx.Params, x.ID
	case *expression.OuterRef:
		slots, id = ctx.Outer, x.ID
	}
	if id < 0 || id >= len(slots) {
		return types.Value{}, false
	}
	v := slots[id]
	return v, !v.IsNull() && v.Type == dt
}

// analyzeSimplePredicate recognizes the specializable shapes. It runs per
// execution, so placeholders and correlated columns resolve to that
// execution's values and keep the encoded fast paths hot across reuses of
// one cached plan.
func analyzeSimplePredicate(e expression.Expression, ctx *ExecContext) *simplePredicate {
	switch x := e.(type) {
	case *expression.Comparison:
		if col, ok := x.Left.(*expression.BoundColumn); ok {
			if v, vok := scanOperand(x.Right, ctx, col.DT); vok {
				if op, ok := scanOpOf(x.Op); ok {
					return &simplePredicate{column: types.ColumnID(col.Index), pred: encoding.ScanPredicate{Op: op, Value: v}}
				}
			}
		}
		if col, ok := x.Right.(*expression.BoundColumn); ok {
			if v, vok := scanOperand(x.Left, ctx, col.DT); vok {
				if op, ok := scanOpOf(x.Op.Flip()); ok {
					return &simplePredicate{column: types.ColumnID(col.Index), pred: encoding.ScanPredicate{Op: op, Value: v}}
				}
			}
		}
	case *expression.Between:
		col, ok := x.Child.(*expression.BoundColumn)
		if !ok {
			return nil
		}
		lo, ok1 := scanOperand(x.Lo, ctx, col.DT)
		hi, ok2 := scanOperand(x.Hi, ctx, col.DT)
		if ok1 && ok2 {
			return &simplePredicate{column: types.ColumnID(col.Index), pred: encoding.ScanPredicate{Op: encoding.ScanBetween, Lo: lo, Hi: hi}}
		}
	case *expression.IsNull:
		if col, ok := x.Child.(*expression.BoundColumn); ok {
			op := encoding.ScanIsNull
			if x.Negate {
				op = encoding.ScanIsNotNull
			}
			return &simplePredicate{column: types.ColumnID(col.Index), pred: encoding.ScanPredicate{Op: op}}
		}
	}
	return nil
}

// scanStatsCell resolves the per-column workload statistics cell for a
// simple predicate scan over a named table (nil otherwise) — resolved once
// per operator run, updated lock-free per chunk.
func (ctx *ExecContext) scanStatsCell(input *storage.Table, simple *simplePredicate) *observe.ColumnScanStats {
	if ctx.Scans == nil || simple == nil {
		return nil
	}
	name := input.Name()
	if name == "" {
		return nil
	}
	defs := input.ColumnDefinitions()
	if int(simple.column) >= len(defs) {
		return nil
	}
	return ctx.Scans.Column(name, defs[simple.column].Name)
}

// noteScanPath bumps the global scan.* counters for one specialized segment
// scan.
func noteScanPath(ctx *ExecContext, kind observe.ScanPathKind, enc encoding.ScanPath) {
	m := ctx.Metrics
	if m == nil {
		return
	}
	switch kind {
	case observe.ScanPathPruned:
		m.ScanSegmentsPruned.Inc()
	case observe.ScanPathSorted:
		m.ScanSegmentsSorted.Inc()
	case observe.ScanPathIndex:
		m.ScanSegmentsIndexProbed.Inc()
	case observe.ScanPathUnencoded:
		m.ScanSegmentsUnencoded.Inc()
	case observe.ScanPathEncoded:
		switch enc {
		case encoding.PathDictionary:
			m.ScanEncodedDictionary.Inc()
		case encoding.PathFrameOfReference:
			m.ScanEncodedFOR.Inc()
		case encoding.PathRunLength:
			m.ScanEncodedRLE.Inc()
		}
	}
}

// countDecodedSegments wraps the evaluation context's column loader so every
// encoded segment the fallback path materializes increments
// scan.segments_decoded — the decode-to-scan work the encoded paths exist to
// avoid (and the signal the encoding advisor watches).
func countDecodedSegments(ctx *ExecContext, c *storage.Chunk, ec *expression.Context) {
	m := ctx.Metrics
	if m == nil {
		return
	}
	inner := ec.Column
	counted := make(map[int]bool)
	ec.Column = func(i int) (*expression.Vector, error) {
		if !counted[i] && i < c.ColumnCount() {
			counted[i] = true
			if spec, ok := encoding.SpecOf(c.GetSegment(types.ColumnID(i))); ok && spec.Encoding != encoding.Unencoded {
				m.ScanSegmentsDecoded.Inc()
			}
		}
		return inner(i)
	}
}

// pruneChunkScan asks the chunk's zone — every chunk of a stored table has
// one, the mutable tail included; a sealed one holds the range filter's bins —
// whether the predicate's interval provably holds zero rows of the chunk, in
// which case no segment of it is touched.
func pruneChunkScan(c *storage.Chunk, p *simplePredicate) bool {
	lo, hi, _ := scanInterval(&p.pred)
	z, ok := c.Zone(p.column)
	return ok && z.Excludes(lo, hi)
}

// scanChunkSpecialized runs the sorted, index and per-encoding fast paths
// (probe opens the index rung). ok is false when no specialization applies
// (the caller falls back to the evaluator). The returned kind labels which
// path answered; enc identifies the encoding when kind is ScanPathEncoded.
func scanChunkSpecialized(c *storage.Chunk, p *simplePredicate, probe bool) (matches []types.ChunkOffset, enc encoding.ScanPath, kind observe.ScanPathKind, ok bool) {
	if int(p.column) >= c.ColumnCount() {
		return nil, 0, 0, false
	}
	// The view and the zone come from under one lock, so the run covers the
	// view or it does not — also on the tail that is being appended to.
	seg, zone := c.SegmentWithZone(p.column)
	if zone.Ascending >= seg.Len() {
		if first, last, sok := encoding.ScanSorted(seg, p.pred); sok {
			return offsetRange(first, last), 0, observe.ScanPathSorted, true
		}
	}
	if probe {
		if idx := c.GetIndex(p.column); idx != nil {
			return indexProbe(idx, p), 0, observe.ScanPathIndex, true
		}
	}
	if ss, sok := seg.(encoding.ScannableSegment); sok {
		if out, path, eok := ss.ScanEncoded(p.pred, nil); eok {
			return out, path, observe.ScanPathEncoded, true
		}
		// Encoded but the predicate/type pair is unsupported: materialize.
		return nil, 0, 0, false
	}
	switch s := seg.(type) {
	case *storage.ValueSegment[int64]:
		if out, vok := encoding.ScanValues(p.pred, s.Values(), s.Nulls(), nil); vok {
			return out, 0, observe.ScanPathUnencoded, true
		}
	case *storage.ValueSegment[float64]:
		if out, vok := encoding.ScanValues(p.pred, s.Values(), s.Nulls(), nil); vok {
			return out, 0, observe.ScanPathUnencoded, true
		}
	case *storage.StringSegment:
		if out, vok := encoding.ScanStrings(p.pred, s, nil); vok {
			return out, 0, observe.ScanPathUnencoded, true
		}
	}
	return nil, 0, 0, false
}

// indexProbe answers an interval predicate from a chunk's secondary index
// (paper §2.4: indexes "return qualifying positions for a certain predicate
// directly without scanning through the data"), in offset order like every
// other rung.
func indexProbe(idx storage.ChunkIndex, p *simplePredicate) []types.ChunkOffset {
	pr := &p.pred
	lo, hi, _ := scanInterval(pr)
	out := idx.Range(lo, hi, pr.Op == encoding.ScanGt, pr.Op == encoding.ScanLt)
	if pr.Op != encoding.ScanEq {
		// One key's offsets ascend, a range's come in key order; every rung
		// returns offset order.
		slices.Sort(out)
	}
	return out
}
