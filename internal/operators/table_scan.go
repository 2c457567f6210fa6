package operators

import (
	"slices"
	"sync/atomic"
	"time"

	"hyrise/internal/encoding"
	"hyrise/internal/expression"
	"hyrise/internal/observe"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// TableScan filters rows by a predicate. Simple predicates of the form
// `column OP literal` run directly on the encoded representation via
// encoding.ScannableSegment (paper §2.3): value-id comparison for
// dictionaries, offset-domain block scans for frame-of-reference, per-run
// evaluation for run-length — after a segment-level min-max prune that skips
// segments the predicate provably cannot match and, for a selective
// predicate on a chunk that carries a secondary index (paper §2.4), an index
// probe. Everything else falls back to the vectorized expression evaluator
// over materialized columns.
type TableScan struct {
	Predicate expression.Expression
	input     Operator
}

// NewTableScan builds a scan.
func NewTableScan(in Operator, pred expression.Expression) *TableScan {
	return &TableScan{Predicate: pred, input: in}
}

// Name implements Operator.
func (op *TableScan) Name() string { return "TableScan(" + op.Predicate.String() + ")" }

// Inputs implements Operator.
func (op *TableScan) Inputs() []Operator { return []Operator{op.input} }

// Run implements Operator: the chunk list is split into morsels (runs of
// consecutive chunks, see morselRanges) and each morsel runs the scan ladder
// (chunkScan) as one scheduler task. decideParallel keeps the scan in one
// morsel when the fan-out would not amortize.
func (op *TableScan) Run(ctx *ExecContext, inputs []*storage.Table) (*storage.Table, error) {
	input := inputs[0]
	chunks := input.Chunks()
	scan := newChunkScan(ctx, input, op.Predicate)

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
	ctx.noteScan(op, parallel, len(morsels), sinceNS(t0), estRows, scan.probed.Load())
	return out, err
}

// scanMorsels runs scanChunk over every chunk, one task per morsel, and
// assembles the reference table. Per-chunk position lists land in fixed
// slots and merge in chunk order, so the output is bit-for-bit equal for
// every split of the chunk list.
func scanMorsels(ctx *ExecContext, input *storage.Table, chunks []*storage.Chunk, morsels []morsel,
	scanChunk func(ci int, c *storage.Chunk) (types.PosList, error)) (*storage.Table, error) {
	rowsPerChunk := make([]types.PosList, len(chunks))
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
	return buildReferenceTable(input, rowsPerChunk, nil), nil
}

// chunkScan is the per-chunk scan ladder: segment min-max prune → index
// probe → encoded scan → typed scan over unencoded values → vectorized
// expression evaluation over materialized columns. Each chunk takes the first
// rung that applies to it. Everything a chunk needs is resolved once per
// operator run; run is safe to call from concurrent tasks on distinct chunks.
type chunkScan struct {
	ctx    *ExecContext
	input  *storage.Table
	pred   expression.Expression
	simple *simplePredicate         // nil when pred is not `column OP literal`
	cell   *observe.ColumnScanStats // nil without workload telemetry
	point  bool
	probe  bool         // the index rung is open (TableScan.Run decides)
	probed atomic.Int64 // chunks the index rung answered
}

func newChunkScan(ctx *ExecContext, input *storage.Table, pred expression.Expression) *chunkScan {
	simple := analyzeSimplePredicate(pred, ctx.Params)
	return &chunkScan{
		ctx: ctx, input: input, pred: pred, simple: simple,
		cell:  ctx.scanStatsCell(input, simple),
		point: simple != nil && simple.pred.Op.IsPoint(),
	}
}

// run returns the qualifying positions of chunk ci.
func (s *chunkScan) run(ci int, c *storage.Chunk) (types.PosList, error) {
	n := c.Size()
	if n == 0 {
		return nil, nil
	}
	ctx := s.ctx
	if s.simple != nil && !ctx.DynamicAccess {
		if matches, enc, kind, ok := scanChunkSpecialized(c, s.simple, s.probe); ok {
			noteScanPath(ctx, kind, enc)
			if kind == observe.ScanPathIndex {
				s.probed.Add(1)
			}
			if s.cell != nil {
				s.cell.Record(kind, s.point, int64(n), int64(len(matches)))
			}
			return offsetsToRows(types.ChunkID(ci), matches), nil
		}
	}
	// Fallback: vectorized expression evaluation over materialized columns.
	ec := ctx.evalContext(s.input, c, n)
	countDecodedSegments(ctx, c, ec)
	keep, err := expression.EvaluateBool(s.pred, ec)
	if err != nil {
		return nil, err
	}
	var rows types.PosList
	for o, k := range keep {
		if k {
			rows = append(rows, types.RowID{Chunk: types.ChunkID(ci), Offset: types.ChunkOffset(o)})
		}
	}
	if s.cell != nil {
		s.cell.Record(observe.ScanPathFallback, s.point, int64(n), int64(len(rows)))
	}
	return rows, nil
}

// indexed reports whether some chunk could answer through the index rung:
// the predicate compares the column with operands of the column's own type
// (index keys are built from column values, so a 2.5 probing an INT index
// would be truncated; indexes hold no NULLs, so null checks scan) and a chunk
// carries an index on that column.
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

// operandsTyped reports whether the predicate has operands and each is of
// type dt.
func (p *simplePredicate) operandsTyped(dt types.DataType) bool {
	switch pr := &p.pred; pr.Op {
	case encoding.ScanIsNull, encoding.ScanIsNotNull:
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
// directly, a prepared-statement placeholder through the execution's bound
// parameters. Encoded scans compare against raw codes of the column's type,
// so a parameter of a different type (say a text value probing an int
// column) reports false and the predicate degrades to the vectorized
// fallback, which coerces per the usual comparison rules.
func scanOperand(e expression.Expression, params []types.Value, dt types.DataType) (types.Value, bool) {
	switch x := e.(type) {
	case *expression.Literal:
		return x.Value, !x.Value.IsNull()
	case *expression.Parameter:
		if x.ID < 0 || x.ID >= len(params) {
			return types.Value{}, false
		}
		v := params[x.ID]
		return v, !v.IsNull() && v.Type == dt
	}
	return types.Value{}, false
}

// analyzeSimplePredicate recognizes the specializable shapes. It runs per
// execution, so prepared-statement parameters resolve to that execution's
// bound values and keep the encoded fast paths hot across reuses of one
// cached plan.
func analyzeSimplePredicate(e expression.Expression, params []types.Value) *simplePredicate {
	switch x := e.(type) {
	case *expression.Comparison:
		if col, ok := x.Left.(*expression.BoundColumn); ok {
			if v, vok := scanOperand(x.Right, params, col.DT); vok {
				if op, ok := scanOpOf(x.Op); ok {
					return &simplePredicate{column: types.ColumnID(col.Index), pred: encoding.ScanPredicate{Op: op, Value: v}}
				}
			}
		}
		if col, ok := x.Right.(*expression.BoundColumn); ok {
			if v, vok := scanOperand(x.Left, params, col.DT); vok {
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
		lo, ok1 := scanOperand(x.Lo, params, col.DT)
		hi, ok2 := scanOperand(x.Hi, params, col.DT)
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

func offsetsToRows(chunkID types.ChunkID, offsets []types.ChunkOffset) types.PosList {
	rows := make(types.PosList, len(offsets))
	for i, o := range offsets {
		rows[i] = types.RowID{Chunk: chunkID, Offset: o}
	}
	return rows
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

// pruneChunkScan consults the chunk's min-max (and other) filters to decide
// whether the predicate provably matches zero rows of the column's segment —
// in which case the segment is never touched. Exclusive bounds are checked
// as inclusive ranges: filters may fail to prune, never prune wrongly.
func pruneChunkScan(c *storage.Chunk, p *simplePredicate) bool {
	filters := c.Filters(p.column)
	if len(filters) == 0 {
		return false
	}
	pr := &p.pred
	for _, f := range filters {
		switch pr.Op {
		case encoding.ScanEq:
			if f.CanPruneEquals(pr.Value) {
				return true
			}
		case encoding.ScanLt, encoding.ScanLe:
			if f.CanPruneRange(nil, &pr.Value) {
				return true
			}
		case encoding.ScanGt, encoding.ScanGe:
			if f.CanPruneRange(&pr.Value, nil) {
				return true
			}
		case encoding.ScanBetween:
			if f.CanPruneRange(&pr.Lo, &pr.Hi) {
				return true
			}
		default:
			// <>, IS [NOT] NULL: min-max statistics cannot refute these.
			return false
		}
	}
	return false
}

// scanChunkSpecialized runs the pruning, index and per-encoding fast paths
// (probe opens the index rung). ok is false when no specialization applies
// (the caller falls back to the evaluator). The returned kind labels which
// path answered; enc identifies the encoding when kind is ScanPathEncoded.
func scanChunkSpecialized(c *storage.Chunk, p *simplePredicate, probe bool) (matches []types.ChunkOffset, enc encoding.ScanPath, kind observe.ScanPathKind, ok bool) {
	if int(p.column) >= c.ColumnCount() {
		return nil, 0, 0, false
	}
	if pruneChunkScan(c, p) {
		return nil, 0, observe.ScanPathPruned, true
	}
	if probe {
		if idx := c.GetIndex(p.column); idx != nil {
			return indexProbe(idx, p), 0, observe.ScanPathIndex, true
		}
	}
	seg := c.GetSegment(p.column)
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
	case *storage.ValueSegment[string]:
		if out, vok := encoding.ScanValues(p.pred, s.Values(), s.Nulls(), nil); vok {
			return out, 0, observe.ScanPathUnencoded, true
		}
	}
	return nil, 0, 0, false
}

// indexProbe answers the predicate from a chunk's secondary index (paper
// §2.4: indexes "return qualifying positions for a certain predicate directly
// without scanning through the data"), in offset order like every other rung.
func indexProbe(idx storage.ChunkIndex, p *simplePredicate) []types.ChunkOffset {
	pr := &p.pred
	var lo, hi *types.Value // nil = open; <> walks the whole index
	switch pr.Op {
	case encoding.ScanEq:
		return idx.Equals(pr.Value)
	case encoding.ScanBetween:
		lo, hi = &pr.Lo, &pr.Hi
	case encoding.ScanLt, encoding.ScanLe:
		hi = &pr.Value
	case encoding.ScanGt, encoding.ScanGe:
		lo = &pr.Value
	}
	out := idx.Range(lo, hi)
	switch pr.Op {
	case encoding.ScanLt, encoding.ScanGt, encoding.ScanNe:
		// Range bounds are inclusive: drop the rows equal to the operand.
		equal := idx.Equals(pr.Value)
		drop := make(map[types.ChunkOffset]bool, len(equal))
		for _, o := range equal {
			drop[o] = true
		}
		out = slices.DeleteFunc(out, func(o types.ChunkOffset) bool { return drop[o] })
	}
	// Postings come in key order; every rung returns offset order.
	slices.Sort(out)
	return out
}
