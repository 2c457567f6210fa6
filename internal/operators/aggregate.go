package operators

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"hyrise/internal/encoding"
	"hyrise/internal/expression"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Aggregate is the hash-based grouping/aggregation operator. Group keys are
// the evaluated GROUP BY expressions; aggregate states are updated chunk by
// chunk. Without GROUP BY a single group covers all rows (and exists even
// for empty inputs, per SQL).
type Aggregate struct {
	GroupBy []expression.Expression
	Aggs    []*expression.Aggregate
	Names   []string
	Types   []types.DataType
	input   Operator
}

// NewAggregate builds the operator; names/types cover group-by columns then
// aggregates.
func NewAggregate(in Operator, groupBy []expression.Expression, aggs []*expression.Aggregate, names []string, dts []types.DataType) *Aggregate {
	return &Aggregate{GroupBy: groupBy, Aggs: aggs, Names: names, Types: dts, input: in}
}

// Name implements Operator.
func (op *Aggregate) Name() string {
	var parts []string
	for _, g := range op.GroupBy {
		parts = append(parts, g.String())
	}
	for _, a := range op.Aggs {
		parts = append(parts, a.String())
	}
	return "Aggregate(" + strings.Join(parts, ", ") + ")"
}

// Inputs implements Operator.
func (op *Aggregate) Inputs() []Operator { return []Operator{op.input} }

// aggState accumulates one aggregate for one group.
type aggState struct {
	sum      float64
	sumInt   int64
	count    int64
	min, max types.Value
	distinct map[types.Value]struct{}
	seen     bool
}

type group struct {
	keys   []types.Value
	states []aggState
	// hash is the FNV-1a hash of the group's encoded key — the shard
	// selector of the parallel merge.
	hash uint64
	// firstSeen is the global row ordinal of the group's first appearance.
	// The output is ordered by it, which makes the merge order-independent:
	// the order derives from the data, not from task completion order.
	firstSeen int64
}

// chunkGroups is the partial aggregation of one chunk.
type chunkGroups struct {
	groups map[string]*group
	order  []string
	err    error
}

// Run implements Operator: per-chunk partial aggregation (parallel under a
// multi-worker scheduler), then an order-independent merge — sequential for
// few groups, hash-sharded parallel once decideParallel says so.
// The two-phase shape is what makes chunked tables an "inherent
// partitioning" for multiprocessing (paper §2.2).
func (op *Aggregate) Run(ctx *ExecContext, inputs []*storage.Table) (*storage.Table, error) {
	input := inputs[0]
	chunks := input.Chunks()
	partials := make([]chunkGroups, len(chunks))

	// Global row ordinal of each chunk's first row (for firstSeen).
	bases := make([]int64, len(chunks))
	var base int64
	for ci, c := range chunks {
		bases[ci] = base
		base += int64(c.Size())
	}

	plan := op.planEncodedAggregates()

	jobs := make([]func(), len(chunks))
	for ci, c := range chunks {
		ci, c := ci, c
		jobs[ci] = func() {
			if plan != nil && !ctx.DynamicAccess {
				if partial, ok := op.aggregateChunkEncoded(c, bases[ci], plan); ok {
					if m := ctx.Metrics; m != nil {
						m.ScanEncodedAggregates.Inc()
					}
					partials[ci] = partial
					return
				}
			}
			partials[ci] = op.aggregateChunk(ctx, input, c, bases[ci])
		}
	}
	ctx.runJobs(jobs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	groups, err := op.mergePartials(ctx, partials)
	if err != nil {
		return nil, err
	}

	// SQL: aggregation without GROUP BY always yields one row.
	if len(op.GroupBy) == 0 && len(groups) == 0 {
		groups = append(groups, &group{states: make([]aggState, len(op.Aggs))})
	}

	return op.buildOutput(groups)
}

// mergeShardCancelStride is how many groups a merge shard processes between
// cancellation checks.
const mergeShardCancelStride = 4096

// mergePartials folds the per-chunk partial maps into the final group list,
// ordered by each group's first appearance in the data. The result is
// independent of the order in which partials arrive or merge.
func (op *Aggregate) mergePartials(ctx *ExecContext, partials []chunkGroups) ([]*group, error) {
	totalGroups := 0
	for i := range partials {
		if partials[i].err != nil {
			return nil, partials[i].err
		}
		totalGroups += len(partials[i].order)
	}

	shards := 1
	if ctx.decideParallel(opAggregateMerge, totalGroups) {
		shards = ctx.mergeFanOut()
	}
	start := time.Now()
	out, err := mergeSharded(ctx, op.Aggs, partials, shards)
	if err != nil {
		return nil, err
	}
	// Stable output order derived from the data: ascending first appearance.
	// (Each row belongs to exactly one group, so firstSeen is unique.)
	sort.Slice(out, func(i, j int) bool { return out[i].firstSeen < out[j].firstSeen })
	ctx.noteAggregateMerge(op, shards, time.Since(start).Nanoseconds())
	return out, nil
}

// mergeSharded merges over shards hash shards (a power of two; 1 merges on
// the calling goroutine): shard s owns every group whose key hash lands in
// it, so shards share no state and the result is independent of scheduling
// order.
func mergeSharded(ctx *ExecContext, aggs []*expression.Aggregate, partials []chunkGroups, shards int) ([]*group, error) {
	mask := uint64(shards - 1)
	results := make([][]*group, shards)
	jobs := make([]func(), shards)
	for s := 0; s < shards; s++ {
		s := s
		jobs[s] = func() {
			merged := make(map[string]*group)
			var out []*group
			seen := 0
			for pi := range partials {
				p := &partials[pi]
				for _, key := range p.order {
					partial := p.groups[key]
					if partial.hash&mask != uint64(s) {
						continue
					}
					seen++
					if seen%mergeShardCancelStride == 0 && ctx.Err() != nil {
						return
					}
					g, ok := merged[key]
					if !ok {
						merged[key] = partial
						out = append(out, partial)
						continue
					}
					mergeGroup(g, partial, aggs)
				}
			}
			results[s] = out
		}
	}
	ctx.runJobs(jobs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var out []*group
	for _, r := range results {
		out = append(out, r...)
	}
	return out, nil
}

// mergeGroup folds one partial group into dst (state merge is commutative
// and associative; firstSeen takes the minimum, so merge order is
// irrelevant).
func mergeGroup(dst, src *group, aggs []*expression.Aggregate) {
	for i := range dst.states {
		mergeState(&dst.states[i], &src.states[i], aggs[i])
	}
	if src.firstSeen < dst.firstSeen {
		dst.firstSeen = src.firstSeen
	}
}

// encodedAggNeed describes what one aggregate wants from its column in the
// encoded fast path.
type encodedAggNeed struct {
	col int // -1 for COUNT(*)
	dt  types.DataType
	// needSum requests SUM accumulation; needFloatSum additionally requests
	// the row-order float64 mirror (AVG and float outputs). Skipping the
	// float mirror lets integer COUNT/SUM avoid float math entirely while
	// staying bit-for-bit compatible: the generic path only reads the float
	// accumulator for AVG and float-typed results.
	needSum, needFloatSum bool
}

// encodedAggPlan marks an aggregation as eligible for per-chunk evaluation
// directly on encoded segments.
type encodedAggPlan struct {
	needs []encodedAggNeed
}

// planEncodedAggregates decides once per run whether the whole aggregation
// can be answered from encoded segment statistics: no GROUP BY, and every
// aggregate is COUNT(*)/COUNT/SUM/AVG/MIN/MAX over a bare column.
// Chunks whose segments do not support encoded aggregation (value segments,
// reference segments) still fall back individually.
func (op *Aggregate) planEncodedAggregates() *encodedAggPlan {
	if len(op.GroupBy) != 0 {
		return nil
	}
	plan := &encodedAggPlan{needs: make([]encodedAggNeed, len(op.Aggs))}
	for i, agg := range op.Aggs {
		if agg.Fn == expression.AggCountStar {
			plan.needs[i] = encodedAggNeed{col: -1}
			continue
		}
		col, ok := agg.Arg.(*expression.BoundColumn)
		if !ok {
			return nil
		}
		need := encodedAggNeed{col: col.Index, dt: col.DT}
		switch agg.Fn {
		case expression.AggCount, expression.AggMin, expression.AggMax:
			// Counting and bounds need no sums.
		case expression.AggSum, expression.AggAvg:
			if !col.DT.IsNumeric() {
				return nil
			}
			need.needSum = true
			outType := op.Types[len(op.GroupBy)+i]
			need.needFloatSum = agg.Fn == expression.AggAvg ||
				col.DT == types.TypeFloat64 || outType == types.TypeFloat64
		default:
			// COUNT DISTINCT needs the value set, which does not merge from
			// per-chunk dictionary sizes.
			return nil
		}
		plan.needs[i] = need
	}
	return plan
}

// aggregateChunkEncoded computes one chunk's partial aggregation directly on
// its encoded segments. ok=false means some required segment does not
// support encoded aggregation and the chunk must take the generic path. The
// produced group mirrors the generic no-GROUP-BY group exactly (same key,
// hash, and first-seen ordinal), so partials from both paths merge freely.
func (op *Aggregate) aggregateChunkEncoded(c *storage.Chunk, base int64, plan *encodedAggPlan) (chunkGroups, bool) {
	out := chunkGroups{groups: make(map[string]*group)}
	n := c.Size()
	if n == 0 {
		return out, true
	}
	// Union the needs per column, then aggregate each segment once.
	type colNeed struct{ sum, floatSum bool }
	needs := make(map[int]colNeed)
	for _, nd := range plan.needs {
		if nd.col < 0 {
			continue
		}
		cn := needs[nd.col]
		cn.sum = cn.sum || nd.needSum
		cn.floatSum = cn.floatSum || nd.needFloatSum
		needs[nd.col] = cn
	}
	byCol := make(map[int]encoding.SegmentAggregates, len(needs))
	for col, cn := range needs {
		if col >= c.ColumnCount() {
			return out, false
		}
		sa, ok := encoding.AggregateEncoded(c.GetSegment(types.ColumnID(col)), cn.sum, cn.floatSum)
		if !ok {
			return out, false
		}
		byCol[col] = sa
	}
	states := make([]aggState, len(op.Aggs))
	for i, agg := range op.Aggs {
		nd := plan.needs[i]
		if agg.Fn == expression.AggCountStar {
			states[i].count = int64(n)
			continue
		}
		sa := byCol[nd.col]
		switch agg.Fn {
		case expression.AggCount:
			states[i].count = sa.NonNull
		case expression.AggSum, expression.AggAvg:
			states[i].count = sa.NonNull
			states[i].seen = sa.NonNull > 0
			if nd.dt == types.TypeFloat64 {
				states[i].sum = sa.SumFloat
			} else {
				states[i].sumInt = sa.SumInt
				if nd.needFloatSum {
					states[i].sum = sa.SumFloat
				} else {
					states[i].sum = float64(sa.SumInt)
				}
			}
		case expression.AggMin:
			states[i].seen = sa.NonNull > 0
			states[i].min = sa.Min
		case expression.AggMax:
			states[i].seen = sa.NonNull > 0
			states[i].max = sa.Max
		}
	}
	g := &group{
		keys:      make([]types.Value, 0),
		states:    states,
		hash:      fnv64str(""),
		firstSeen: base,
	}
	out.groups[""] = g
	out.order = []string{""}
	return out, true
}

func (op *Aggregate) aggregateChunk(ctx *ExecContext, input *storage.Table, c *storage.Chunk, base int64) chunkGroups {
	out := chunkGroups{groups: make(map[string]*group)}
	n := c.Size()
	if n == 0 {
		return out
	}
	ec := ctx.evalContext(input, c, n)

	keyVecs := make([]*expression.Vector, len(op.GroupBy))
	for i, g := range op.GroupBy {
		v, err := expression.Evaluate(g, ec)
		if err != nil {
			out.err = err
			return out
		}
		keyVecs[i] = v
	}
	argVecs := make([]*expression.Vector, len(op.Aggs))
	for i, a := range op.Aggs {
		if a.Arg == nil {
			continue
		}
		v, err := expression.Evaluate(a.Arg, ec)
		if err != nil {
			out.err = err
			return out
		}
		argVecs[i] = v
	}

	// Pass 1: assign every row to its group.
	groupOf := make([]*group, n)
	var keyBuf strings.Builder
	for row := 0; row < n; row++ {
		keyBuf.Reset()
		keys := make([]types.Value, len(op.GroupBy))
		for i, kv := range keyVecs {
			val := kv.ValueAt(row)
			keys[i] = val
			// NULL group keys compare equal in GROUP BY.
			keyBuf.WriteByte(byte('0' + val.Type))
			keyBuf.WriteString(val.String())
			keyBuf.WriteByte(0)
		}
		key := keyBuf.String()
		g, ok := out.groups[key]
		if !ok {
			g = &group{
				keys:      keys,
				states:    make([]aggState, len(op.Aggs)),
				hash:      fnv64str(key),
				firstSeen: base + int64(row),
			}
			out.groups[key] = g
			out.order = append(out.order, key)
		}
		groupOf[row] = g
	}

	// Pass 2: one typed column pass per aggregate — the monomorphic inner
	// loops avoid per-row Value boxing (the same static-dispatch idea as
	// the scan specializations).
	for i, agg := range op.Aggs {
		updateColumn(i, agg, argVecs[i], groupOf, n)
	}
	return out
}

// updateColumn folds one aggregate's argument column into the group states.
func updateColumn(idx int, agg *expression.Aggregate, arg *expression.Vector, groupOf []*group, n int) {
	if agg.Fn == expression.AggCountStar {
		for row := 0; row < n; row++ {
			groupOf[row].states[idx].count++
		}
		return
	}
	switch {
	case arg.DT == types.TypeFloat64 && (agg.Fn == expression.AggSum || agg.Fn == expression.AggAvg):
		vals, nulls := arg.F, arg.Nulls
		for row := 0; row < n; row++ {
			if nulls != nil && nulls[row] {
				continue
			}
			st := &groupOf[row].states[idx]
			st.sum += vals[row]
			st.count++
			st.seen = true
		}
	case arg.DT == types.TypeInt64 && (agg.Fn == expression.AggSum || agg.Fn == expression.AggAvg):
		vals, nulls := arg.I, arg.Nulls
		for row := 0; row < n; row++ {
			if nulls != nil && nulls[row] {
				continue
			}
			st := &groupOf[row].states[idx]
			st.sum += float64(vals[row])
			st.sumInt += vals[row]
			st.count++
			st.seen = true
		}
	case arg.DT == types.TypeFloat64 && (agg.Fn == expression.AggMin || agg.Fn == expression.AggMax):
		vals, nulls := arg.F, arg.Nulls
		isMin := agg.Fn == expression.AggMin
		for row := 0; row < n; row++ {
			if nulls != nil && nulls[row] {
				continue
			}
			st := &groupOf[row].states[idx]
			v := vals[row]
			if !st.seen {
				st.min, st.max = types.Float(v), types.Float(v)
				st.seen = true
				continue
			}
			if isMin {
				if v < st.min.F {
					st.min = types.Float(v)
				}
			} else if v > st.max.F {
				st.max = types.Float(v)
			}
		}
	case arg.DT == types.TypeInt64 && (agg.Fn == expression.AggMin || agg.Fn == expression.AggMax):
		vals, nulls := arg.I, arg.Nulls
		isMin := agg.Fn == expression.AggMin
		for row := 0; row < n; row++ {
			if nulls != nil && nulls[row] {
				continue
			}
			st := &groupOf[row].states[idx]
			v := vals[row]
			if !st.seen {
				st.min, st.max = types.Int(v), types.Int(v)
				st.seen = true
				continue
			}
			if isMin {
				if v < st.min.I {
					st.min = types.Int(v)
				}
			} else if v > st.max.I {
				st.max = types.Int(v)
			}
		}
	case agg.Fn == expression.AggCount && arg.Nulls == nil && arg.DT != types.TypeNull:
		for row := 0; row < n; row++ {
			groupOf[row].states[idx].count++
		}
	default:
		// Dynamic fallback: strings, COUNT over nullable columns,
		// COUNT DISTINCT.
		for row := 0; row < n; row++ {
			updateState(&groupOf[row].states[idx], agg, arg, row)
		}
	}
}

// mergeState folds a partial aggregate state into dst.
func mergeState(dst, src *aggState, agg *expression.Aggregate) {
	switch agg.Fn {
	case expression.AggCountStar, expression.AggCount:
		dst.count += src.count
	case expression.AggCountDistinct:
		if dst.distinct == nil {
			dst.distinct = src.distinct
		} else {
			for v := range src.distinct {
				dst.distinct[v] = struct{}{}
			}
		}
	case expression.AggSum, expression.AggAvg:
		dst.sum += src.sum
		dst.sumInt += src.sumInt
		dst.count += src.count
		dst.seen = dst.seen || src.seen
	case expression.AggMin:
		if src.seen {
			if !dst.seen {
				dst.min = src.min
				dst.seen = true
			} else if c, ok := types.Compare(src.min, dst.min); ok && c < 0 {
				dst.min = src.min
			}
		}
	case expression.AggMax:
		if src.seen {
			if !dst.seen {
				dst.max = src.max
				dst.seen = true
			} else if c, ok := types.Compare(src.max, dst.max); ok && c > 0 {
				dst.max = src.max
			}
		}
	}
}

func updateState(st *aggState, agg *expression.Aggregate, arg *expression.Vector, row int) {
	if agg.Fn == expression.AggCountStar {
		st.count++
		return
	}
	val := arg.ValueAt(row)
	if val.IsNull() {
		return // aggregates skip NULL inputs
	}
	switch agg.Fn {
	case expression.AggCount:
		st.count++
	case expression.AggCountDistinct:
		if st.distinct == nil {
			st.distinct = make(map[types.Value]struct{})
		}
		st.distinct[val] = struct{}{}
	case expression.AggSum, expression.AggAvg:
		st.count++
		st.sum += val.AsFloat()
		st.sumInt += val.AsInt()
		st.seen = true
	case expression.AggMin:
		if !st.seen {
			st.min = val
			st.seen = true
		} else if c, ok := types.Compare(val, st.min); ok && c < 0 {
			st.min = val
		}
	case expression.AggMax:
		if !st.seen {
			st.max = val
			st.seen = true
		} else if c, ok := types.Compare(val, st.max); ok && c > 0 {
			st.max = val
		}
	}
}

func (st *aggState) result(agg *expression.Aggregate, outType types.DataType) types.Value {
	switch agg.Fn {
	case expression.AggCountStar, expression.AggCount:
		return types.Int(st.count)
	case expression.AggCountDistinct:
		return types.Int(int64(len(st.distinct)))
	case expression.AggSum:
		if !st.seen {
			return types.NullValue
		}
		if outType == types.TypeInt64 {
			return types.Int(st.sumInt)
		}
		return types.Float(st.sum)
	case expression.AggAvg:
		if st.count == 0 {
			return types.NullValue
		}
		return types.Float(st.sum / float64(st.count))
	case expression.AggMin:
		if !st.seen {
			return types.NullValue
		}
		return st.min
	case expression.AggMax:
		if !st.seen {
			return types.NullValue
		}
		return st.max
	default:
		return types.NullValue
	}
}

func (op *Aggregate) buildOutput(groups []*group) (*storage.Table, error) {
	nCols := len(op.GroupBy) + len(op.Aggs)
	if len(op.Names) != nCols || len(op.Types) != nCols {
		return nil, fmt.Errorf("operators: aggregate schema mismatch")
	}
	defs := make([]storage.ColumnDefinition, nCols)
	for i := 0; i < nCols; i++ {
		dt := op.Types[i]
		if dt == types.TypeNull {
			dt = types.TypeInt64
		}
		defs[i] = storage.ColumnDefinition{Name: op.Names[i], Type: dt, Nullable: true}
	}
	out := storage.NewTable("", defs, max(len(groups), 1), false)
	row := make([]types.Value, nCols)
	for _, g := range groups {
		for i := range op.GroupBy {
			row[i] = coerce(g.keys[i], defs[i].Type)
		}
		for i, agg := range op.Aggs {
			row[len(op.GroupBy)+i] = coerce(g.states[i].result(agg, op.Types[len(op.GroupBy)+i]), defs[len(op.GroupBy)+i].Type)
		}
		if _, err := out.AppendRow(row); err != nil {
			return nil, err
		}
	}
	out.FinalizeLastChunk()
	return out, nil
}

// coerce adapts a value to the declared column type (int sums into float
// columns and vice versa).
func coerce(v types.Value, want types.DataType) types.Value {
	if v.IsNull() || v.Type == want {
		return v
	}
	switch want {
	case types.TypeFloat64:
		if v.Type.IsNumeric() {
			return types.Float(v.AsFloat())
		}
	case types.TypeInt64:
		if v.Type == types.TypeFloat64 && v.F == math.Trunc(v.F) {
			return types.Int(int64(v.F))
		}
		if v.Type == types.TypeBool {
			return types.Int(v.I)
		}
	case types.TypeString:
		return types.Str(v.String())
	}
	return v
}
