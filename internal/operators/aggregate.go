package operators

import (
	stdcmp "cmp" // the package's tests have a helper named cmp
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"time"

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
	seen     bool
}

// distinctPairs are the distinct (group, value) pairs one chunk holds for one
// COUNT(DISTINCT): value row p was seen in the chunk's group groups[p]. NULL
// values are left out. Counting waits for the merge (countDistinct), when
// the chunks' groups have become final groups.
type distinctPairs struct {
	groups []int32
	values *expression.Vector
}

// group is one group of the merged aggregation.
type group struct {
	// states are the group's aggregate states, a window of its first
	// partial's flat state slice.
	states []aggState
	// firstSeen is the global row ordinal of the group's first appearance.
	// The output is ordered by it, which makes the merge order-independent:
	// the order derives from the data, not from task completion order.
	firstSeen int64
	// key is the group's row in the merged key columns.
	key int32
}

// chunkGroups is the partial aggregation of one chunk: group g has its key
// in row g of keys (copied from the row that opened the group, so the chunk's
// key vectors are not retained), its first row ordinal in firstSeen[g] and
// its states in states[g*len(Aggs) : (g+1)*len(Aggs)].
type chunkGroups struct {
	keys      []*expression.Vector
	firstSeen []int64
	states    []aggState
	distinct  []distinctPairs // by aggregate; used for COUNT(DISTINCT) only
	err       error
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

	jobs := make([]func(), len(chunks))
	for ci, c := range chunks {
		ci, c := ci, c
		jobs[ci] = func() { partials[ci] = op.aggregateChunk(ctx, c, bases[ci]) }
	}
	ctx.runJobs(jobs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	merged, err := op.mergePartials(ctx, partials)
	if err != nil {
		return nil, err
	}

	// SQL: aggregation without GROUP BY always yields one row.
	if len(op.GroupBy) == 0 && len(merged.groups) == 0 {
		merged.groups = append(merged.groups, group{states: make([]aggState, len(op.Aggs))})
	}
	return op.buildOutput(merged)
}

// mergeShardCancelStride is how many groups a merge shard processes between
// cancellation checks.
const mergeShardCancelStride = 4096

// mergedGroups is the final group list and the key columns its groups' key
// rows index: the partials' key columns laid end to end.
type mergedGroups struct {
	keys   []*expression.Vector
	groups []group
}

// mergePartials folds the per-chunk partials into the final group list,
// ordered by each group's first appearance in the data. The result is
// independent of the order in which partials arrive or merge.
func (op *Aggregate) mergePartials(ctx *ExecContext, partials []chunkGroups) (mergedGroups, error) {
	total := 0
	for i := range partials {
		if partials[i].err != nil {
			return mergedGroups{}, partials[i].err
		}
		total += len(partials[i].firstSeen)
	}

	shards := 1
	if ctx.decideParallel(opAggregateMerge, total) {
		shards = ctx.mergeFanOut()
	}
	start := time.Now()

	// Lay the partials' groups end to end: partial group q has its key in
	// row q of the concatenated key columns (one value per group was kept)
	// and its states in all[q].
	out := mergedGroups{keys: make([]*expression.Vector, len(op.GroupBy))}
	for k := range out.keys {
		vecs := make([]*expression.Vector, len(partials))
		for i := range partials {
			vecs[i] = partials[i].keys[k]
		}
		dt, err := keyType(vecs)
		if err != nil {
			return mergedGroups{}, err
		}
		out.keys[k] = concatKeys(vecs, nil, dt, total)
	}
	all := make([]group, 0, total)
	nAggs := len(op.Aggs)
	for i := range partials {
		for g, first := range partials[i].firstSeen {
			all = append(all, group{states: partials[i].states[g*nAggs : (g+1)*nAggs], firstSeen: first, key: int32(len(all))})
		}
	}

	repOf, err := mergeSharded(ctx, op.Aggs, out.keys, all, shards)
	if err != nil {
		return mergedGroups{}, err
	}
	if err := countDistinct(op.Aggs, partials, all, repOf); err != nil {
		return mergedGroups{}, err
	}
	for q, rep := range repOf {
		if int(rep) == q {
			out.groups = append(out.groups, all[q])
		}
	}
	// Stable output order derived from the data: ascending first appearance.
	// (Each row belongs to exactly one group, so firstSeen is unique.)
	sort.Slice(out.groups, func(i, j int) bool { return out.groups[i].firstSeen < out.groups[j].firstSeen })
	ctx.noteAggregateMerge(op, shards, len(out.groups), time.Since(start).Nanoseconds())
	return out, nil
}

// mergeSharded merges the partial groups over shards hash shards (a power of
// two; 1 merges on the calling goroutine): shard s owns every group whose key
// hash has s in its top bits, so shards share no state and the result is
// independent of scheduling order. Each shard folds the groups of one key, in
// order, into the first of them; repOf[q] names that first one for group q.
func mergeSharded(ctx *ExecContext, aggs []*expression.Aggregate, keys []*expression.Vector, all []group, shards int) ([]int32, error) {
	hashes := hashRows(keys, 0, len(all))
	shift := 64 - bits.TrailingZeros(uint(shards)) // shards == 1: every hash >> 64 is 0
	repOf := make([]int32, len(all))
	jobs := make([]func(), shards)
	for s := 0; s < shards; s++ {
		s := s
		jobs[s] = func() {
			merged := newKeyTable(keys, 0)
			seen := 0
			for q, h := range hashes {
				if h>>shift != uint64(s) {
					continue
				}
				seen++
				if seen%mergeShardCancelStride == 0 && ctx.Err() != nil {
					return
				}
				e, added := merged.findOrAdd(h, q)
				repOf[q] = merged.rows[e]
				if !added {
					mergeGroup(&all[repOf[q]], &all[q], aggs)
				}
			}
		}
	}
	ctx.runJobs(jobs)
	return repOf, ctx.Err()
}

// countDistinct sets the COUNT(DISTINCT) states: the chunks' distinct
// (group, value) pairs, each group renamed to the final group it merged into,
// go through one more key table, and every pair new to it counts once.
func countDistinct(aggs []*expression.Aggregate, partials []chunkGroups, all []group, repOf []int32) error {
	for ai, agg := range aggs {
		if agg.Fn != expression.AggCountDistinct {
			continue
		}
		var groups []int64
		var values []*expression.Vector
		first := 0 // the partial's first group in all
		for i := range partials {
			if d := partials[i].distinct; d != nil {
				for _, g := range d[ai].groups {
					groups = append(groups, int64(repOf[first+int(g)]))
				}
				values = append(values, d[ai].values)
			}
			first += len(partials[i].firstSeen)
		}
		dt, err := keyType(values)
		if err != nil {
			return err
		}
		cols := []*expression.Vector{expression.NewIntVector(groups, nil), concatKeys(values, nil, dt, len(groups))}
		pairs := newKeyTable(cols, len(groups))
		for p, h := range hashRows(cols, 0, len(groups)) {
			if _, added := pairs.findOrAdd(h, p); added {
				all[groups[p]].states[ai].count++
			}
		}
	}
	return nil
}

// mergeGroup folds one partial group into dst (state merge is commutative
// and associative; firstSeen takes the minimum and the key row goes with it,
// so merge order is irrelevant).
func mergeGroup(dst, src *group, aggs []*expression.Aggregate) {
	for i := range dst.states {
		mergeState(&dst.states[i], &src.states[i], aggs[i])
	}
	if src.firstSeen < dst.firstSeen {
		dst.firstSeen, dst.key = src.firstSeen, src.key
	}
}

func (op *Aggregate) aggregateChunk(ctx *ExecContext, c *storage.Chunk, base int64) chunkGroups {
	out := chunkGroups{keys: make([]*expression.Vector, len(op.GroupBy))}
	n := c.Size()
	if n == 0 {
		for i := range out.keys {
			out.keys[i] = &expression.Vector{}
		}
		return out
	}
	ec := ctx.evalContext(c, n, nil)

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

	// Pass 1: assign every row to its group (NULL group keys compare equal
	// in GROUP BY), then keep each group's key from the row that opened it.
	groupOf := make([]int32, n)
	table := newKeyTable(keyVecs, 0)
	for row, h := range hashRows(keyVecs, 0, n) {
		groupOf[row], _ = table.findOrAdd(h, row)
	}
	groups := len(table.rows)
	for i, v := range keyVecs {
		out.keys[i] = concatKeys([]*expression.Vector{v}, [][]int32{table.rows}, v.DT, groups)
	}
	out.firstSeen = make([]int64, groups)
	for g, row := range table.rows {
		out.firstSeen[g] = base + int64(row)
	}

	// Pass 2: one typed column pass per aggregate — the monomorphic inner
	// loops avoid per-row Value boxing (the same static-dispatch idea as
	// the scan specializations).
	out.states = make([]aggState, groups*len(op.Aggs))
	out.distinct = make([]distinctPairs, len(op.Aggs))
	for i, agg := range op.Aggs {
		if agg.Fn == expression.AggCountDistinct {
			out.distinct[i] = chunkDistinctPairs(argVecs[i], groupOf)
			continue
		}
		updateColumn(out.states[i:], len(op.Aggs), agg, argVecs[i], groupOf)
	}
	return out
}

// chunkDistinctPairs finds the distinct (group, value) pairs of one chunk:
// the group ids become a key column beside the argument.
func chunkDistinctPairs(arg *expression.Vector, groupOf []int32) distinctPairs {
	gids := make([]int64, len(groupOf))
	for row, g := range groupOf {
		gids[row] = int64(g)
	}
	cols := []*expression.Vector{expression.NewIntVector(gids, nil), arg}
	pairs := newKeyTable(cols, 0)
	for row, h := range hashRows(cols, 0, len(groupOf)) {
		if !arg.IsNullAt(row) { // aggregates skip NULL inputs
			pairs.findOrAdd(h, row)
		}
	}
	out := distinctPairs{groups: make([]int32, len(pairs.rows))}
	for p, row := range pairs.rows {
		out.groups[p] = groupOf[row]
	}
	out.values = concatKeys(cols[1:], [][]int32{pairs.rows}, arg.DT, len(pairs.rows))
	return out
}

// updateColumn folds one aggregate's argument column into the group states:
// states[g*stride] is the aggregate's state for group g.
func updateColumn(states []aggState, stride int, agg *expression.Aggregate, arg *expression.Vector, groupOf []int32) {
	n := len(groupOf)
	if agg.Fn == expression.AggCountStar {
		for row := 0; row < n; row++ {
			states[int(groupOf[row])*stride].count++
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
			st := &states[int(groupOf[row])*stride]
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
			st := &states[int(groupOf[row])*stride]
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
			st := &states[int(groupOf[row])*stride]
			v := vals[row]
			if !st.seen {
				st.min, st.max = types.Float(v), types.Float(v)
				st.seen = true
				continue
			}
			if isMin {
				if stdcmp.Less(v, st.min.F) {
					st.min = types.Float(v)
				}
			} else if stdcmp.Less(st.max.F, v) {
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
			st := &states[int(groupOf[row])*stride]
			v := vals[row]
			if !st.seen {
				st.min, st.max = types.Int(v), types.Int(v)
				st.seen = true
				continue
			}
			if isMin {
				if stdcmp.Less(v, st.min.I) {
					st.min = types.Int(v)
				}
			} else if stdcmp.Less(st.max.I, v) {
				st.max = types.Int(v)
			}
		}
	case agg.Fn == expression.AggCount && arg.Nulls == nil && arg.DT != types.TypeNull:
		for row := 0; row < n; row++ {
			states[int(groupOf[row])*stride].count++
		}
	default:
		// Dynamic fallback: strings, COUNT over nullable columns.
		for row := 0; row < n; row++ {
			updateState(&states[int(groupOf[row])*stride], agg, arg, row)
		}
	}
}

// mergeState folds a partial aggregate state into dst.
func mergeState(dst, src *aggState, agg *expression.Aggregate) {
	switch agg.Fn {
	case expression.AggCountStar, expression.AggCount:
		dst.count += src.count
	case expression.AggSum, expression.AggAvg:
		dst.sum += src.sum
		dst.sumInt += src.sumInt
		dst.count += src.count
		dst.seen = dst.seen || src.seen
	case expression.AggMin:
		if src.seen {
			dst.extreme(src.min, true)
		}
	case expression.AggMax:
		if src.seen {
			dst.extreme(src.max, false)
		}
	}
}

// extreme folds v into the state's MIN (isMin) or MAX by the ordering rule
// (types.Order): MIN and MAX are the first and last non-NULL rows of an
// ORDER BY over the group, NaN below every number.
func (st *aggState) extreme(v types.Value, isMin bool) {
	switch {
	case !st.seen:
		st.min, st.max, st.seen = v, v, true
	case isMin && types.Order(v, st.min) < 0:
		st.min = v
	case !isMin && types.Order(v, st.max) > 0:
		st.max = v
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
	case expression.AggSum, expression.AggAvg:
		st.count++
		st.sum += val.AsFloat()
		st.sumInt += val.AsInt()
		st.seen = true
	case expression.AggMin, expression.AggMax:
		st.extreme(val, agg.Fn == expression.AggMin)
	}
}

func (st *aggState) result(agg *expression.Aggregate, outType types.DataType) types.Value {
	switch agg.Fn {
	case expression.AggCountStar, expression.AggCount, expression.AggCountDistinct:
		return types.Int(st.count)
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

func (op *Aggregate) buildOutput(m mergedGroups) (*storage.Table, error) {
	groups := m.groups
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
			row[i] = coerce(m.keys[i].ValueAt(int(g.key)), defs[i].Type)
		}
		for i, agg := range op.Aggs {
			row[len(op.GroupBy)+i] = coerce(g.states[i].result(agg, op.Types[len(op.GroupBy)+i]), defs[len(op.GroupBy)+i].Type)
		}
		if _, err := out.AppendRow(row); err != nil {
			return nil, err
		}
	}
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
