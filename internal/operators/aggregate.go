package operators

import (
	"fmt"
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
	inputs  []Operator // the one input, held as Inputs returns it
}

// NewAggregate builds the operator; names/types cover group-by columns then
// aggregates.
func NewAggregate(in Operator, groupBy []expression.Expression, aggs []*expression.Aggregate, names []string, dts []types.DataType) *Aggregate {
	return &Aggregate{GroupBy: groupBy, Aggs: aggs, Names: names, Types: dts, inputs: []Operator{in}}
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
func (op *Aggregate) Inputs() []Operator { return op.inputs }

// aggState accumulates one aggregate for one group: 32 bytes, no boxed
// value. count is the rows the aggregate saw (COUNT(*) counts NULLs, the
// others skip them). MIN and MAX keep the row of the group's current extreme
// — a row of the chunk's argument while the chunk runs, a row of the merged
// extreme column (mergedGroups) after it. SUM and AVG over INT are exact:
// sumHi·2^64 + sumInt (expression.AddInt), and sum stays 0; over FLOAT, sum
// is the running sum.
type aggState struct {
	sum    float64
	sumInt int64
	count  int64
	row    int32
	sumHi  int32
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
// key vectors are not retained), the extreme of MIN/MAX aggregate i in row g
// of extremes[i] (NULL while the group saw none), its first row ordinal in
// firstSeen[g] and its states in states[g*len(Aggs) : (g+1)*len(Aggs)].
type chunkGroups struct {
	keys      []*expression.Vector
	extremes  []*expression.Vector // by aggregate; MIN and MAX only
	firstSeen []int64
	states    []aggState
	distinct  []distinctPairs // by aggregate; used for COUNT(DISTINCT) only
	err       error
}

// Run implements Operator: per-chunk partial aggregation (parallel under a
// scheduler), then an order-independent merge — sequential for
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

	merged, err := op.mergePartials(ctx, input, partials)
	if err != nil {
		return nil, err
	}

	// SQL: aggregation without GROUP BY always yields one row. Its group saw
	// no row: MIN and MAX read row 0 of an all-NULL extreme.
	if len(op.GroupBy) == 0 && len(merged.groups) == 0 {
		merged.groups = append(merged.groups, group{states: make([]aggState, len(op.Aggs))})
		for i, e := range merged.extremes {
			if e != nil {
				merged.extremes[i] = expression.NullVector(e.DT, 1)
			}
		}
	}
	return op.buildOutput(merged)
}

// mergedGroups is the final group list, the key columns its groups' key
// rows index and the extreme columns their MIN/MAX states' rows index: the
// partials' columns laid end to end.
type mergedGroups struct {
	keys     []*expression.Vector
	extremes []*expression.Vector
	groups   []group
}

// mergePartials folds the per-chunk partials into the final group list,
// ordered by each group's first appearance in the data. The result is
// independent of the order in which partials arrive or merge.
func (op *Aggregate) mergePartials(ctx *ExecContext, input *storage.Table, partials []chunkGroups) (mergedGroups, error) {
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

	// Lay the partials' groups end to end: partial group q has its key and
	// its extremes in row q of the concatenated columns (one value per group
	// was kept) and its states in all[q].
	out := mergedGroups{keys: make([]*expression.Vector, len(op.GroupBy)), extremes: make([]*expression.Vector, len(op.Aggs))}
	laid := func(e expression.Expression, col func(p *chunkGroups) *expression.Vector) (*expression.Vector, error) {
		vecs := make([]*expression.Vector, len(partials))
		for i := range partials {
			vecs[i] = col(&partials[i])
		}
		return concatKeys(vecs, exprType(e), total)
	}
	var err error
	for k, key := range op.GroupBy {
		if out.keys[k], err = laid(key, func(p *chunkGroups) *expression.Vector { return p.keys[k] }); err != nil {
			return mergedGroups{}, err
		}
	}
	for i, agg := range op.Aggs {
		if isExtreme(agg) {
			if out.extremes[i], err = laid(agg.Arg, func(p *chunkGroups) *expression.Vector { return p.extremes[i] }); err != nil {
				return mergedGroups{}, err
			}
		}
	}
	all := make([]group, 0, total)
	nAggs := len(op.Aggs)
	for i := range partials {
		for g, first := range partials[i].firstSeen {
			q := int32(len(all))
			states := partials[i].states[g*nAggs : (g+1)*nAggs]
			for a := range states {
				states[a].row = q
			}
			all = append(all, group{states: states, firstSeen: first, key: q})
		}
	}

	repOf, err := mergeSharded(ctx, op.Aggs, out, all, shards)
	if err != nil {
		return mergedGroups{}, err
	}
	if err := countDistinct(op.Aggs, input, partials, all, repOf); err != nil {
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
func mergeSharded(ctx *ExecContext, aggs []*expression.Aggregate, m mergedGroups, all []group, shards int) ([]int32, error) {
	hashes := hashRows(m.keys, 0, len(all))
	shift := 64 - bits.TrailingZeros(uint(shards)) // shards == 1: every hash >> 64 is 0
	repOf := make([]int32, len(all))
	jobs := make([]func(), shards)
	for s := 0; s < shards; s++ {
		s := s
		jobs[s] = func() {
			merged := newKeyTable(m.keys, 0)
			seen := 0
			for q, h := range hashes {
				if h>>shift != uint64(s) {
					continue
				}
				seen++
				if seen%cancelStride == 0 && ctx.Err() != nil {
					return
				}
				e, added := merged.findOrAdd(h, q)
				repOf[q] = merged.rows[e]
				if !added {
					mergeGroup(&all[repOf[q]], &all[q], aggs, m.extremes)
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
func countDistinct(aggs []*expression.Aggregate, input *storage.Table, partials []chunkGroups, all []group, repOf []int32) error {
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
		distinct, err := concatKeys(values, exprType(agg.Arg), len(groups))
		if err != nil {
			return err
		}
		cols := []*expression.Vector{expression.NewIntVector(groups, nil), distinct}
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
func mergeGroup(dst, src *group, aggs []*expression.Aggregate, extremes []*expression.Vector) {
	for i := range dst.states {
		mergeState(&dst.states[i], &src.states[i], aggs[i], extremes[i])
	}
	if src.firstSeen < dst.firstSeen {
		dst.firstSeen, dst.key = src.firstSeen, src.key
	}
}

func (op *Aggregate) aggregateChunk(ctx *ExecContext, c *storage.Chunk, base int64) chunkGroups {
	out := chunkGroups{keys: make([]*expression.Vector, len(op.GroupBy)), extremes: make([]*expression.Vector, len(op.Aggs))}
	n := c.Size()
	if n == 0 {
		for _, cols := range [][]*expression.Vector{out.keys, out.extremes} {
			for i := range cols {
				cols[i] = &expression.Vector{}
			}
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
		out.keys[i] = v.Gather(table.rows)
	}
	out.firstSeen = make([]int64, groups)
	for g, row := range table.rows {
		out.firstSeen[g] = base + int64(row)
	}

	// Pass 2: one typed column pass per aggregate — no row is boxed into a
	// types.Value (the same static-dispatch idea as the scan
	// specializations). MIN and MAX then gather each group's extreme row
	// into a column; a group that saw none takes its first row, which is NULL.
	nAggs := len(op.Aggs)
	out.states = make([]aggState, groups*nAggs)
	out.distinct = make([]distinctPairs, nAggs)
	for i, agg := range op.Aggs {
		if agg.Fn == expression.AggCountDistinct {
			out.distinct[i] = chunkDistinctPairs(argVecs[i], groupOf)
			continue
		}
		updateColumn(out.states[i:], nAggs, agg, argVecs[i], groupOf)
		if isExtreme(agg) {
			rows := append([]int32(nil), table.rows...)
			for g := range rows {
				if st := &out.states[g*nAggs+i]; st.count > 0 {
					rows[g] = st.row
				}
			}
			out.extremes[i] = argVecs[i].Gather(rows)
		}
	}
	return out
}

func isExtreme(agg *expression.Aggregate) bool {
	return agg.Fn == expression.AggMin || agg.Fn == expression.AggMax
}

// extremeSign is -1 for MIN and +1 for MAX: row r replaces the extreme at row
// e when sign*compareKey(r, e) > 0 — types.Order's rule, a tie keeping the
// earlier row.
func extremeSign(agg *expression.Aggregate) int {
	if agg.Fn == expression.AggMin {
		return -1
	}
	return 1
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
	out.values = arg.Gather(pairs.rows)
	return out
}

// updateColumn folds one aggregate's argument column into the group states:
// states[g*stride] is the aggregate's state for group g. Aggregates skip NULL
// arguments. A SUM or AVG argument is numeric: the translator refuses others.
func updateColumn(states []aggState, stride int, agg *expression.Aggregate, arg *expression.Vector, groupOf []int32) {
	if agg.Fn == expression.AggCountStar {
		for _, g := range groupOf {
			states[int(g)*stride].count++
		}
		return
	}
	nulls := arg.Nulls
	switch agg.Fn {
	case expression.AggCount:
		for row, g := range groupOf {
			if nulls == nil || !nulls[row] {
				states[int(g)*stride].count++
			}
		}
	case expression.AggMin, expression.AggMax:
		sign := extremeSign(agg) // one loop for every type
		for row, g := range groupOf {
			if nulls != nil && nulls[row] {
				continue
			}
			st := &states[int(g)*stride]
			if st.count == 0 || sign*compareKey(arg, row, arg, int(st.row)) > 0 {
				st.row = int32(row)
			}
			st.count++
		}
	case expression.AggSum, expression.AggAvg:
		if arg.DT == types.TypeInt64 {
			for row, g := range groupOf {
				if nulls != nil && nulls[row] {
					continue
				}
				st := &states[int(g)*stride]
				st.sumInt, st.sumHi = expression.AddInt(st.sumInt, st.sumHi, arg.I[row])
				st.count++
			}
			return
		}
		vals := arg.Floats()
		for row, g := range groupOf {
			if nulls != nil && nulls[row] {
				continue
			}
			st := &states[int(g)*stride]
			st.sum += vals[row]
			st.count++
		}
	}
}

// mergeState folds a partial aggregate state into dst; MIN and MAX compare
// their rows of the merged extreme column ext.
func mergeState(dst, src *aggState, agg *expression.Aggregate, ext *expression.Vector) {
	switch agg.Fn {
	case expression.AggCountStar, expression.AggCount:
		dst.count += src.count
	case expression.AggSum, expression.AggAvg:
		dst.sum += src.sum
		dst.sumInt, dst.sumHi = expression.AddInt(dst.sumInt, dst.sumHi+src.sumHi, src.sumInt)
		dst.count += src.count
	case expression.AggMin, expression.AggMax:
		if src.count > 0 && (dst.count == 0 || extremeSign(agg)*compareKey(ext, int(src.row), ext, int(dst.row)) > 0) {
			dst.row = src.row
		}
		dst.count += src.count
	}
}

// buildOutput returns the groups as one chunk of value segments, keys then
// aggregates, each made from a typed column by the rule every operator uses
// (segmentFromVector) with the declared type.
func (op *Aggregate) buildOutput(m mergedGroups) (*storage.Table, error) {
	groups := m.groups
	n := len(groups)
	nCols := len(op.GroupBy) + len(op.Aggs)
	if len(op.Names) != nCols || len(op.Types) != nCols {
		return nil, fmt.Errorf("operators: aggregate schema mismatch")
	}
	defs := make([]storage.ColumnDefinition, nCols)
	segments := make([]storage.Segment, nCols)
	keyRows := make([]int32, n)
	for g := range groups {
		keyRows[g] = groups[g].key
	}
	for i := range defs {
		defs[i] = storage.ColumnDefinition{Name: op.Names[i], Type: op.Types[i], Nullable: true}
		var col *expression.Vector
		var err error
		if i < len(op.GroupBy) {
			col = m.keys[i].Gather(keyRows)
		} else if col, err = op.aggColumn(i-len(op.GroupBy), m); err != nil {
			return nil, err
		}
		if segments[i], err = segmentFromVector(col, op.Types[i]); err != nil {
			return nil, err
		}
	}
	return oneChunkTable(defs, segments, n), nil
}

// aggColumn is the result column of aggregate i over the merged groups. An
// INT SUM whose total is no INT fails with expression.ErrOutOfRange.
func (op *Aggregate) aggColumn(i int, m mergedGroups) (*expression.Vector, error) {
	agg, groups, n := op.Aggs[i], m.groups, len(m.groups)
	if isExtreme(agg) {
		rows := make([]int32, n)
		for g := range groups {
			rows[g] = groups[g].states[i].row
		}
		return m.extremes[i].Gather(rows), nil
	}
	ints, floats, nulls := make([]int64, n), make([]float64, n), make([]bool, n)
	for g := range groups {
		st := &groups[g].states[i]
		switch agg.Fn {
		case expression.AggSum:
			ints[g], floats[g], nulls[g] = st.sumInt, st.sum, st.count == 0
			if st.sumHi != 0 { // only an INT argument wraps
				return nil, expression.ErrOutOfRange
			}
		case expression.AggAvg:
			floats[g], nulls[g] = (st.sum+expression.IntSum(st.sumInt, st.sumHi))/float64(st.count), st.count == 0
		default: // the counts
			ints[g] = st.count
		}
	}
	switch {
	case agg.Fn == expression.AggAvg || agg.Fn == expression.AggSum && op.Types[len(op.GroupBy)+i] != types.TypeInt64:
		return expression.NewFloatVector(floats, nulls), nil
	case agg.Fn == expression.AggSum:
		return expression.NewIntVector(ints, nulls), nil
	default: // the counts
		return expression.NewIntVector(ints, nil), nil
	}
}
