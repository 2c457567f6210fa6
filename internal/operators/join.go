package operators

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"hyrise/internal/expression"
	"hyrise/internal/storage"
)

// JoinMode enumerates physical join semantics.
type JoinMode uint8

// Join modes. Semi/Anti output left columns only; Right/Full NULL-extend
// the unmatched rows of the non-preserved side(s).
const (
	JoinModeInner JoinMode = iota
	JoinModeLeft
	JoinModeSemi
	JoinModeAnti
	JoinModeCross
	JoinModeRight
	JoinModeFull
)

// String names the mode.
func (m JoinMode) String() string {
	switch m {
	case JoinModeInner:
		return "Inner"
	case JoinModeLeft:
		return "Left"
	case JoinModeSemi:
		return "Semi"
	case JoinModeAnti:
		return "Anti"
	case JoinModeCross:
		return "Cross"
	case JoinModeRight:
		return "Right"
	case JoinModeFull:
		return "Full"
	default:
		return "?"
	}
}

// nullExtendsLeft reports whether unmatched right rows appear NULL-extended
// on the left side (so left output columns become nullable).
func (m JoinMode) nullExtendsLeft() bool { return m == JoinModeRight || m == JoinModeFull }

// nullExtendsRight reports whether unmatched left rows appear NULL-extended
// on the right side.
func (m JoinMode) nullExtendsRight() bool { return m == JoinModeLeft || m == JoinModeFull }

// joinCommon holds what all join implementations share: the sides, the
// residual predicates (bound against the concatenated left++right schema),
// and output assembly.
type joinCommon struct {
	Mode      JoinMode
	Residuals []expression.Expression
	inputs    []Operator // left, right, held as Inputs returns them
}

// Inputs implements Operator.
func (j *joinCommon) Inputs() []Operator { return j.inputs }

// filterResiduals evaluates the residual predicates over candidate pairs
// and returns the surviving ones (ps itself when there is nothing to
// evaluate). The candidates are read as what they would be as output: the
// left table's columns at the pairs' left rows, then the right table's.
func (j *joinCommon) filterResiduals(ctx *ExecContext, left, right *storage.TableRows, ps pairSet) (pairSet, error) {
	n := len(ps.leftIdx)
	if n == 0 || len(j.Residuals) == 0 {
		return ps, nil
	}
	pairs := storage.NewChunk(append(left.Select(ps.leftIdx), right.Select(ps.rightIdx)...), nil)
	keep, err := expression.EvaluateBool(expression.JoinConjunction(j.Residuals), ctx.evalContext(pairs, n, nil))
	if err != nil {
		return pairSet{}, err
	}
	var out pairSet
	for i, k := range keep {
		if k {
			out.append(ps.leftIdx[i], ps.rightIdx[i])
		}
	}
	return out, nil
}

// HashJoin is the equi-join: it builds a hash table over the keys of its
// smaller input and probes it with the other one (cf. paper §2.1: joins are
// implemented as sort-merge, hash, or nested-loop joins, chosen per plan).
// Composite keys (several equi predicates, e.g. TPC-H Q9's
// lineitem-partsupp join) hash as one tuple.
type HashJoin struct {
	joinCommon
	LeftKeys  []expression.Expression // bound to the left schema
	RightKeys []expression.Expression // bound to the right schema
}

// NewHashJoin builds a single-key hash join.
func NewHashJoin(mode JoinMode, left, right Operator, leftKey, rightKey expression.Expression, residuals []expression.Expression) *HashJoin {
	return NewMultiKeyHashJoin(mode, left, right, []expression.Expression{leftKey}, []expression.Expression{rightKey}, residuals)
}

// NewMultiKeyHashJoin builds a hash join over composite keys.
func NewMultiKeyHashJoin(mode JoinMode, left, right Operator, leftKeys, rightKeys []expression.Expression, residuals []expression.Expression) *HashJoin {
	return &HashJoin{
		joinCommon: joinCommon{Mode: mode, Residuals: residuals, inputs: []Operator{left, right}},
		LeftKeys:   leftKeys,
		RightKeys:  rightKeys,
	}
}

// Name implements Operator.
func (j *HashJoin) Name() string {
	pairs := make([]string, len(j.LeftKeys))
	for i := range j.LeftKeys {
		pairs[i] = fmt.Sprintf("%s = %s", j.LeftKeys[i], j.RightKeys[i])
	}
	return fmt.Sprintf("HashJoin(%s, %s)", j.Mode, strings.Join(pairs, " AND "))
}

// pairSet collects candidate join pairs as global row indices into the two
// sides' row lists; the indices are also what lets finish track matched rows
// on either side (Left/Right/Full/Semi/Anti modes).
type pairSet struct {
	leftIdx, rightIdx []int32
}

func (ps *pairSet) append(li, ri int32) {
	ps.leftIdx = append(ps.leftIdx, li)
	ps.rightIdx = append(ps.rightIdx, ri)
}

// Run implements Operator. decideParallel picks how many row ranges the
// probe side splits into — 1 keeps the join on the calling task, fanOut()
// probes them as scheduler tasks — and everything else is one path.
func (j *HashJoin) Run(ctx *ExecContext, inputs []*storage.Table) (*storage.Table, error) {
	leftT, rightT := inputs[0], inputs[1]
	ranges := 1
	if ctx.decideParallel(opJoin, leftT.RowCount()+rightT.RowCount()) {
		ranges = ctx.fanOut()
	}
	return j.run(ctx, leftT, rightT, ranges)
}

// run joins with the probe side split into ranges row ranges. The build side
// is the input with fewer rows (the right one on a tie), decided here from
// the row counts. Either way and for every range count the pairs come out in
// the same order — left row ascending, its right rows ascending — so results
// are bit-for-bit equal.
func (j *HashJoin) run(ctx *ExecContext, leftT, rightT *storage.Table, ranges int) (*storage.Table, error) {
	left, right, err := joinKeys(ctx, leftT, rightT, j.LeftKeys, j.RightKeys)
	if err != nil {
		return nil, err
	}
	ps, err := j.pairs(ctx, left, right, ranges, left.rows.Len() < right.rows.Len())
	if err != nil {
		return nil, err
	}
	ps, err = j.filterResiduals(ctx, left.rows, right.rows, ps)
	if err != nil {
		return nil, err
	}
	return j.finish(left.rows, right.rows, ps), nil
}

// pairs builds one key table over the build side (the left one if buildLeft)
// and probes it with the other, and returns the candidate pairs in left-major
// order: a left row's matches are its right rows, ascending. The build side
// is hashed range by range as scheduler tasks, then one goroutine fills the
// table in descending row order, which leaves every key's chain of build rows
// ascending. Read-only from then on, the table is probed by all ranges at
// once, each emitting its pairs in probe row order, a row's matches in chain
// order. With the right side built the ranges are laid end to end; with the
// left side built their pairs come back with the sides swapped and
// sortPairsByLeft orders them. NULL- and NaN-key rows never join (they stay
// visible to finish through the sides' rows).
func (j *HashJoin) pairs(ctx *ExecContext, left, right joinSide, ranges int, buildLeft bool) (pairSet, error) {
	build, probe := right, left
	if buildLeft {
		build, probe = left, right
	}
	t0 := time.Now()
	n := build.rows.Len()
	hashes := make([]uint64, n)
	jobs := make([]func(), ranges)
	for p := range jobs {
		lo, hi := rowRange(p, ranges, n)
		jobs[p] = func() { hashInto(hashes[lo:hi], build.keys, lo) }
	}
	ctx.runJobs(jobs)
	ht := newKeyTable(build.keys, n)
	ht.next = make([]int32, n)
	for r := n - 1; r >= 0; r-- {
		if (n-1-r)%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return pairSet{}, err
			}
		}
		if !keyNeverJoins(build.keys, r) {
			ht.insert(hashes[r], r)
		}
	}
	t1 := time.Now()
	results := make([]pairSet, ranges)
	for p := range jobs {
		lo, hi := rowRange(p, ranges, probe.rows.Len())
		jobs[p] = func() { results[p] = ht.probe(ctx, probe.keys, lo, hi, buildLeft) }
	}
	ctx.runJobs(jobs)
	if err := ctx.Err(); err != nil {
		return pairSet{}, err
	}
	ps := results[0]
	switch {
	case buildLeft:
		ps = sortPairsByLeft(results, left.rows.Len())
	case ranges > 1:
		l, r := make([][]int32, ranges), make([][]int32, ranges)
		for p, res := range results {
			l[p], r[p] = res.leftIdx, res.rightIdx
		}
		ps = pairSet{leftIdx: slices.Concat(l...), rightIdx: slices.Concat(r...)}
	}
	ctx.noteJoinPhases(j, ranges, buildLeft, n, len(ps.leftIdx), t1.Sub(t0).Nanoseconds(), time.Since(t1).Nanoseconds())
	return ps, nil
}

// rowRange is range p of n rows cut into parts contiguous ranges.
func rowRange(p, parts, n int) (lo, hi int) {
	return p * n / parts, (p + 1) * n / parts
}

// probe looks up rows [lo, hi) of keys, hashed cancelStride rows at a time,
// and returns their pairs (probe row, build row) in probe row order, a row's
// matches in chain order; swap puts the probe rows on the right.
func (t *keyTable) probe(ctx *ExecContext, keys []*expression.Vector, lo, hi int, swap bool) pairSet {
	var out pairSet
	hashes := make([]uint64, min(cancelStride, hi-lo))
	for b := lo; b < hi && ctx.Err() == nil; b += cancelStride {
		for i, h := range hashInto(hashes[:min(cancelStride, hi-b)], keys, b) {
			if keyNeverJoins(keys, b+i) {
				continue
			}
			for m := t.matches(h, keys, b+i); m >= 0; m = t.next[m] {
				out.append(int32(b+i), m)
			}
		}
	}
	if swap {
		out.leftIdx, out.rightIdx = out.rightIdx, out.leftIdx
	}
	return out
}

// sortPairsByLeft orders the pairs of every range by left row with one stable
// counting sort: a count and a prefix sum over the nLeft left rows give each
// left row its run of slots, and the ranges are copied in, in range order.
// A range holds the pairs of its right (probe) rows in row order, and the
// ranges follow each other in row order, so every left row's right rows come
// out ascending.
func sortPairsByLeft(results []pairSet, nLeft int) pairSet {
	slot := make([]int, nLeft+1) // slot[li]: where left row li's next pair goes
	for _, r := range results {
		for _, li := range r.leftIdx {
			slot[li+1]++
		}
	}
	for li := 0; li < nLeft; li++ {
		slot[li+1] += slot[li]
	}
	sorted := pairSet{leftIdx: make([]int32, slot[nLeft]), rightIdx: make([]int32, slot[nLeft])}
	for _, r := range results {
		for i, li := range r.leftIdx {
			sorted.leftIdx[slot[li]], sorted.rightIdx[slot[li]] = li, r.rightIdx[i]
			slot[li]++
		}
	}
	return sorted
}

// finish translates the surviving pairs into the mode-specific output: the
// pairs, then the unmatched rows of the preserved side(s), NULL-extended
// (index -1) on the other (Left/Right/Full joins).
func (j *joinCommon) finish(left, right *storage.TableRows, ps pairSet) *storage.Table {
	// Only the modes that list unmatched rows or filter by match read these.
	var matched, matchedRight []bool
	semiAnti := j.Mode == JoinModeSemi || j.Mode == JoinModeAnti
	if semiAnti || j.Mode.nullExtendsRight() {
		matched = make([]bool, left.Len())
		for _, li := range ps.leftIdx {
			matched[li] = true
		}
	}
	if j.Mode.nullExtendsLeft() {
		matchedRight = make([]bool, right.Len())
		for _, ri := range ps.rightIdx {
			matchedRight[ri] = true
		}
	}
	if semiAnti {
		var keep []int32
		for i, m := range matched {
			if m == (j.Mode == JoinModeSemi) {
				keep = append(keep, int32(i))
			}
		}
		return oneChunkTable(left.Table().ColumnDefinitions(), left.Select(keep), len(keep))
	}
	if j.Mode.nullExtendsRight() {
		for i, m := range matched {
			if !m {
				ps.append(int32(i), -1)
			}
		}
	}
	for i, m := range matchedRight {
		if !m {
			ps.append(-1, int32(i))
		}
	}
	defs := make([]storage.ColumnDefinition, 0, left.Table().ColumnCount()+right.Table().ColumnCount())
	for _, d := range left.Table().ColumnDefinitions() {
		d.Nullable = d.Nullable || j.Mode.nullExtendsLeft()
		defs = append(defs, d)
	}
	for _, d := range right.Table().ColumnDefinitions() {
		d.Nullable = d.Nullable || j.Mode.nullExtendsRight()
		defs = append(defs, d)
	}
	return oneChunkTable(defs, append(left.Select(ps.leftIdx), right.Select(ps.rightIdx)...), len(ps.leftIdx))
}
