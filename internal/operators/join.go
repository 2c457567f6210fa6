package operators

import (
	"fmt"
	"strings"

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

// Run implements Operator. decideParallel picks the partition count — 1
// keeps build and probe on the calling task, more fans them out per radix
// partition (join_radix.go) — and everything else is one path.
func (j *HashJoin) Run(ctx *ExecContext, inputs []*storage.Table) (*storage.Table, error) {
	leftT, rightT := inputs[0], inputs[1]
	parts := 1
	if ctx.decideParallel(opJoin, leftT.RowCount()+rightT.RowCount()) {
		parts = ctx.joinFanOut()
	}
	return j.run(ctx, leftT, rightT, parts)
}

// run joins over parts hash partitions (a power of two): the typed key
// vectors of both sides are hashed and scattered by partition
// (partitionKeys), then each partition builds and probes its own key table
// (radixJoinPairs). The build side is the input with fewer rows (the right
// one on a tie), decided here from the row counts. Either way and for every
// partition count the pairs come out in the same order — left row
// ascending, its right rows ascending — so results are bit-for-bit equal.
func (j *HashJoin) run(ctx *ExecContext, leftT, rightT *storage.Table, parts int) (*storage.Table, error) {
	left, right, err := joinKeys(ctx, leftT, rightT, j.LeftKeys, j.RightKeys)
	if err != nil {
		return nil, err
	}
	buildLeft := left.rows.Len() < right.rows.Len()
	build, probe := right, left
	if buildLeft {
		build, probe = left, right
	}
	ps, err := radixJoinPairs(ctx, j, build, probe, parts, buildLeft)
	if err != nil {
		return nil, err
	}
	ps, err = j.filterResiduals(ctx, left.rows, right.rows, ps)
	if err != nil {
		return nil, err
	}
	return j.finish(left.rows, right.rows, ps), nil
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
