package operators

import (
	"fmt"

	"hyrise/internal/expression"
	"hyrise/internal/storage"
)

// SortMergeJoin is the alternative equi-join implementation (paper §2.1):
// both sides are sorted on the key and merged; equal-key blocks produce the
// candidate pairs.
type SortMergeJoin struct {
	joinCommon
	LeftKey  expression.Expression
	RightKey expression.Expression
}

// NewSortMergeJoin builds a sort-merge join.
func NewSortMergeJoin(mode JoinMode, left, right Operator, leftKey, rightKey expression.Expression, residuals []expression.Expression) *SortMergeJoin {
	return &SortMergeJoin{
		joinCommon: joinCommon{Mode: mode, Residuals: residuals, inputs: []Operator{left, right}},
		LeftKey:    leftKey,
		RightKey:   rightKey,
	}
}

// Name implements Operator.
func (j *SortMergeJoin) Name() string {
	return fmt.Sprintf("SortMergeJoin(%s, %s = %s)", j.Mode, j.LeftKey, j.RightKey)
}

// Run implements Operator: both sides' typed key vectors are sorted by the
// engine's row sort (sortRows; NULL and NaN keys never join and are left out)
// and merged.
func (j *SortMergeJoin) Run(ctx *ExecContext, inputs []*storage.Table) (*storage.Table, error) {
	leftT, rightT := inputs[0], inputs[1]
	left, right, err := joinKeys(ctx, leftT, rightT, []expression.Expression{j.LeftKey}, []expression.Expression{j.RightKey})
	if err != nil {
		return nil, err
	}
	// Each side's rows that can join, ordered by key: equal keys in row order.
	var orders [2][]int32
	for s, key := range [2][]*expression.Vector{left.keys, right.keys} {
		orders[s] = make([]int32, 0, key[0].N)
		for r := 0; r < key[0].N; r++ {
			if !keyNeverJoins(key, r) {
				orders[s] = append(orders[s], int32(r))
			}
		}
		if err := sortRows(ctx, j, key, []bool{false}, orders[s]); err != nil {
			return nil, err
		}
	}
	lk, rk, leftOrder, rightOrder := left.keys[0], right.keys[0], orders[0], orders[1]
	if len(leftOrder) > 0 && len(rightOrder) > 0 && lk.DT != rk.DT {
		return nil, fmt.Errorf("operators: incomparable join keys %s and %s", lk.DT, rk.DT)
	}

	var ps pairSet
	li, ri := 0, 0
	for li < len(leftOrder) && ri < len(rightOrder) {
		switch c := compareKey(lk, int(leftOrder[li]), rk, int(rightOrder[ri])); {
		case c < 0:
			li++
		case c > 0:
			ri++
		default:
			// Every left row of this key pairs with the right block of it.
			rEnd := ri + 1
			for rEnd < len(rightOrder) && compareKey(rk, int(rightOrder[rEnd]), rk, int(rightOrder[ri])) == 0 {
				rEnd++
			}
			for ; li < len(leftOrder) && compareKey(lk, int(leftOrder[li]), rk, int(rightOrder[ri])) == 0; li++ {
				for _, r := range rightOrder[ri:rEnd] {
					ps.append(leftOrder[li], r)
				}
			}
			ri = rEnd
		}
	}

	ps, err = j.filterResiduals(ctx, left.rows, right.rows, ps)
	if err != nil {
		return nil, err
	}
	return j.finish(left.rows, right.rows, ps), nil
}

// nljBlockSize bounds the candidate-pair batches of the nested-loop join.
const nljBlockSize = 1 << 14

// NestedLoopJoin evaluates arbitrary predicates over every pair of rows; it
// is the fallback for non-equi joins and implements cross joins (empty
// predicate list).
type NestedLoopJoin struct {
	joinCommon
}

// NewNestedLoopJoin builds a nested-loop join.
func NewNestedLoopJoin(mode JoinMode, left, right Operator, predicates []expression.Expression) *NestedLoopJoin {
	return &NestedLoopJoin{joinCommon{Mode: mode, Residuals: predicates, inputs: []Operator{left, right}}}
}

// Name implements Operator.
func (j *NestedLoopJoin) Name() string {
	return fmt.Sprintf("NestedLoopJoin(%s, %d predicates)", j.Mode, len(j.Residuals))
}

// Run implements Operator.
func (j *NestedLoopJoin) Run(ctx *ExecContext, inputs []*storage.Table) (*storage.Table, error) {
	left, right := inputs[0].AllRows(), inputs[1].AllRows()
	// Semi and Anti only ask whether a left row matched: one pair is enough.
	firstOnly := j.Mode == JoinModeSemi || j.Mode == JoinModeAnti

	// Process pair batches of bounded size to keep memory flat.
	var kept pairSet
	rowsPerBatch := max(1, nljBlockSize/max(1, right.Len()))
	for lStart := 0; lStart < left.Len(); lStart += rowsPerBatch {
		lEnd := min(lStart+rowsPerBatch, left.Len())
		var ps pairSet
		for li := lStart; li < lEnd; li++ {
			for ri := 0; ri < right.Len(); ri++ {
				ps.append(int32(li), int32(ri))
			}
		}
		ps, err := j.filterResiduals(ctx, left, right, ps)
		if err != nil {
			return nil, err
		}
		for p, li := range ps.leftIdx {
			if n := len(kept.leftIdx); firstOnly && n > 0 && kept.leftIdx[n-1] == li {
				continue
			}
			kept.append(li, ps.rightIdx[p])
		}
	}
	return j.finish(left, right, kept), nil
}
