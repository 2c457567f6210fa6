package operators

import (
	"fmt"
	"sort"
	"strings"

	"hyrise/internal/expression"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// SortKey is one ORDER BY key for the physical sort.
type SortKey struct {
	Expr expression.Expression
	Desc bool
}

// Sort orders its input by the keys. The output is a positional permutation
// of the input (one reference chunk), so no data is copied. NULLs sort last
// ascending and first descending (PostgreSQL defaults).
type Sort struct {
	Keys  []SortKey
	input Operator
}

// NewSort builds a sort.
func NewSort(in Operator, keys []SortKey) *Sort { return &Sort{Keys: keys, input: in} }

// Name implements Operator.
func (op *Sort) Name() string {
	parts := make([]string, len(op.Keys))
	for i, k := range op.Keys {
		parts[i] = k.Expr.String()
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return "Sort(" + strings.Join(parts, ", ") + ")"
}

// Inputs implements Operator.
func (op *Sort) Inputs() []Operator { return []Operator{op.input} }

// Run implements Operator. The keys are evaluated into one typed vector each
// (keys.go) and compared by compareKey, whose float order is total — NaN
// first, -0 = +0 — so every algorithm below arrives at the same permutation.
// When decideParallel fans the sort out, the permutation is split into
// contiguous runs sorted concurrently, and a k-way merge combines them.
// Each run covers a contiguous range of ascending global row indices and
// the merge breaks key ties toward the earlier run, so the merged order is
// exactly what one stable sort over the whole input produces — parallel and
// serial outputs are bit-for-bit equal.
func (op *Sort) Run(ctx *ExecContext, inputs []*storage.Table) (*storage.Table, error) {
	input := inputs[0]
	exprs := make([]expression.Expression, len(op.Keys))
	for i, k := range op.Keys {
		exprs[i] = k.Expr
	}
	vecs, err := evalKeys(ctx, input, exprs)
	if err != nil {
		return nil, err
	}
	rows := input.AllRows()
	total := rows.Len()
	keys := make([]*expression.Vector, len(vecs))
	for k := range vecs {
		dt, err := keyType(vecs[k])
		if err != nil {
			return nil, err
		}
		keys[k] = concatKeys(vecs[k], nil, dt, total)
	}

	// keyLess orders two global row indices by the sort keys only (no
	// positional tie-break — stability comes from the algorithms). NULL is
	// larger than every value: last ascending, first descending.
	keyLess := func(a, b int) bool {
		for ki, v := range keys {
			an, bn := v.IsNullAt(a), v.IsNullAt(b)
			c := boolInt(an) - boolInt(bn)
			if !an && !bn {
				c = compareKey(v, a, v, b)
			}
			if c != 0 {
				return (c < 0) != op.Keys[ki].Desc
			}
		}
		return false
	}

	perm := make([]int32, total)
	for i := range perm {
		perm[i] = int32(i)
	}
	if total > 1 && ctx.decideParallel(opSort, total) {
		t0 := ctx.scanWallClock()
		nRuns := min(ctx.fanOut(), total)
		if err := sortParallel(ctx, perm, nRuns, keyLess); err != nil {
			return nil, err
		}
		ctx.noteSortParallel(op, nRuns, sinceNS(t0))
	} else {
		// Not interruptible, but it reads the evaluated keys only.
		sort.SliceStable(perm, func(a, b int) bool { return keyLess(int(perm[a]), int(perm[b])) })
	}
	return oneChunkTable(input.ColumnDefinitions(), rows.Select(perm), total), nil
}

// sortMergeCancelStride is how many merge steps run between cancellation
// checks.
const sortMergeCancelStride = 4096

// sortParallel stable-sorts perm (an identity permutation over contiguous
// global row indices) by splitting it into nRuns contiguous runs, sorting
// them concurrently, and k-way merging the sorted runs. Because the runs
// partition the index space in ascending order, within-run stability plus
// an earlier-run-wins tie-break reproduces sort.SliceStable's output.
func sortParallel(ctx *ExecContext, perm []int32, nRuns int, keyLess func(a, b int) bool) error {
	total := len(perm)
	runSize := (total + nRuns - 1) / nRuns
	type runRange struct{ lo, hi int }
	runs := make([]runRange, 0, nRuns)
	for lo := 0; lo < total; lo += runSize {
		runs = append(runs, runRange{lo: lo, hi: min(lo+runSize, total)})
	}

	jobs := make([]func(), len(runs))
	for ri, r := range runs {
		r := r
		jobs[ri] = func() {
			seg := perm[r.lo:r.hi]
			sort.SliceStable(seg, func(a, b int) bool { return keyLess(int(seg[a]), int(seg[b])) })
		}
	}
	ctx.runJobs(jobs)
	if err := ctx.Err(); err != nil {
		return err
	}

	// K-way merge via a binary heap of run heads. Ties break toward the
	// lower run index; runs hold ascending index ranges, so this matches the
	// stable order.
	merged := make([]int32, 0, total)
	heads := make([]int, len(runs)) // next unconsumed offset within each run
	runLess := func(i, j int) bool {
		a, b := int(perm[runs[i].lo+heads[i]]), int(perm[runs[j].lo+heads[j]])
		if keyLess(a, b) {
			return true
		}
		if keyLess(b, a) {
			return false
		}
		return i < j
	}
	heap := make([]int, 0, len(runs)) // run ids, min-heap under runLess
	up := func(i int) {
		for i > 0 {
			parent := (i - 1) / 2
			if !runLess(heap[i], heap[parent]) {
				break
			}
			heap[i], heap[parent] = heap[parent], heap[i]
			i = parent
		}
	}
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			smallest := i
			if l < len(heap) && runLess(heap[l], heap[smallest]) {
				smallest = l
			}
			if r < len(heap) && runLess(heap[r], heap[smallest]) {
				smallest = r
			}
			if smallest == i {
				return
			}
			heap[i], heap[smallest] = heap[smallest], heap[i]
			i = smallest
		}
	}
	for ri := range runs {
		if runs[ri].lo < runs[ri].hi {
			heap = append(heap, ri)
			up(len(heap) - 1)
		}
	}
	for len(heap) > 0 {
		if len(merged)%sortMergeCancelStride == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		ri := heap[0]
		merged = append(merged, perm[runs[ri].lo+heads[ri]])
		heads[ri]++
		if runs[ri].lo+heads[ri] >= runs[ri].hi {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	copy(perm, merged)
	return nil
}

// Limit keeps the first N rows of its input.
type Limit struct {
	N     int64
	input Operator
}

// NewLimit builds a limit.
func NewLimit(in Operator, n int64) *Limit { return &Limit{N: n, input: in} }

// Name implements Operator.
func (op *Limit) Name() string { return fmt.Sprintf("Limit(%d)", op.N) }

// Inputs implements Operator.
func (op *Limit) Inputs() []Operator { return []Operator{op.input} }

// Run implements Operator.
func (op *Limit) Run(ctx *ExecContext, inputs []*storage.Table) (*storage.Table, error) {
	input := inputs[0]
	remaining := op.N
	var offsetsPerChunk [][]types.ChunkOffset
	for _, c := range input.Chunks() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if remaining <= 0 {
			break
		}
		take := int64(c.Size())
		if take > remaining {
			take = remaining
		}
		offsetsPerChunk = append(offsetsPerChunk, identityOffsets(int(take)))
		remaining -= take
	}
	return buildReferenceTable(input, offsetsPerChunk), nil
}
