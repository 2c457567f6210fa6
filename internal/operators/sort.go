package operators

import (
	"fmt"
	"slices"
	"strings"
	"time"

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
	Keys   []SortKey
	inputs []Operator // the one input, held as Inputs returns it
}

// NewSort builds a sort.
func NewSort(in Operator, keys []SortKey) *Sort { return &Sort{Keys: keys, inputs: []Operator{in}} }

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
func (op *Sort) Inputs() []Operator { return op.inputs }

// Run implements Operator. The keys are evaluated into one typed vector each
// (keys.go) and sortRows orders the row numbers by them.
func (op *Sort) Run(ctx *ExecContext, inputs []*storage.Table) (*storage.Table, error) {
	input := inputs[0]
	exprs := make([]expression.Expression, len(op.Keys))
	desc := make([]bool, len(op.Keys))
	for i, k := range op.Keys {
		exprs[i], desc[i] = k.Expr, k.Desc
	}
	vecs, err := evalKeys(ctx, input, exprs)
	if err != nil {
		return nil, err
	}
	rows := input.AllRows()
	total := rows.Len()
	keys := make([]*expression.Vector, len(vecs))
	for k := range vecs {
		if keys[k], err = concatKeys(vecs[k], exprType(exprs[k]), total); err != nil {
			return nil, err
		}
	}
	perm := make([]int32, total)
	for i := range perm {
		perm[i] = int32(i)
	}
	if err := sortRows(ctx, op, keys, desc, perm); err != nil {
		return nil, err
	}
	return oneChunkTable(input.ColumnDefinitions(), rows.Select(perm), total), nil
}

// sortRows is the engine's one row sort, for ORDER BY and the sort-merge
// join alike: it orders perm, row numbers into the key vectors, stably by the
// keys. Values compare by compareKey's rule — NaN first, -0 = +0 — and NULL
// sorts last ascending, first descending. perm is cut into contiguous runs,
// one unless decideParallel fans the sort out to fanOut() runs (no more than
// rows); each run is sorted as one task, then adjacent runs merge pairwise,
// one task group per round. A merge takes the left run's row on a tie, so every run count yields
// what one stable sort over all of perm yields.
func sortRows(ctx *ExecContext, op Operator, keys []*expression.Vector, desc []bool, perm []int32) error {
	cmp := func(a, b int32) int {
		for k, v := range keys {
			an, bn := v.IsNullAt(int(a)), v.IsNullAt(int(b))
			c := boolInt(an) - boolInt(bn)
			if !an && !bn {
				c = compareKey(v, int(a), v, int(b))
			}
			if c != 0 {
				if desc[k] {
					return -c
				}
				return c
			}
		}
		return 0
	}
	n, runs := len(perm), 1
	parallel := n > 1 && ctx.decideParallel(opSort, n)
	var t0 time.Time
	if parallel {
		t0, runs = ctx.scanWallClock(), min(ctx.fanOut(), n)
	}
	bounds := make([]int, runs+1) // run r is perm[bounds[r]:bounds[r+1]]
	jobs := make([]func(), runs)
	for r := range jobs {
		bounds[r+1] = (r + 1) * n / runs
		run := perm[bounds[r]:bounds[r+1]]
		jobs[r] = func() { slices.SortStableFunc(run, cmp) }
	}
	ctx.runJobs(jobs)
	src, dst := perm, []int32(nil)
	for len(bounds) > 2 && ctx.Err() == nil {
		if dst == nil {
			dst = make([]int32, n)
		}
		next := []int{0}
		jobs = jobs[:0]
		for r := 0; r+1 < len(bounds); r += 2 { // an odd run out merges with nothing
			lo, mid, hi := bounds[r], bounds[r+1], bounds[min(r+2, len(bounds)-1)]
			out, left, right := dst[lo:hi], src[lo:mid], src[mid:hi]
			jobs = append(jobs, func() { mergeRuns(ctx, out, left, right, cmp) })
			next = append(next, hi)
		}
		ctx.runJobs(jobs)
		bounds, src, dst = next, dst, src
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if runs > 1 && &src[0] != &perm[0] { // an odd number of rounds ran
		copy(perm, src)
	}
	if parallel {
		ctx.noteSortParallel(op, runs, sinceNS(t0))
	}
	return nil
}

// mergeRuns merges the sorted runs left and right into out, the left run's
// row first on a tie. It stops early once the statement is canceled.
func mergeRuns(ctx *ExecContext, out, left, right []int32, cmp func(a, b int32) int) {
	i, j := 0, 0
	for k := range out {
		if k%cancelStride == 0 && ctx.Err() != nil {
			return
		}
		if j == len(right) || i < len(left) && cmp(left[i], right[j]) <= 0 {
			out[k], i = left[i], i+1
		} else {
			out[k], j = right[j], j+1
		}
	}
}

// Limit keeps the first N rows of its input.
type Limit struct {
	N      int64
	inputs []Operator // the one input, held as Inputs returns it
}

// NewLimit builds a limit.
func NewLimit(in Operator, n int64) *Limit { return &Limit{N: n, inputs: []Operator{in}} }

// Name implements Operator.
func (op *Limit) Name() string { return fmt.Sprintf("Limit(%d)", op.N) }

// Inputs implements Operator.
func (op *Limit) Inputs() []Operator { return op.inputs }

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
