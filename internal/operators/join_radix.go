package operators

import (
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"hyrise/internal/expression"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// This file implements the hash join's build/probe kernels. Both inputs are
// partitioned by a hash prefix of their join key into P partitions (P = 1
// when decideParallel keeps the join serial, else about the worker count);
// build and probe then run per partition as independent scheduler tasks. Each
// partition's hash table stays small and cache-resident, and the partitions
// never share mutable state — the paper's §2.9 point that chunked tables are
// "an inherent partitioning for multiprocessing", applied to the join hot
// path.
//
// Determinism: partitioning keeps rows in global row order within each
// partition, and the final pair merge restores global probe order, so every
// partition count emits exactly the pair sequence of a single build/probe.

// radixCancelStride is how many probe rows a partition task processes
// between cancellation checks.
const radixCancelStride = 4096

// fnv64str hashes a composite key string (FNV-1a).
func fnv64str(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// joinBuckets is one morsel of one side, scattered by hash partition:
// keys[p] holds the pre-rendered composite key strings of the morsel's rows
// in partition p and idx[p] their global row indices (into the side's rows
// slice), ascending.
type joinBuckets struct {
	keys [][]string
	idx  [][]int32
}

// partitionKeysOverTable fuses key materialization with hash partitioning:
// each morsel (a run of consecutive chunks, the same units a parallel
// TableScan dispatches) evaluates the key expressions over its chunks and
// scatters rows into private per-partition buckets as soon as they
// materialize. The scan's output streams straight into the radix partitioner
// — no table-wide key array is ever built, which both removes the
// materialization barrier between the phases and halves the passes over the
// keys. NULL-key rows are dropped (NULL never joins); they remain visible to
// finish through the returned global rows slice.
//
// Each morsel covers a contiguous global row range and the buckets come back
// in morsel order, so walking them in order visits every partition's rows in
// ascending global row order — the invariant mergePairSets needs to restore
// probe order.
func partitionKeysOverTable(ctx *ExecContext, t *storage.Table, keys []expression.Expression, parts int) ([]joinBuckets, types.PosList, error) {
	chunks := t.Chunks()
	// base[ci] is the global row index of chunk ci's first row.
	base := make([]int, len(chunks))
	total := 0
	for ci, c := range chunks {
		base[ci] = total
		total += c.Size()
	}
	rows := make(types.PosList, total)
	mask := uint64(parts - 1)

	morsels := morselRanges(chunks, ctx.morselTargetRows())
	buckets := make([]joinBuckets, len(morsels))
	errs := make([]error, len(morsels))
	jobs := make([]func(), len(morsels))
	for mi, m := range morsels {
		mi, m := mi, m
		jobs[mi] = func() {
			b := joinBuckets{keys: make([][]string, parts), idx: make([][]int32, parts)}
			var sb strings.Builder
			tuple := make([]types.Value, len(keys))
			for ci := m.lo; ci < m.hi; ci++ {
				if ctx.Err() != nil {
					return
				}
				c := chunks[ci]
				n := c.Size()
				if n == 0 {
					continue
				}
				ec := ctx.evalContext(t, c, n)
				vecs := make([]*expression.Vector, len(keys))
				for i, k := range keys {
					v, err := expression.Evaluate(k, ec)
					if err != nil {
						errs[mi] = err
						return
					}
					vecs[i] = v
				}
				for row := 0; row < n; row++ {
					if row%radixCancelStride == 0 && ctx.Err() != nil {
						return
					}
					gi := base[ci] + row
					rows[gi] = types.RowID{Chunk: types.ChunkID(ci), Offset: types.ChunkOffset(row)}
					for i, v := range vecs {
						tuple[i] = v.ValueAt(row)
					}
					k, ok := compositeKey(&sb, tuple)
					if !ok {
						continue
					}
					var p uint64
					if mask != 0 {
						p = fnv64str(k) & mask
					}
					b.keys[p] = append(b.keys[p], k)
					b.idx[p] = append(b.idx[p], int32(gi))
				}
			}
			buckets[mi] = b
		}
	}
	ctx.runJobs(jobs)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return buckets, rows, nil
}

// partitionRows counts one side's rows in partition p.
func partitionRows(side []joinBuckets, p int) int {
	n := 0
	for i := range side {
		n += len(side[i].idx[p])
	}
	return n
}

// radixJoinPairs runs the build+probe over pre-partitioned sides, one task
// per partition, and returns the candidate pairs in global probe order.
func radixJoinPairs(ctx *ExecContext, j *HashJoin, build, probe []joinBuckets, leftRows, rightRows types.PosList, parts int) (pairSet, error) {
	results := make([]pairSet, parts)
	var buildNS, probeNS atomic.Int64
	jobs := make([]func(), parts)
	for p := 0; p < parts; p++ {
		p := p
		jobs[p] = func() {
			if partitionRows(probe, p) == 0 {
				return
			}
			t0 := time.Now()
			ht := make(map[string][]int32, partitionRows(build, p))
			for _, b := range build {
				for i, k := range b.keys[p] {
					ht[k] = append(ht[k], b.idx[p][i])
				}
			}
			t1 := time.Now()
			buildNS.Add(t1.Sub(t0).Nanoseconds())
			var out pairSet
			for _, pr := range probe {
				for i, k := range pr.keys[p] {
					if i%radixCancelStride == 0 && ctx.Err() != nil {
						return
					}
					li := pr.idx[p][i]
					for _, ri := range ht[k] {
						out.append(leftRows[li], rightRows[ri], li, ri)
					}
				}
			}
			probeNS.Add(time.Since(t1).Nanoseconds())
			results[p] = out
		}
	}
	ctx.runJobs(jobs)
	if err := ctx.Err(); err != nil {
		return pairSet{}, err
	}
	ctx.noteJoinPhases(j, parts, buildNS.Load(), probeNS.Load())
	return mergePairSets(results), nil
}

// mergePairSets concatenates per-partition pairs and restores global probe
// order. Each partition's pairs are already ascending in leftIdx and every
// left row lives in exactly one partition, so a stable sort by leftIdx
// reproduces the single-partition pair sequence exactly.
func mergePairSets(results []pairSet) pairSet {
	if len(results) == 1 {
		return results[0]
	}
	total := 0
	for i := range results {
		total += len(results[i].left)
	}
	merged := pairSet{
		left:     make(types.PosList, 0, total),
		right:    make(types.PosList, 0, total),
		leftIdx:  make([]int32, 0, total),
		rightIdx: make([]int32, 0, total),
	}
	for i := range results {
		merged.left = append(merged.left, results[i].left...)
		merged.right = append(merged.right, results[i].right...)
		merged.leftIdx = append(merged.leftIdx, results[i].leftIdx...)
		merged.rightIdx = append(merged.rightIdx, results[i].rightIdx...)
	}
	sort.Stable(pairsByLeftIdx{&merged})
	return merged
}

// pairsByLeftIdx stable-sorts a pairSet's four parallel slices by leftIdx.
type pairsByLeftIdx struct{ ps *pairSet }

func (s pairsByLeftIdx) Len() int           { return len(s.ps.leftIdx) }
func (s pairsByLeftIdx) Less(i, j int) bool { return s.ps.leftIdx[i] < s.ps.leftIdx[j] }
func (s pairsByLeftIdx) Swap(i, j int) {
	ps := s.ps
	ps.left[i], ps.left[j] = ps.left[j], ps.left[i]
	ps.right[i], ps.right[j] = ps.right[j], ps.right[i]
	ps.leftIdx[i], ps.leftIdx[j] = ps.leftIdx[j], ps.leftIdx[i]
	ps.rightIdx[i], ps.rightIdx[j] = ps.rightIdx[j], ps.rightIdx[i]
}
