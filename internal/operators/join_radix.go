package operators

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// This file implements the hash join's build/probe kernels. Both inputs are
// partitioned by a hash prefix of their join key into P partitions (P = 1
// when decideParallel keeps the join serial, else about the worker count);
// build and probe then run per partition as independent scheduler tasks. Each
// partition's key table stays small and cache-resident, and the partitions
// share no mutable state but the build side's chain array, of which each owns
// its own rows — the paper's §2.9 point that chunked tables are "an inherent
// partitioning for multiprocessing", applied to the join hot path.
//
// Determinism: partitioning keeps rows in global row order within each
// partition, and the final pair sort restores left-major order, so every
// partition count and either build side emit exactly the pair sequence of a
// single build on the right input probed with the left one.

// joinBuckets is one morsel of one side, scattered by hash partition:
// hash[p] holds the key hashes of the morsel's rows in partition p and idx[p]
// their global row indices (into the side's rows and key columns), ascending.
type joinBuckets struct {
	hash [][]uint64
	idx  [][]int32
}

// partitionKeys hashes one side's key columns morsel by morsel (row ranges
// of the size a parallel TableScan dispatches) and scatters (hash, row index)
// into private per-partition buckets; the partition is the hash's top bits,
// the key table's slot its low bits. NULL- and NaN-key rows are dropped (they
// never join); they remain visible to finish through the side's rows.
//
// The buckets come back in morsel order and each morsel covers a contiguous
// row range, so walking them in order visits every partition's rows in
// ascending global row order — the invariant the build chains and the probe
// order rest on.
func partitionKeys(ctx *ExecContext, side joinSide, parts int) ([]joinBuckets, error) {
	total, target := side.rows.Len(), ctx.morselTargetRows()
	shift := 64 - bits.TrailingZeros(uint(parts)) // parts == 1: every hash >> 64 is 0
	buckets := make([]joinBuckets, (total+target-1)/target)
	jobs := make([]func(), len(buckets))
	for mi := range buckets {
		mi := mi
		jobs[mi] = func() {
			lo, hi := mi*target, min((mi+1)*target, total)
			b := joinBuckets{hash: make([][]uint64, parts), idx: make([][]int32, parts)}
			for p := range b.idx {
				b.hash[p] = make([]uint64, 0, (hi-lo)/parts+64)
				b.idx[p] = make([]int32, 0, (hi-lo)/parts+64)
			}
			for i, h := range hashRows(side.keys, lo, hi) {
				if i%cancelStride == 0 && ctx.Err() != nil {
					return
				}
				if keyNeverJoins(side.keys, lo+i) {
					continue
				}
				p := h >> shift
				b.hash[p] = append(b.hash[p], h)
				b.idx[p] = append(b.idx[p], int32(lo+i))
			}
			buckets[mi] = b
		}
	}
	ctx.runJobs(jobs)
	return buckets, ctx.Err()
}

// partitionRows counts one side's rows in partition p.
func partitionRows(side []joinBuckets, p int) int {
	n := 0
	for i := range side {
		n += len(side[i].idx[p])
	}
	return n
}

// radixJoinPairs partitions both sides and runs build+probe, one task per
// partition, and returns the candidate pairs in left-major order: a left
// row's matches are its right rows, ascending. Each partition emits its
// pairs in probe order, a probe row's matches being the build rows of its
// key's chain, ascending; with the left side built (buildLeft) the pairs
// come back with their sides swapped and are sorted by left row.
func radixJoinPairs(ctx *ExecContext, j *HashJoin, build, probe joinSide, parts int, buildLeft bool) (pairSet, error) {
	buildB, err := partitionKeys(ctx, build, parts)
	if err != nil {
		return pairSet{}, err
	}
	probeB, err := partitionKeys(ctx, probe, parts)
	if err != nil {
		return pairSet{}, err
	}
	results := make([]pairSet, parts)
	next := make([]int32, build.rows.Len()) // one chain array; partitions own disjoint rows of it
	var buildNS, probeNS atomic.Int64
	jobs := make([]func(), parts)
	for p := 0; p < parts; p++ {
		p := p
		jobs[p] = func() {
			if partitionRows(probeB, p) == 0 {
				return
			}
			t0 := time.Now()
			ht := newKeyTable(build.keys, partitionRows(buildB, p))
			ht.next = next
			for bi := len(buildB) - 1; bi >= 0; bi-- {
				hash, idx := buildB[bi].hash[p], buildB[bi].idx[p]
				for i := len(idx) - 1; i >= 0; i-- {
					ht.insert(hash[i], int(idx[i]))
				}
			}
			t1 := time.Now()
			buildNS.Add(t1.Sub(t0).Nanoseconds())
			var out pairSet
			for _, pr := range probeB {
				hash, idx := pr.hash[p], pr.idx[p]
				for i, pi := range idx {
					if i%cancelStride == 0 && ctx.Err() != nil {
						return
					}
					for bi := ht.matches(hash[i], probe.keys, int(pi)); bi >= 0; bi = next[bi] {
						out.append(pi, bi)
					}
				}
			}
			probeNS.Add(time.Since(t1).Nanoseconds())
			if buildLeft {
				out.leftIdx, out.rightIdx = out.rightIdx, out.leftIdx
			}
			results[p] = out
		}
	}
	ctx.runJobs(jobs)
	if err := ctx.Err(); err != nil {
		return pairSet{}, err
	}
	ps := results[0]
	if len(results) > 1 || buildLeft {
		left := probe
		if buildLeft {
			left = build
		}
		ps = sortPairsByLeft(results, left.rows.Len())
	}
	ctx.noteJoinPhases(j, parts, buildLeft, build.rows.Len(), len(ps.leftIdx), buildNS.Load(), probeNS.Load())
	return ps, nil
}

// sortPairsByLeft orders the pairs of every partition by left row with one
// stable counting sort: a count and a prefix sum over the nLeft left rows
// give each left row its run of slots, and the partitions are copied in.
// Every left row lives in exactly one partition (its key's), so the right
// rows of a left row keep the order its partition emitted them in, which is
// ascending either way: a left probe row walks its ascending build chain,
// and a right probe side is visited in row order.
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
