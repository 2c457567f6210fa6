package main

import (
	"fmt"
	"math/rand"

	"hyrise/internal/benchmark"
	"hyrise/internal/encoding"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Figure 3 setup (paper §2.3): an aggregation accessing 25% of the integer
// values of one segment, at randomly chosen positions. At -sf 0.1 the segment
// holds the paper's 1M values.

// fig3Specs are the encodings of the paper's figure.
var fig3Specs = []encoding.Spec{
	{Encoding: encoding.FrameOfReference, Compression: encoding.FixedSizeByteAligned},
	{Encoding: encoding.FrameOfReference, Compression: encoding.BitPacked128},
	{Encoding: encoding.RunLength},
	{Encoding: encoding.Dictionary, Compression: encoding.FixedSizeByteAligned},
	{Encoding: encoding.Dictionary, Compression: encoding.BitPacked128},
}

// fig3Sum is the aggregation of the figure over one access path.
type fig3Sum func(seg storage.Segment, pos []types.ChunkOffset) int64

// sumFull decodes the whole vector upfront, then gathers the positions.
func sumFull(seg storage.Segment, pos []types.ChunkOffset) int64 {
	full, _ := encoding.Materialize[int64](seg)
	var sum int64
	for _, p := range pos {
		sum += full[p]
	}
	return sum
}

// sumOf sums the values a positional accessor returns.
func sumOf(materialize func(storage.Segment, []types.ChunkOffset) ([]int64, []bool)) fig3Sum {
	return func(seg storage.Segment, pos []types.ChunkOffset) int64 {
		vals, _ := materialize(seg, pos)
		var sum int64
		for _, v := range vals {
			sum += v
		}
		return sum
	}
}

var (
	// sumPositional uses random access iterators (the static path).
	sumPositional = sumOf(encoding.MaterializePositions[int64])
	// sumDynamic uses one virtual call per value (dynamic polymorphism).
	sumDynamic = sumOf(encoding.MaterializeDynamic[int64])
)

// fig3 prints one row per encoding: slow path, fast path, speedup.
func (h *harness) fig3(specs []encoding.Spec, slowName string, slow fig3Sum, fastName string, fast fig3Sum) {
	n := max(int(h.sf*10_000_000), 1024)
	fmt.Fprintf(h.out, "   (aggregation over %d random positions of %d int values, best of %d)\n", n/4, n, h.runs)
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, n)
	for i := range vals {
		// Runs of ~64 equal values: run-length, dictionary, and
		// frame-of-reference all have realistic structure.
		vals[i] = int64(i / 64)
	}
	pos := make([]types.ChunkOffset, n/4)
	for i := range pos {
		pos[i] = types.ChunkOffset(rng.Intn(n))
	}
	fmt.Fprintf(h.out, "%-28s %14s %14s %9s\n", "encoding", slowName+" (ms)", fastName+" (ms)", "speedup")
	for _, spec := range specs {
		seg, _ := encoding.Seal(storage.ValueSegmentFromSlice(vals, nil), false, &spec)
		var sums [2]int64
		item := func(i int, name string, sum fig3Sum) benchmark.Item {
			return benchmark.Item{Name: name, Do: func() (int, error) {
				sums[i] = sum(seg, pos)
				return len(pos), nil
			}}
		}
		ms := h.best(nil, item(0, slowName, slow), item(1, fastName, fast))
		if sums[0] != sums[1] {
			panic(fmt.Sprintf("%s: checksum mismatch between %s and %s", spec, slowName, fastName))
		}
		fmt.Fprintf(h.out, "%-28s %14.3f %14.3f %8.2fx\n", spec, ms[0], ms[1], ms[0]/ms[1])
	}
	fmt.Fprintln(h.out)
}

func (h *harness) fig3a() {
	h.section("Figure 3a: full vs positional materialization")
	h.fig3(fig3Specs, "full", sumFull, "positional", sumPositional)
}

func (h *harness) fig3b() {
	h.section("Figure 3b: static vs dynamic polymorphism")
	fmt.Fprintln(h.out, "   (same access pattern; static = resolved generic accessors, dynamic = interface call per value)")
	specs := append([]encoding.Spec{{Encoding: encoding.Unencoded}}, fig3Specs...)
	h.fig3(specs, "dynamic", sumDynamic, "static", sumPositional)
}
