package main

import (
	"fmt"

	"hyrise/internal/pipeline"
	"hyrise/internal/tpch"
)

// fig7Capacities are the chunk capacities of the paper's Figure 7 sweep
// (1k .. 10M; the largest effectively yields a single chunk, i.e. the
// unchunked layout the relative throughput is normalized to).
var fig7Capacities = []int{1_000, 10_000, 65_000, 100_000, 1_000_000, 10_000_000}

// fig7Highlight are the queries the paper plots individually; everything
// else lands in "Avg. of other queries".
var fig7Highlight = map[int]bool{1: true, 6: true, 12: true, 21: true, 22: true}

// fig7 reproduces the throughput half of Figure 7 (paper §5.2): queries per
// second relative to a non-chunked layout, per chunk capacity. Two data
// layouts are measured, because "whether pruning is possible depends on the
// underlying data" (§5.2): dbgen-style uniformly random dates (no pruning
// opportunity) and date-clustered data (append-order ingestion, where the
// chunks' date ranges exclude date predicates).
func (h *harness) fig7() {
	for _, clustered := range []bool{false, true} {
		label := "dbgen-style random dates (pruning rarely applies)"
		if clustered {
			label = "date-clustered data (pruning applies)"
		}
		h.section("Figure 7 (top): throughput vs chunk capacity (scale factor %g, best of %d)", h.sf, h.runs)
		fmt.Fprintf(h.out, "   layout: %s\n", label)
		fmt.Fprintln(h.out, "   values are speedups relative to the unchunked layout (last capacity)")
		h.fig7Series(clustered)
	}
}

func (h *harness) fig7Series(clustered bool) {
	nums := tpch.QueryNumbers()
	items := tpchItems(h.sf, nums)

	times := make([][]float64, len(fig7Capacities)) // per capacity, per query: best ms
	for c, capacity := range fig7Capacities {
		engine := must(newTPCHEngine(pipeline.DefaultConfig(), tpch.Config{ScaleFactor: h.sf, ChunkSize: capacity, ClusterDates: clustered}, &dictionary))
		times[c] = h.best(engine, items...)
		engine.Close()
		fmt.Fprintf(h.out, "   measured capacity %d\n", capacity)
	}

	header := fmt.Sprintf("%-12s", "capacity")
	for _, num := range nums {
		if fig7Highlight[num] {
			header += fmt.Sprintf(" %8s", fmt.Sprintf("Q%02d", num))
		}
	}
	fmt.Fprintln(h.out, header+fmt.Sprintf(" %10s %10s", "others", "total-qps"))

	base := times[len(times)-1] // unchunked reference
	for c, capacity := range fig7Capacities {
		row := fmt.Sprintf("%-12d", capacity)
		otherSpeedup, otherCount := 0.0, 0
		totalMS := 0.0
		for q, num := range nums {
			speedup := base[q] / times[c][q]
			totalMS += times[c][q]
			if fig7Highlight[num] {
				row += fmt.Sprintf(" %7.2fx", speedup)
			} else {
				otherSpeedup += speedup
				otherCount++
			}
		}
		fmt.Fprintln(h.out, row+fmt.Sprintf(" %9.2fx %10.2f", otherSpeedup/float64(otherCount), float64(len(nums))/(totalMS/1000)))
	}
	fmt.Fprintln(h.out)
}

// fig7mem reproduces the memory half of Figure 7: footprint of all TPC-H
// tables under dictionary encoding, per chunk capacity, split into data and
// per-chunk metadata (the §2.2 overhead argument).
func (h *harness) fig7mem() {
	h.section("Figure 7 (bottom): memory footprint vs chunk capacity (scale factor %g, dictionary)", h.sf)
	fmt.Fprintf(h.out, "%-12s %14s %14s %10s %12s\n", "capacity", "data (MiB)", "metadata(MiB)", "meta %", "vs best")
	data := make([]int64, len(fig7Capacities))
	metadata := make([]int64, len(fig7Capacities))
	minTotal := int64(1<<62 - 1)
	for c, capacity := range fig7Capacities {
		engine := must(newTPCHEngine(pipeline.DefaultConfig(), tpch.Config{ScaleFactor: h.sf, ChunkSize: capacity}, &dictionary))
		for _, name := range tpch.TableNames() {
			d, m := must(engine.StorageManager().GetTable(name)).MemoryUsage()
			data[c] += d
			metadata[c] += m
		}
		engine.Close()
		minTotal = min(minTotal, data[c]+metadata[c])
	}
	for c, capacity := range fig7Capacities {
		total := data[c] + metadata[c]
		fmt.Fprintf(h.out, "%-12d %14.2f %14.2f %9.2f%% %11.2f%%\n",
			capacity,
			float64(data[c])/(1<<20),
			float64(metadata[c])/(1<<20),
			100*float64(metadata[c])/float64(total),
			100*float64(total)/float64(minTotal))
	}
	fmt.Fprintln(h.out)
}
