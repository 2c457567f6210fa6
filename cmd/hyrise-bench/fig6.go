package main

import (
	"fmt"

	"hyrise/internal/pipeline"
	"hyrise/internal/storage"
	"hyrise/internal/tpch"
)

// fig6 is Figure 6 (paper §5.1): the per-query TPC-H comparison. The paper
// compares Hyrise against Quickstep and Peloton; this reproduction compares
// against two internal baseline engines with different architectures
// (DESIGN.md substitution S4):
//
//   - hyrise:  the full engine (chunked, dictionary-encoded, pruned,
//     specialized scans)
//   - dynamic: the same engine forced through the interface-call-per-value
//     path on unencoded, unchunked data (Hyrise1-style abstractions)
//   - rowstore: a row-major, tuple-at-a-time engine
func (h *harness) fig6() {
	h.section("Figure 6: TPC-H per-query comparison (scale factor %g, best of %d)", h.sf, h.runs)
	items := tpchItems(h.sf, tpch.QueryNumbers())

	full := must(newTPCHEngine(pipeline.DefaultConfig(), tpch.Config{ScaleFactor: h.sf, ChunkSize: storage.DefaultChunkSize}, &dictionary))
	defer full.Close()
	dynCfg := pipeline.DefaultConfig()
	dynCfg.DynamicAccess = true
	dyn := must(newTPCHEngine(dynCfg, tpch.Config{ScaleFactor: h.sf, ChunkSize: 1 << 30}, nil))
	defer dyn.Close()
	hyr, dynMS, row := h.architectures(items, full, dyn)

	fmt.Fprintf(h.out, "%-10s %12s %12s %12s %10s %10s\n", "query", "hyrise(ms)", "dynamic(ms)", "rowstore(ms)", "dyn/hyr", "row/hyr")
	line := func(name string, hyr, dyn, row float64) {
		fmt.Fprintf(h.out, "%-10s %12.2f %12.2f %12.2f %9.2fx %9.2fx\n", name, hyr, dyn, row, dyn/hyr, row/hyr)
	}
	var totals [3]float64
	for q, item := range items {
		line(item.Name, hyr[q], dynMS[q], row[q])
		totals[0], totals[1], totals[2] = totals[0]+hyr[q], totals[1]+dynMS[q], totals[2]+row[q]
	}
	line("TOTAL", totals[0], totals[1], totals[2])
	fmt.Fprintln(h.out)
}
