package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// contract mirrors BENCHMARK.json, the file the driver reads.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readContract(root string) (*contract, error) {
	path := filepath.Join(root, "BENCHMARK.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

var workloadNames = []string{"tpch_power", "pgwire_point", "tpcc_durable", "htap_ingest"}

// endToEndUnits, timingUnits and perLayer are the metrics this program
// emits; the smoke test checks that BENCHMARK.json lists exactly these.
//
// The end-to-end metrics are the ones the driver holds to a bound.
var endToEndUnits = map[string]string{
	"setup_s":     "s",
	"peak_rss_mb": "MB",
	"data_mb":     "MB",
}

// timingUnits are the throughput and latency metrics. The timed pass prints
// them for the reader but they carry no bound: on the reference box their
// same-code spread exceeds any bound the contract allows (REPEATABILITY.md),
// so by rule 7 of ISSUE 13 they are listed with the per-layer metrics, which
// the traced pass reports.
var timingUnits = map[string]string{
	"ops_per_s":  "1/s",
	"op_p50_ms":  "ms",
	"op_p95_ms":  "ms",
	"alt_p50_ms": "ms",
	"geomean_ms": "ms",
}

// perLayer lists the metrics of the traced pass in report order, with their
// units.
var perLayer = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"alt_p50_ms", "ms"},
	{"geomean_ms", "ms"},
	{"sqlparser.parse_us", "us"},
	{"lqp.translate_us", "us"},
	{"optimizer.optimize_us", "us"},
	{"operators.to_pqp_us", "us"},
	{"statistics.first_plan_ms", "ms"},
	{"cache.plan_hit_ratio", "ratio"},
	{"optimizer.optimize_ms", "ms"},
	{"operators.execute_ms", "ms"},
	{"operators.scan_ms", "ms"},
	{"operators.join_ms", "ms"},
	{"operators.aggregate_ms", "ms"},
	{"operators.sort_ms", "ms"},
	{"operators.projection_ms", "ms"},
	{"operators.validate_ms", "ms"},
	{"operators.dml_ms", "ms"},
	{"operators.other_ms", "ms"},
	{"operators.rows_in_per_row_out", "ratio"},
	{"optimizer.chunks_pruned", "count"},
	{"encoding.encoded_scan_share", "ratio"},
	{"encoding.segments_pruned", "count"},
	{"encoding.segments_decoded", "count"},
	{"encoding.encoded_aggregates", "count"},
	{"encoding.dict_scan_ns_per_row", "ns"},
	{"encoding.encode_s", "s"},
	{"encoding.compression_ratio", "ratio"},
	{"storage.append_row_ns", "ns"},
	{"storage.data_mb", "MB"},
	{"storage.mvcc_mb", "MB"},
	{"storage.chunks", "count"},
	{"concurrency.commit_us", "us"},
	{"persistence.wal_bytes_per_txn", "B"},
	{"persistence.wal_syncs_per_txn", "count"},
	{"persistence.wal_sync_wait_us", "us"},
	{"persistence.checkpoint_ms", "ms"},
	{"persistence.snapshot_mb", "MB"},
	{"persistence.recover_ms", "ms"},
	{"persistence.recover_mb_per_s", "MB/s"},
	{"scheduler.parallel_speedup", "ratio"},
	{"scheduler.scan_morsels", "count"},
	{"scheduler.join_partitions", "count"},
	{"server.wire_overhead_us", "us"},
	{"server.simple_query_us", "us"},
	{"server.connect_ms", "ms"},
	{"server.rows_per_s", "1/s"},
	{"pipeline.session_overhead_us", "us"},
	{"observe.trace_overhead_pct", "%"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_kb_per_op", "KiB"},
	{"runtime.gc_cpu_pct", "%"},
	{"runtime.gc_pause_total_ms", "ms"},
	{"tpch.generate_s", "s"},
	{"tpcc.generate_s", "s"},
}
