package pipeline

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hyrise/internal/storage"
	"hyrise/internal/tpch"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata/tpch_*.json goldens from this run")

// parallelDecisions is what one TPC-H query chose at every serial-vs-parallel
// gate: the counter deltas plus the summed merge_shards span attribute.
type parallelDecisions struct {
	ScanMorsels int64 `json:"scan_morsels"`
	Partitions  int64 `json:"join_partitions"`
	SortRuns    int64 `json:"sort_runs"`
	MergeShards int64 `json:"merge_shards"`
}

// TestDiffTPCHParallelDecisionParity pins the engine's automatic parallelism
// choices: at default settings on a 4-worker scheduler every TPC-H query must
// fan out exactly as recorded in testdata (captured at the commit before the
// gates were merged into decideParallel; scan_morsels re-recorded when a
// predicate chain became one scan that asks the gate once — a stacked scan
// over a large reference table no longer asks for itself, a chain that only
// checks visibility now asks at all). A changed constant or gate shows up
// here as a per-query diff; after a deliberate change re-record with
// `go test ./internal/pipeline -run TPCHParallelDecisionParity -update-golden`.
func TestDiffTPCHParallelDecisionParity(t *testing.T) {
	e, s := newTPCHParityEngine(t)
	got := make(map[string]parallelDecisions)
	queries := tpch.Queries(tpchParitySF)
	for _, num := range tpch.QueryNumbers() {
		before := [3]int64{
			metric(t, e, "operator.scan.morsels"),
			metric(t, e, "operator.join.partitions"),
			metric(t, e, "operator.sort.runs"),
		}
		ex, err := s.Explain(queries[num])
		if err != nil {
			t.Fatalf("Q%d: %v", num, err)
		}
		d := parallelDecisions{
			ScanMorsels: metric(t, e, "operator.scan.morsels") - before[0],
			Partitions:  metric(t, e, "operator.join.partitions") - before[1],
			SortRuns:    metric(t, e, "operator.sort.runs") - before[2],
		}
		for _, sp := range ex.Trace.OpSpans() {
			d.MergeShards += sp.Attrs["merge_shards"]
		}
		got[fmt.Sprintf("Q%02d", num)] = d
	}

	var want map[string]parallelDecisions
	if !goldenJSON(t, "tpch_parallel_decisions.json", got, &want) {
		return
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d queries, run produced %d", len(want), len(got))
	}
	for q, w := range want {
		if g := got[q]; !reflect.DeepEqual(g, w) {
			t.Errorf("%s: decisions = %+v, want %+v", q, g, w)
		}
	}
}

// scanRungs is how often one table column was answered by each rung of the
// scan ladder but the index rung (no TPC-H table carries an index); a column
// with a non-zero Fallback still reaches the materializing evaluator.
type scanRungs struct {
	Pruned    int64 `json:"pruned"`
	Sorted    int64 `json:"sorted"`
	Encoded   int64 `json:"encoded"`
	Unencoded int64 `json:"unencoded"`
	Fallback  int64 `json:"fallback"`
}

// TestDiffTPCHScanRungParity pins the scan ladder's per-chunk choices: after the
// 22 TPC-H queries every table.column of meta_column_scans must show the rung
// counts recorded in testdata (captured at the commit before index probe
// became a rung; the sorted rung added its key and took region.r_name, the one
// scanned column that is loaded in ascending order). The golden doubles as the list of TPC-H columns that still
// land on the fallback rung (ROADMAP 4c). Re-record with -update-golden.
func TestDiffTPCHScanRungParity(t *testing.T) {
	_, s := newTPCHParityEngine(t)
	queries := tpch.Queries(tpchParitySF)
	for _, num := range tpch.QueryNumbers() {
		if _, err := s.ExecuteOne(queries[num]); err != nil {
			t.Fatalf("Q%d: %v", num, err)
		}
	}
	res, err := s.ExecuteOne("SELECT table_name, column_name, pruned, sorted, encoded, unencoded, fallback FROM meta_column_scans")
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]scanRungs)
	for _, r := range ValueRows(res.Table) {
		got[r[0].S+"."+r[1].S] = scanRungs{Pruned: r[2].AsInt(), Sorted: r[3].AsInt(), Encoded: r[4].AsInt(), Unencoded: r[5].AsInt(), Fallback: r[6].AsInt()}
	}
	var want map[string]scanRungs
	if !goldenJSON(t, "tpch_scan_rungs.json", got, &want) {
		return
	}
	for col, w := range want {
		if g := got[col]; g != w {
			t.Errorf("%s: rungs = %+v, want %+v", col, g, w)
		}
	}
	for col, g := range got {
		if _, ok := want[col]; !ok {
			t.Errorf("%s: rungs = %+v, not in golden", col, g)
		}
	}
}

const tpchParitySF = 0.01

// newTPCHParityEngine is the dataset both parity goldens were recorded on:
// SF 0.01, 10000-row chunks, default encodings with bins, a 4-worker
// scheduler, everything else at defaults.
func newTPCHParityEngine(t *testing.T) (*Engine, *Session) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.UseScheduler = true
	cfg.SchedulerWorkers = 4
	sm := storage.NewStorageManager()
	if err := tpch.Generate(sm, tpch.Config{ScaleFactor: tpchParitySF, ChunkSize: 10000, UseMvcc: cfg.UseMvcc, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if err := tpch.EncodeAndFilter(sm, tpch.DefaultEncoding()); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cfg, sm)
	t.Cleanup(e.Close)
	return e, e.NewSession()
}

// goldenJSON loads testdata/<name> into want, or with -update-golden rewrites
// it from got and reports false.
func goldenJSON(t *testing.T, name string, got, want any) bool {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return false
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return true
}
