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

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/tpch_parallel_decisions.json from this run")

// parallelDecisions is what one TPC-H query chose at every serial-vs-parallel
// gate: the counter deltas plus the summed merge_shards span attribute.
type parallelDecisions struct {
	ScanMorsels int64 `json:"scan_morsels"`
	Partitions  int64 `json:"join_partitions"`
	SortRuns    int64 `json:"sort_runs"`
	MergeShards int64 `json:"merge_shards"`
}

// TestTPCHParallelDecisionParity pins the engine's automatic parallelism
// choices: at default settings on a 4-worker scheduler every TPC-H query must
// fan out exactly as recorded in testdata (captured at the commit before the
// gates were merged into decideParallel). A changed constant or gate shows up
// here as a per-query diff; after a deliberate change re-record with
// `go test ./internal/pipeline -run TPCHParallelDecisionParity -update-golden`.
func TestTPCHParallelDecisionParity(t *testing.T) {
	const sf = 0.01
	cfg := DefaultConfig()
	cfg.UseScheduler = true
	cfg.SchedulerWorkers = 4
	sm := storage.NewStorageManager()
	if err := tpch.Generate(sm, tpch.Config{ScaleFactor: sf, ChunkSize: 10000, UseMvcc: cfg.UseMvcc, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if err := tpch.EncodeAndFilter(sm, tpch.DefaultEncoding()); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cfg, sm)
	t.Cleanup(e.Close)
	s := e.NewSession()

	got := make(map[string]parallelDecisions)
	queries := tpch.Queries(sf)
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

	path := filepath.Join("testdata", "tpch_parallel_decisions.json")
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]parallelDecisions
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
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
