package observe

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters only go up
	if got := c.Value(); got != 42 {
		t.Fatalf("Value() = %d, want 42", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("Value() = %d, want 8000", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("Value() = %d, want 7", got)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 100, 1000, -5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("Count() = %d, want 6", got)
	}
	if got := h.Sum(); got != 1106 { // -5 clamps to 0
		t.Fatalf("Sum() = %d, want 1106", got)
	}
	if got := h.Max(); got != 1000 {
		t.Fatalf("Max() = %d, want 1000", got)
	}
	// Geometric bucket midpoints: rank 3 lands in [2,4) -> round(2*sqrt2)=3;
	// rank 6 lands in [512,1024) -> round(512*sqrt2)=724.
	if got := h.Quantile(0.5); got != 3 {
		t.Fatalf("Quantile(0.5) = %d, want 3", got)
	}
	if got := h.Quantile(0.99); got != 724 {
		t.Fatalf("Quantile(0.99) = %d, want 724", got)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("Quantile on empty histogram = %d, want 0", got)
	}
}

func TestRegistrySameHandle(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("Counter should return the same handle per name")
	}
	if r.Gauge("y") != r.Gauge("y") {
		t.Fatal("Gauge should return the same handle per name")
	}
	if r.Histogram("z") != r.Histogram("z") {
		t.Fatal("Histogram should return the same handle per name")
	}
}

func TestRegistryGet(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(5)
	r.Gauge("g").Set(-2)
	r.RegisterFunc("f", func() int64 { return 99 })
	for name, want := range map[string]int64{"c": 5, "g": -2, "f": 99} {
		got, ok := r.Get(name)
		if !ok || got != want {
			t.Fatalf("Get(%q) = %d, %v; want %d, true", name, got, ok, want)
		}
	}
	if _, ok := r.Get("missing"); ok {
		t.Fatal("Get on unknown name should report false")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("queries").Add(3)
	r.Gauge("depth").Set(2)
	r.Histogram("lat").Observe(100)
	r.RegisterFunc("pulled", func() int64 { return 7 })
	snap := r.Snapshot()
	byName := map[string]Metric{}
	for i, m := range snap {
		if i > 0 && snap[i-1].Name > m.Name {
			t.Fatalf("snapshot not sorted: %q after %q", m.Name, snap[i-1].Name)
		}
		byName[m.Name] = m
	}
	if m := byName["queries"]; m.Kind != "counter" || m.Value != 3 {
		t.Fatalf("queries = %+v", m)
	}
	if m := byName["pulled"]; m.Value != 7 {
		t.Fatalf("pulled = %+v", m)
	}
	for _, suffix := range []string{"_count", "_sum", "_max", "_p50", "_p95", "_p99"} {
		if _, ok := byName["lat"+suffix]; !ok {
			t.Fatalf("histogram row lat%s missing from snapshot", suffix)
		}
	}
	if byName["lat_count"].Value != 1 || byName["lat_sum"].Value != 100 {
		t.Fatalf("lat_count/lat_sum = %d/%d", byName["lat_count"].Value, byName["lat_sum"].Value)
	}
}

func TestTraceStagesAndOps(t *testing.T) {
	tr := NewTrace("SELECT 1")
	tr.AddStage("parse", 2*time.Microsecond)
	tr.AddStage("execute", 8*time.Microsecond)
	tr.SetTotal(12 * time.Microsecond)

	k1, k2 := new(int), new(int)
	tr.RecordOp(k1, "GetTable(t)", time.Microsecond, 0, 14)
	tr.AddOpPruned(k2, []int{0, 3}, 4) // noted during Run, before the span is recorded
	tr.RecordOp(k2, "TableScan", 3*time.Microsecond, 14, 4)
	tr.RecordOp(k2, "TableScan", 2*time.Microsecond, 10, 3) // subquery re-execution

	stages := tr.Stages()
	if len(stages) != 2 || stages[0].Name != "parse" || stages[1].Name != "execute" {
		t.Fatalf("stages = %+v", stages)
	}
	if got := tr.StageTotal(); got != 10*time.Microsecond {
		t.Fatalf("StageTotal() = %v", got)
	}
	spans := tr.OpSpans()
	if len(spans) != 2 || spans[0].Name != "GetTable(t)" || spans[1].Name != "TableScan" {
		t.Fatalf("OpSpans() = %+v", spans)
	}
	scan := tr.Op(k2)
	if scan.Calls != 2 || scan.Duration != 5*time.Microsecond || scan.RowsIn != 20 || scan.RowsOut != 7 {
		t.Fatalf("accumulated scan span = %+v", scan)
	}
	if scan.ChunksPruned != 2 || tr.Op(k1).ChunksPruned != 0 {
		t.Fatalf("pruned = %d on the scan, %d on its input, want 2 and 0", scan.ChunksPruned, tr.Op(k1).ChunksPruned)
	}
	if tr.Op(new(int)) != nil {
		t.Fatal("Op on unknown key should be nil")
	}
}

func TestTraceClampsZeroDurations(t *testing.T) {
	tr := NewTrace("q")
	k := new(int)
	tr.RecordOp(k, "op", 0, 0, 0)
	if d := tr.Op(k).Duration; d <= 0 {
		t.Fatalf("duration = %v, want > 0", d)
	}
}

func TestDebugServer(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(11)
	d, err := StartDebugServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics.json", d.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var m map[string]int64
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics.json response not JSON: %v\n%s", err, body)
	}
	if m["hits"] != 11 {
		t.Fatalf("hits = %d, want 11", m["hits"])
	}

	resp, err = http.Get(fmt.Sprintf("http://%s/metrics", d.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	om, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics") {
		t.Fatalf("/metrics content type = %q, want openmetrics", ct)
	}
	if !strings.Contains(string(om), "hyrise_hits_total 11") {
		t.Fatalf("/metrics missing counter sample:\n%s", om)
	}
	if err := LintOpenMetrics(string(om)); err != nil {
		t.Fatalf("/metrics exposition fails lint: %v\n%s", err, om)
	}

	resp, err = http.Get(fmt.Sprintf("http://%s/debug/pprof/", d.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d", resp.StatusCode)
	}
}
