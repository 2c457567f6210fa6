package main

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"hyrise/internal/encoding"
	"hyrise/internal/pipeline"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// processStart is as close to process start as Go code gets; setup_s is
// measured from it.
var processStart = time.Now()

// sizes pins the data sizes and operation counts of every workload. The
// full counts are calibrated once so that each timed section lasts about
// referenceSeconds on the 2-core reference box; --seconds scales them
// linearly. Work is always a seeded operation count, never a deadline.
type sizes struct {
	tpchSF     float64
	tpchChunk  int
	tpchRounds int // round pairs: one serial, one scheduler-on

	kvPreload    int
	kvWarmup     int // operations per connection
	kvOpsPerConn int

	tpccWarehouses      int
	tpccItems           int
	tpccCustomers       int // per district; also the initial orders per district
	tpccWarmup          int // transactions per terminal
	tpccTxns            int // transactions per terminal
	tpccCheckpointEvery int // committed transactions between checkpoints

	htapRows   int
	htapChunk  int
	htapBatch  int
	htapWarmup int
	htapTxns   int

	probeIters int
}

const referenceSeconds = 25

// The driver's cap — 92 runs and two builds in 3420 s — leaves a run about
// 30 s all told, so 25 s of timed work beside a set-up of 3 to 6 s. Inside
// that, every latency metric keeps at least 200 samples, and the data sizes
// give way: TPC-H at SF 0.02 keeps ten round pairs (220 samples per engine)
// with lineitem in 12 chunks and 2 scan morsels; htap_ingest's table is small
// enough for its reader to finish 200 iterations; the warm-up counts make
// every set-up at least 3 s of seeded work.
var fullSizes = sizes{
	tpchSF: 0.02, tpchChunk: 10_000, tpchRounds: 10,
	kvPreload: 200_000, kvWarmup: 5000, kvOpsPerConn: 100_000,
	tpccWarehouses: 2, tpccItems: 10_000, tpccCustomers: 300,
	tpccWarmup: 200, tpccTxns: 950, tpccCheckpointEvery: 200,
	htapRows: 300_000, htapChunk: 25_000, htapBatch: 100, htapWarmup: 200, htapTxns: 1000,
	probeIters: 200,
}

var tinySizes = sizes{
	tpchSF: 0.001, tpchChunk: 500, tpchRounds: 2,
	kvPreload: 2000, kvWarmup: 100, kvOpsPerConn: 500,
	tpccWarehouses: 1, tpccItems: 200, tpccCustomers: 30,
	tpccWarmup: 5, tpccTxns: 40, tpccCheckpointEvery: 30,
	htapRows: 5000, htapChunk: 1000, htapBatch: 100, htapWarmup: 2, htapTxns: 20,
	probeIters: 20,
}

func sizesFor(scale string, seconds int) (sizes, error) {
	switch scale {
	case "tiny":
		return tinySizes, nil
	case "full":
		s := fullSizes
		scaleCount := func(n *int, atLeast int) {
			*n = max(*n*seconds/referenceSeconds, atLeast)
		}
		scaleCount(&s.tpchRounds, 2)
		scaleCount(&s.kvOpsPerConn, 1000)
		scaleCount(&s.tpccTxns, 20)
		scaleCount(&s.htapTxns, 20)
		return s, nil
	}
	return sizes{}, fmt.Errorf("unknown scale %q (full or tiny)", scale)
}

type options struct {
	workload     string
	seed         int64
	seconds      int
	trace        bool
	scale        string
	root         string // checkout root
	scratch      string // directory this run may write to, inside the checkout
	spans        string // span file of the traced pass
	updateGolden bool

	sizes sizes
	procs int
}

// shape names the latency classes the end-to-end metrics are built from.
type shape struct {
	primary []string // op_p50_ms, op_p95_ms: quantiles over all their samples
	alt     []string // alt_p50_ms: the sum of these classes' medians
	geo     []string // geomean_ms: geometric mean of these classes' medians
}

// workload is one closed-loop benchmark workload.
type workload interface {
	// setup generates and loads the data, starts what serves it, and runs
	// the untimed warm-up.
	setup() error
	// engine is the engine whose registry and trace sink the traced pass reads.
	engine() *pipeline.Engine
	// blocks is how many blocks the timed work is split into: the timed pass
	// takes medians over them, the traced pass alternates tracing off and on.
	blocks() int
	shape() shape
	// run executes block `block` of `of` equal shares of the timed work;
	// failures are counted in rec.
	run(block, of int, rec *recorder)
	opsPerSecond(rec *recorder) float64
	// units is the amount of work the per-unit layer metrics divide by: power
	// rounds for tpch_power, thousands of operations elsewhere.
	units(rec *recorder) float64
	// streamHash identifies the inputs the workload generated.
	streamHash() string
	// finish checks the end state; a violated check is a failed operation.
	finish(rec *recorder) error
	// layers adds the workload's own per-layer metrics and direct probes.
	layers(pass *recorder, out map[string]float64) error
	close()
}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "tpch_power":
		return &tpchPower{o: o}, nil
	case "pgwire_point":
		return &pgwirePoint{o: o}, nil
	case "tpcc_durable":
		return &tpccDurable{o: o}, nil
	case "htap_ingest":
		return &htapIngest{o: o}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// outcome is what one run of one workload reports.
type outcome struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples counts the latency samples behind each latency metric.
	Samples    map[string]int `json:"samples,omitempty"`
	StreamHash string         `json:"stream_hash,omitempty"`
	Error      string         `json:"error,omitempty"`
}

// conclude sets Correct and the reported error: checkErr is a failed
// end-state check or probe, opErr the first failed operation.
func (o *outcome) conclude(checkErr, opErr error) {
	o.Correct = o.Failed == 0 && checkErr == nil
	if err := cmp.Or(checkErr, opErr); err != nil {
		o.Error = err.Error()
	}
}

// blocksFor splits total operations into at most 20 blocks of at least
// perBlock operations.
func blocksFor(total, perBlock int) int {
	return max(1, min(20, total/perBlock))
}

// share splits total into `of` near-equal consecutive ranges.
func share(total, block, of int) (lo, hi int) {
	return total * block / of, total * (block + 1) / of
}

// tableBytes sums Table.MemoryUsage over all tables — segment bytes, and the
// MVCC columns plus the other per-chunk metadata — and counts their chunks.
func tableBytes(sm *storage.StorageManager) (data, meta int64, chunks int) {
	for _, name := range sm.TableNames() {
		t, err := sm.GetTable(name)
		if err != nil {
			continue
		}
		d, m := t.MemoryUsage()
		data += d
		meta += m
		chunks += t.ChunkCount()
	}
	return data, meta, chunks
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// runWorkload runs one pass of one workload in this process.
func runWorkload(o options) (*outcome, error) {
	o.procs = min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(o.procs)
	debug.SetGCPercent(100)
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed=%d seconds=%d scale=%s trace=%v GOMAXPROCS=%d GOGC=100 nproc=%d\n",
		o.workload, o.seed, o.seconds, o.scale, o.trace, o.procs, runtime.NumCPU())

	w, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
	}
	runtime.GC()
	setupS := time.Since(processStart).Seconds()
	if o.updateGolden {
		return &outcome{Correct: true, Attempted: 1}, nil
	}
	if o.trace {
		return tracedPass(o, w)
	}

	// The timed section runs the same blocks as the traced pass, so both
	// issue the same statements; every metric is taken over the whole section.
	pass := newRecorder(false)
	nb := w.blocks()
	for b := 0; b < nb; b++ {
		blk := newRecorder(false)
		start := time.Now()
		w.run(b, nb, blk)
		blk.wall = time.Since(start)
		pass.absorb(blk)
	}
	finishErr := w.finish(pass)

	data, meta, _ := tableBytes(w.engine().StorageManager())
	out := &outcome{
		Attempted: pass.attempted,
		Failed:    pass.failed,
		Metrics: map[string]float64{
			"setup_s":     setupS,
			"peak_rss_mb": peakRSSMB(),
			"data_mb":     float64(data+meta) / (1 << 20),
		},
		StreamHash: w.streamHash(),
	}
	out.Samples = timingMetrics(w, pass, out.Metrics)
	out.conclude(finishErr, pass.firstErr)
	fmt.Fprintf(os.Stderr, "bench: %s set-up %.2fs, timed section %.2fs, %d op samples, %d alt samples, %d attempted, %d failed\n",
		o.workload, setupS, pass.wall.Seconds(), out.Samples["op"], out.Samples["alt"], out.Attempted, out.Failed)
	return out, nil
}

// timingMetrics computes the throughput and latency metrics of the timed
// work recorded in rec into m and returns the sample counts behind them.
func timingMetrics(w workload, rec *recorder, m map[string]float64) map[string]int {
	sh := w.shape()
	primary := durationsMS(classSamples(rec, sh.primary))
	m["ops_per_s"] = w.opsPerSecond(rec)
	m["op_p50_ms"] = quantile(primary, 0.50)
	m["op_p95_ms"] = quantile(primary, 0.95)
	m["alt_p50_ms"] = sum(classMedians(rec, sh.alt))
	m["geomean_ms"] = geomean(classMedians(rec, sh.geo))
	return map[string]int{"op": len(primary), "alt": rec.count(sh.alt...)}
}

func classSamples(rec *recorder, classes []string) []time.Duration {
	var out []time.Duration
	for _, c := range classes {
		out = append(out, rec.lat[c]...)
	}
	return out
}

// classMedians returns the median latency, in milliseconds, of every class
// that has samples.
func classMedians(rec *recorder, classes []string) []float64 {
	var out []float64
	for _, c := range classes {
		if len(rec.lat[c]) > 0 {
			out = append(out, ms(medianDuration(rec.lat[c])))
		}
	}
	return out
}

// tracedPass runs the same timed work in blocks, alternating between
// tracing off and on (engine trace sink installed, benchmark-side spans
// recorded), so both halves see the same data growth. The difference in
// throughput is the tracing overhead; the traced half feeds the layer
// breakdown. Direct probes of single layers follow.
func tracedPass(o options, w workload) (*outcome, error) {
	eng := w.engine()
	et := newEngineTrace()
	before, rt0 := counters(eng), snapRuntime()
	pass := newRecorder(false)
	halves := [2]*recorder{newRecorder(false), newRecorder(true)}
	nb := w.blocks()
	for b := 0; b < nb; b++ {
		traced := b%2 == 1
		if traced {
			eng.SetTraceSink(et.sink)
		} else {
			eng.SetTraceSink(nil)
		}
		blk := newRecorder(traced)
		start := time.Now()
		w.run(b, nb, blk)
		blk.wall = time.Since(start)
		pass.absorb(blk)
		halves[b%2].absorb(blk)
	}
	eng.SetTraceSink(nil)
	after, rt1 := counters(eng), snapRuntime()
	finishErr := w.finish(pass)

	ops := float64(pass.attempted)
	units := w.units(pass)
	tracedUnits := w.units(halves[1])
	m := map[string]float64{}
	for _, l := range perLayer {
		m[l.name] = 0
	}

	// Engine statement traces of the traced blocks, per unit of work.
	m["optimizer.optimize_ms"] = ms(et.stage["optimize"]) / tracedUnits
	m["operators.execute_ms"] = ms(et.stage["execute"]) / tracedUnits
	for k := 0; k < numKinds; k++ {
		m["operators."+kindNames[k]+"_ms"] = ms(et.kind[k]) / tracedUnits
	}
	if et.rowsOut > 0 {
		m["operators.rows_in_per_row_out"] = float64(et.rowsIn) / float64(et.rowsOut)
	}
	m["optimizer.chunks_pruned"] = float64(et.chunksPruned) / tracedUnits

	if et.statements > 0 {
		m["cache.plan_hit_ratio"] = float64(et.planReused) / float64(et.statements)
	}

	// Registry counters over the whole pass.
	encodedScans := delta(after, before, "scan.encoded_dictionary") + delta(after, before, "scan.encoded_for") + delta(after, before, "scan.encoded_rle")
	allScans := encodedScans + delta(after, before, "scan.segments_unencoded") + delta(after, before, "scan.segments_decoded")
	if allScans > 0 {
		m["encoding.encoded_scan_share"] = encodedScans / allScans
	}
	m["encoding.segments_pruned"] = delta(after, before, "scan.segments_pruned") / units
	m["encoding.segments_decoded"] = delta(after, before, "scan.segments_decoded") / units
	m["encoding.encoded_aggregates"] = delta(after, before, "scan.encoded_aggregates") / units
	if txns := delta(after, before, "transactions_committed"); txns > 0 && eng.Durable() {
		m["persistence.wal_bytes_per_txn"] = delta(after, before, "wal.bytes") / txns
		m["persistence.wal_syncs_per_txn"] = delta(after, before, "wal.syncs") / txns
		if n := delta(after, before, "wait.wal_sync_ns_count"); n > 0 {
			m["persistence.wal_sync_wait_us"] = delta(after, before, "wait.wal_sync_ns_sum") / n / 1e3
		}
		m["persistence.snapshot_mb"] = float64(after["snapshot.bytes"]) / (1 << 20)
	}

	data, meta, chunks := tableBytes(eng.StorageManager())
	m["storage.data_mb"] = float64(data) / (1 << 20)
	m["storage.mvcc_mb"] = float64(meta) / (1 << 20)
	m["storage.chunks"] = float64(chunks)

	m["runtime.allocs_per_op"] = float64(rt1.mallocs-rt0.mallocs) / ops
	m["runtime.alloc_kb_per_op"] = float64(rt1.totalAlloc-rt0.totalAlloc) / 1024 / ops
	if cpu := rt1.totalCPU - rt0.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_pct"] = 100 * (rt1.gcCPU - rt0.gcCPU) / cpu
	}
	m["runtime.gc_pause_total_ms"] = float64(rt1.pauseNS-rt0.pauseNS) / 1e6

	// The timing metrics come from the untraced blocks alone: half the
	// samples of the timed pass, no tracing overhead.
	samples := timingMetrics(w, halves[0], m)
	off, on := m["ops_per_s"], w.opsPerSecond(halves[1])
	m["observe.trace_overhead_pct"] = 100 * (off - on) / off

	layerErr := w.layers(pass, m)

	// Attribution: how much of the traced primary operations' wall time the
	// calls into the system account for; the rest is the benchmark's own.
	root := o.workload + "." + primaryRoot[o.workload]
	wall, attributed := attribution(pass.spans, root)
	unattributed := 0.0
	if wall > 0 {
		unattributed = 100 * float64(wall-attributed) / float64(wall)
	}
	var stages []string
	for _, name := range slices.Sorted(maps.Keys(et.stage)) {
		stages = append(stages, fmt.Sprintf("%s %.1f", name, ms(et.stage[name])/tracedUnits))
	}
	fmt.Fprintf(os.Stderr, "bench: %s engine-reported stages of the traced statements, ms per unit: %s\n", o.workload, strings.Join(stages, ", "))
	fmt.Fprintf(os.Stderr, "bench: %s traced pass: %d spans, %d engine statement traces; %s wall %.1f ms, %.2f%% unattributed; untraced %.1f ops/s, traced %.1f ops/s\n",
		o.workload, len(pass.spans), et.statements, root, ms(wall), unattributed, off, on)
	if err := writeSpans(o.spans, pass.spans); err != nil {
		return nil, err
	}

	out := &outcome{
		Attempted:  pass.attempted,
		Failed:     pass.failed,
		Metrics:    m,
		Samples:    samples,
		StreamHash: w.streamHash(),
	}
	out.conclude(errors.Join(finishErr, layerErr), pass.firstErr)
	return out, nil
}

// primaryRoot names the request root span of each workload's primary
// operation.
var primaryRoot = map[string]string{
	"tpch_power":   "query",
	"pgwire_point": "select",
	"tpcc_durable": "new_order",
	"htap_ingest":  "ingest",
}

// probeDictScan times ScanEncoded directly on the first chunk's segment of a
// column and returns the median nanoseconds per row.
func probeDictScan(t *storage.Table, col types.ColumnID, p encoding.ScanPredicate, iters int) (float64, error) {
	chunk := t.GetChunk(0)
	seg, ok := chunk.GetSegment(col).(encoding.ScannableSegment)
	if !ok {
		return 0, fmt.Errorf("%s column %d: first chunk is not an encoded segment", t.Name(), col)
	}
	var dst []types.ChunkOffset
	times := make([]time.Duration, 0, iters)
	for i := 0; i < iters; i++ {
		start := time.Now()
		var scanned bool
		dst, _, scanned = seg.ScanEncoded(p, dst[:0])
		times = append(times, time.Since(start))
		if !scanned {
			return 0, fmt.Errorf("%s column %d: predicate not answered on the encoded segment", t.Name(), col)
		}
	}
	return float64(medianDuration(times).Nanoseconds()) / float64(chunk.Size()), nil
}

// probeAppendRow times Table.AppendRow directly, on a scratch table with the
// model's schema, and returns the median nanoseconds per row over batches.
func probeAppendRow(model *storage.Table, iters int) (float64, error) {
	const batch = 1000
	scratch := storage.NewTable("append_probe", model.ColumnDefinitions(), model.TargetChunkSize(), true)
	row := model.RowAsValues(types.RowID{})
	times := make([]time.Duration, 0, iters)
	for i := 0; i < iters; i++ {
		start := time.Now()
		for j := 0; j < batch; j++ {
			if _, err := scratch.AppendRow(row); err != nil {
				return 0, err
			}
		}
		times = append(times, time.Since(start))
	}
	return float64(medianDuration(times).Nanoseconds()) / batch, nil
}
