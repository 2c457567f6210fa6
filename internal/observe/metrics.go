// Package observe is Hyrise's observability layer: a process-wide metrics
// registry of lock-free counters, gauges, and histograms, per-execution
// query traces with stage and operator spans, and an optional debug HTTP
// endpoint. The paper's core pitch (§2.6, §2.10) is that every intermediary
// artifact of query execution is inspectable for research; this package
// extends that from static plan text to runtime behavior. Telemetry is
// additionally exposed through SQL via the meta_* virtual tables registered
// by the pipeline engine.
package observe

import (
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic value that can go up and down (queue depths, active
// connections).
type Gauge struct {
	v atomic.Int64
}

// Set stores an absolute value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add applies a delta.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of power-of-two histogram buckets. Bucket i
// holds values v with bits.Len64(v) == i, i.e. [2^(i-1), 2^i); bucket 0
// holds zeros. 48 buckets cover every int64 magnitude a duration or row
// count can realistically take.
const histBuckets = 48

// Histogram records a distribution in power-of-two buckets with atomic
// counts — lock-free on the write path.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value (negative values clamp to zero).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observed value.
func (h *Histogram) Max() int64 { return h.max.Load() }

// Quantile approximates the q-quantile (0 < q <= 1) as the geometric
// midpoint of the power-of-two bucket containing the target rank, clamped so
// it never exceeds the observed maximum. The midpoint sqrt(lo*hi) bounds the
// relative error by sqrt(2) in either direction, where the bucket's upper
// edge over-reported by up to 2x (a p50 of all-equal values landed at the
// edge, not the value).
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	var seen int64
	for b := 0; b < histBuckets; b++ {
		seen += h.buckets[b].Load()
		if seen >= target {
			if b == 0 {
				return 0
			}
			// Bucket b covers [2^(b-1), 2^b); its geometric midpoint is
			// 2^(b-1) * sqrt(2).
			lo := int64(1) << uint(b-1)
			mid := int64(math.Round(float64(lo) * math.Sqrt2))
			if m := h.max.Load(); mid > m {
				return m
			}
			return mid
		}
	}
	return h.max.Load()
}

// bucketUpperEdge is the inclusive upper bound of bucket b: the largest
// value v with bits.Len64(v) == b (0 for the zero bucket). The Prometheus
// exporter uses it as the cumulative "le" boundary.
func bucketUpperEdge(b int) int64 {
	if b <= 0 {
		return 0
	}
	return (int64(1) << uint(b)) - 1
}

// BucketCounts returns the per-bucket observation counts (index i holds
// values v with bits.Len64(v) == i; index 0 holds zeros).
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, histBuckets)
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Metric is one row of a registry snapshot.
type Metric struct {
	Name  string
	Kind  string // "counter", "gauge", or "histogram"
	Value int64
}

// Registry is a process-wide collection of named metrics. Registration
// takes a lock; the returned Counter/Gauge/Histogram handles are then
// updated lock-free, so hot paths resolve their metrics once and hold the
// pointer. Func metrics pull values from existing instrumented components
// (plan cache, scheduler, transaction manager) at snapshot time.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	funcs      map[string]func() int64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		funcs:      make(map[string]func() int64),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// PublishCounter and PublishHistogram install a handle a component keeps
// under name, replacing what the name held: a component shared by several
// registries (the statistics cache of the engines over one catalog) shows its
// one counter in each.
func (r *Registry) PublishCounter(name string, c *Counter) {
	r.mu.Lock()
	r.counters[name] = c
	r.mu.Unlock()
}

func (r *Registry) PublishHistogram(name string, h *Histogram) {
	r.mu.Lock()
	r.histograms[name] = h
	r.mu.Unlock()
}

// RegisterFunc registers a pull-style gauge whose value is computed at
// snapshot time. Re-registering a name replaces the function.
func (r *Registry) RegisterFunc(name string, fn func() int64) {
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// Get looks a single value up by name (counters, gauges, and funcs; for
// histograms use the expanded snapshot names, e.g. "query_duration_us_p95").
// Bare histogram names do not resolve — a histogram has no single value.
func (r *Registry) Get(name string) (int64, bool) {
	r.mu.RLock()
	c, cok := r.counters[name]
	g, gok := r.gauges[name]
	fn, fok := r.funcs[name]
	r.mu.RUnlock()
	switch {
	case cok:
		return c.Value(), true
	case gok:
		return g.Value(), true
	case fok:
		return fn(), true
	}
	// Expanded histogram names: strip the last _suffix and look the base up.
	if i := strings.LastIndexByte(name, '_'); i > 0 {
		r.mu.RLock()
		h, hok := r.histograms[name[:i]]
		r.mu.RUnlock()
		if hok {
			switch name[i:] {
			case "_count":
				return h.Count(), true
			case "_sum":
				return h.Sum(), true
			case "_max":
				return h.Max(), true
			case "_p50":
				return h.Quantile(0.50), true
			case "_p95":
				return h.Quantile(0.95), true
			case "_p99":
				return h.Quantile(0.99), true
			}
		}
	}
	return 0, false
}

// Snapshot returns all metrics sorted by name. Histograms expand into
// _count, _sum, _max, _p50, _p95, and _p99 rows.
func (r *Registry) Snapshot() []Metric {
	r.mu.RLock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.funcs)+6*len(r.histograms))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Kind: "counter", Value: c.Value()})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Kind: "gauge", Value: g.Value()})
	}
	for name, h := range r.histograms {
		out = append(out,
			Metric{Name: name + "_count", Kind: "histogram", Value: h.Count()},
			Metric{Name: name + "_sum", Kind: "histogram", Value: h.Sum()},
			Metric{Name: name + "_max", Kind: "histogram", Value: h.Max()},
			Metric{Name: name + "_p50", Kind: "histogram", Value: h.Quantile(0.50)},
			Metric{Name: name + "_p95", Kind: "histogram", Value: h.Quantile(0.95)},
			Metric{Name: name + "_p99", Kind: "histogram", Value: h.Quantile(0.99)},
		)
	}
	funcs := make(map[string]func() int64, len(r.funcs))
	for name, fn := range r.funcs {
		funcs[name] = fn
	}
	r.mu.RUnlock()
	// Func metrics run outside the registry lock: they may read other
	// locked components (plan cache, scheduler queues).
	for name, fn := range funcs {
		out = append(out, Metric{Name: name, Kind: "gauge", Value: fn()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ExecMetrics bundles the pre-resolved counters the operator executor
// updates on every query — held by pointer in the execution context so the
// hot path never touches the registry's maps.
type ExecMetrics struct {
	// RowsScanned counts rows examined by TableScan operators.
	RowsScanned *Counter
	// OperatorsExecuted counts physical operator invocations.
	OperatorsExecuted *Counter
	// JoinPartitions accumulates the probe row ranges of hash joins: the
	// fan-out of a parallel join, 1 for a serial one.
	JoinPartitions *Counter
	// JoinBuildNS / JoinProbeNS accumulate wall nanoseconds spent in the
	// hash join's build (hashing the build side, filling its key table) and
	// probe (all ranges) phases.
	JoinBuildNS *Counter
	JoinProbeNS *Counter
	// AggregateMergeNS accumulates wall nanoseconds spent merging per-chunk
	// partial aggregation maps.
	AggregateMergeNS *Counter
	// ScanSegmentsPruned counts segments skipped entirely because the chunk's
	// zone or a filter proved the predicate matches zero rows.
	ScanSegmentsPruned *Counter
	// ScanSegmentsSorted counts segment scans answered by binary search over
	// a column that ascends through the whole chunk.
	ScanSegmentsSorted *Counter
	// ScanSegmentsIndexProbed counts segment scans answered by a probe of
	// the chunk's secondary index.
	ScanSegmentsIndexProbed *Counter
	// ScanEncodedDictionary / ScanEncodedFOR / ScanEncodedRLE count segment
	// scans answered directly on the encoded representation (value-id
	// comparison, offset-domain block scan, per-run scan respectively).
	ScanEncodedDictionary *Counter
	ScanEncodedFOR        *Counter
	ScanEncodedRLE        *Counter
	// ScanSegmentsUnencoded counts segment scans over plain value segments
	// (typed slice comparison; nothing to decode).
	ScanSegmentsUnencoded *Counter
	// ScanSegmentsDecoded counts segments materialized by the fallback scan
	// path — the decode-then-evaluate route the encoded paths exist to avoid.
	ScanSegmentsDecoded *Counter
	// ScanMorsels accumulates the morsel counts of parallel table scans
	// (serial scans add nothing — the counter measures real fan-out).
	ScanMorsels *Counter
	// ScanParallelNS accumulates wall nanoseconds of morsel-parallel scan
	// phases (elapsed time, not summed per-task CPU work).
	ScanParallelNS *Counter
	// SortRuns accumulates the run counts of parallel sorts (per-run sort +
	// k-way merge; serial sorts add nothing).
	SortRuns *Counter
	// SortParallelNS accumulates wall nanoseconds of parallel sort phases
	// (run sorting plus the merge).
	SortParallelNS *Counter
}

// NewExecMetrics resolves the executor counters from a registry.
func NewExecMetrics(r *Registry) *ExecMetrics {
	return &ExecMetrics{
		RowsScanned:       r.Counter("rows_scanned"),
		OperatorsExecuted: r.Counter("operators_executed"),
		JoinPartitions:    r.Counter("operator.join.partitions"),
		JoinBuildNS:       r.Counter("operator.join.build_ns"),
		JoinProbeNS:       r.Counter("operator.join.probe_ns"),
		AggregateMergeNS:  r.Counter("operator.aggregate.merge_ns"),

		ScanSegmentsPruned:      r.Counter("scan.segments_pruned"),
		ScanSegmentsSorted:      r.Counter("scan.segments_sorted"),
		ScanSegmentsIndexProbed: r.Counter("scan.segments_index_probed"),
		ScanEncodedDictionary:   r.Counter("scan.encoded_dictionary"),
		ScanEncodedFOR:          r.Counter("scan.encoded_for"),
		ScanEncodedRLE:          r.Counter("scan.encoded_rle"),
		ScanSegmentsUnencoded:   r.Counter("scan.segments_unencoded"),
		ScanSegmentsDecoded:     r.Counter("scan.segments_decoded"),

		ScanMorsels:    r.Counter("operator.scan.morsels"),
		ScanParallelNS: r.Counter("scan.parallel_ns"),
		SortRuns:       r.Counter("operator.sort.runs"),
		SortParallelNS: r.Counter("sort.parallel_ns"),
	}
}
