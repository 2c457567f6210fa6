package statistics

import (
	"math"
	"sync"
	"time"

	"hyrise/internal/encoding"
	"hyrise/internal/observe"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// DefaultHistogramBins is the bin budget for column histograms.
const DefaultHistogramBins = 64

// ColumnStatistics summarizes one column for the cardinality estimator.
type ColumnStatistics struct {
	Type          types.DataType
	RowCount      float64
	NullCount     float64
	DistinctCount float64
	Min, Max      float64 // domain-mapped for strings
	Hist          *Histogram
}

// NullFraction returns the fraction of NULL rows.
func (c *ColumnStatistics) NullFraction() float64 {
	if c.RowCount == 0 {
		return 0
	}
	return c.NullCount / c.RowCount
}

// Empty reports that the column holds no value (no rows, or only NULLs), so
// Min, Max and the histogram describe nothing.
func (c *ColumnStatistics) Empty() bool { return c.NullCount == c.RowCount }

// TableStatistics summarizes a table. Statistics are built lazily by the
// optimizer, cached per table and kept current by Cache. A stored value is
// never modified.
type TableStatistics struct {
	RowCount float64
	Columns  []*ColumnStatistics
}

// ValueToDomain maps a dynamic value into the float64 estimation domain.
func ValueToDomain(v types.Value) (float64, bool) {
	switch v.Type {
	case types.TypeInt64:
		return float64(v.I), true
	case types.TypeFloat64:
		return v.F, true
	case types.TypeString:
		return StringToDomain(v.S), true
	default:
		return 0, false
	}
}

// mark is the high-water mark of the rows a pass has read: every row of the
// chunks below chunk and the first offset rows of chunk. Tables are physically
// append-only (an UPDATE invalidates and appends) and only the last chunk of
// a table grows, so the rows past a mark are exactly the rows written since.
type mark struct{ chunk, offset int }

// chunkRows is one chunk's segments and the rows [lo, hi) of it a pass reads.
type chunkRows struct {
	segs   []storage.Segment
	lo, hi int
}

// rowsSince snapshots the rows of t past from. Each chunk's segments come
// with their row count from one SnapshotSegments call, so the rows a pass
// counts and the mark it stores agree while appenders run.
func rowsSince(t *storage.Table, from mark) (parts []chunkRows, to mark, rows int) {
	to = from
	chunks := t.Chunks()
	for i := from.chunk; i < len(chunks); i++ {
		segs, size := chunks[i].SnapshotSegments()
		lo := 0
		if i == from.chunk {
			lo = from.offset
		}
		parts = append(parts, chunkRows{segs: segs, lo: lo, hi: size})
		to = mark{chunk: i, offset: size}
		rows += size - lo
	}
	return parts, to, rows
}

// summarized counts the parts that are read without a pass over their rows:
// whole chunks of dictionary and run-length segments, whose summaries come off
// the dictionary or the runs. Frame-of-reference is decoded and grouped.
func summarized(parts []chunkRows) (n int64) {
	for _, p := range parts {
		encoded := p.lo == 0 && p.hi > 0
		for _, seg := range p.segs {
			spec, _ := encoding.SpecOf(seg)
			encoded = encoded && (spec.Encoding == encoding.Dictionary || spec.Encoding == encoding.RunLength)
		}
		if encoded {
			n++
		}
	}
	return n
}

// summaries returns the summary of column col of every part that has rows,
// with the NaN value split off: its rows are returned beside the NULLs.
func summaries[T types.Ordered](parts []chunkRows, col int) (sums []encoding.Summary[T], nulls, nans int) {
	for _, p := range parts {
		if p.lo == p.hi {
			continue
		}
		sum, nan := encoding.SummarizeRows[T](p.segs[col], p.lo, p.hi).SplitNaN()
		sums, nulls, nans = append(sums, sum), nulls+sum.Nulls, nans+nan
	}
	return sums, nulls, nans
}

// toDomain embeds a summary in the float64 estimation domain (ValueToDomain
// for every value): ints beyond 2^53 and strings that share their first seven
// bytes become one value there.
func toDomain[T types.Ordered](sum encoding.Summary[T]) encoding.Summary[float64] {
	switch s := any(sum).(type) {
	case encoding.Summary[int64]:
		return encoding.Project(s, func(v int64) float64 { return float64(v) })
	case encoding.Summary[string]:
		return encoding.Project(s, StringToDomain)
	default:
		return s.(encoding.Summary[float64])
	}
}

// BuildTableStatistics scans a data table and builds statistics for every
// column using the given histogram type.
func BuildTableStatistics(t *storage.Table, kind HistogramType) *TableStatistics {
	parts, _, rows := rowsSince(t, mark{})
	return buildStatistics(t.ColumnDefinitions(), parts, rows, kind)
}

func buildStatistics(defs []storage.ColumnDefinition, parts []chunkRows, rows int, kind HistogramType) *TableStatistics {
	ts := &TableStatistics{
		RowCount: float64(rows),
		Columns:  make([]*ColumnStatistics, len(defs)),
	}
	for col, def := range defs {
		var cs *ColumnStatistics
		switch def.Type {
		case types.TypeInt64:
			cs = buildColumn[int64](parts, col, kind)
		case types.TypeFloat64:
			cs = buildColumn[float64](parts, col, kind)
		case types.TypeString:
			cs = buildColumn[string](parts, col, kind)
		}
		cs.Type, cs.RowCount = def.Type, ts.RowCount
		cs.Min, cs.Max = cs.Hist.bounds()
		ts.Columns[col] = cs
	}
	return ts
}

// buildColumn merges the parts' summaries into the column's distinct values
// and lays the histogram over them: the work is per distinct value of a
// chunk, not per row.
func buildColumn[T types.Ordered](parts []chunkRows, col int, kind HistogramType) *ColumnStatistics {
	sums, nulls, nans := summaries[T](parts, col)
	all := encoding.Merge(sums)
	domain := toDomain(all)
	distinct := len(domain.Values)
	if _, ok := any(all).(encoding.Summary[string]); ok {
		// The domain collapses long shared prefixes; strings are counted
		// as themselves.
		distinct = len(all.Values)
	}
	return &ColumnStatistics{
		NullCount:     float64(nulls),
		DistinctCount: float64(distinct + min(nans, 1)), // NaN is one value, in no bin
		Hist:          BuildHistogram(kind, domain.Values, domain.Counts, DefaultHistogramBins),
	}
}

// fold returns a copy of ts that also covers the appended rows in parts,
// added part by part, each part's distinct values in ascending order. Row,
// NULL and bin row counts, Min and Max come out as a fresh build's would;
// distinct counts grow only for values outside every bin, so a new value
// inside an existing bin is not seen as new until the next full build.
func (ts *TableStatistics) fold(parts []chunkRows, rows int) *TableStatistics {
	out := &TableStatistics{
		RowCount: ts.RowCount + float64(rows),
		Columns:  make([]*ColumnStatistics, len(ts.Columns)),
	}
	for col, old := range ts.Columns {
		cs := *old
		cs.Hist = old.Hist.clone()
		switch cs.Type {
		case types.TypeInt64:
			foldColumn[int64](&cs, parts, col)
		case types.TypeFloat64:
			foldColumn[float64](&cs, parts, col)
		case types.TypeString:
			foldColumn[string](&cs, parts, col)
		}
		cs.RowCount = out.RowCount
		cs.Min, cs.Max = cs.Hist.bounds()
		out.Columns[col] = &cs
	}
	return out
}

func foldColumn[T types.Ordered](cs *ColumnStatistics, parts []chunkRows, col int) {
	sums, nulls, _ := summaries[T](parts, col)
	cs.NullCount += float64(nulls)
	for _, sum := range sums {
		domain := toDomain(sum)
		for i, v := range domain.Values {
			if cs.Hist.add(v, domain.Counts[i]) {
				cs.DistinctCount++
			}
		}
	}
}

// EstimateEquals estimates the selectivity (0..1) of column = v.
func (ts *TableStatistics) EstimateEquals(col types.ColumnID, v types.Value) float64 {
	cs := ts.Columns[col]
	if ts.RowCount == 0 || cs == nil {
		return 0
	}
	d, ok := ValueToDomain(v)
	if !ok {
		return 0 // NULL never matches equality
	}
	return clampSel(cs.Hist.EstimateEquals(d) / ts.RowCount)
}

// EstimateRange estimates the selectivity of lo <= column <= hi (nil = open).
func (ts *TableStatistics) EstimateRange(col types.ColumnID, lo, hi *types.Value) float64 {
	cs := ts.Columns[col]
	if ts.RowCount == 0 || cs == nil {
		return 0
	}
	loF, hiF := math.Inf(-1), math.Inf(1)
	if lo != nil {
		d, ok := ValueToDomain(*lo)
		if !ok {
			return 0
		}
		loF = d
	}
	if hi != nil {
		d, ok := ValueToDomain(*hi)
		if !ok {
			return 0
		}
		hiF = d
	}
	return clampSel(cs.Hist.EstimateRange(loF, hiF) / ts.RowCount)
}

// EstimateNotEquals estimates the selectivity of column <> v.
func (ts *TableStatistics) EstimateNotEquals(col types.ColumnID, v types.Value) float64 {
	cs := ts.Columns[col]
	if cs == nil || ts.RowCount == 0 {
		return 1
	}
	return clampSel(1 - ts.EstimateEquals(col, v) - cs.NullFraction())
}

func clampSel(s float64) float64 {
	if s < 0 || math.IsNaN(s) {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// Cache keeps the TableStatistics of every planned table current without
// rescanning it: an entry remembers the mark of the rows it covers, and a
// lookup after writes folds only the rows past the mark into a copy of it.
type Cache struct {
	mu      sync.Mutex
	entries map[*storage.Table]cacheEntry
	kind    HistogramType

	fullBuilds *observe.Counter
	foldedRows *observe.Counter
	summarized *observe.Counter
	maintainNS *observe.Histogram
}

// cacheEntry is immutable once stored; maintenance stores a new one.
type cacheEntry struct {
	stats *TableStatistics
	mark  mark // stats cover exactly the rows below it (stats.RowCount of them)
	built int  // rows the histograms' bins were laid out from
}

// NewCache creates a statistics cache using the given histogram type.
func NewCache(kind HistogramType) *Cache {
	return &Cache{
		entries:    make(map[*storage.Table]cacheEntry),
		kind:       kind,
		fullBuilds: &observe.Counter{},
		foldedRows: &observe.Counter{},
		summarized: &observe.Counter{},
		maintainNS: &observe.Histogram{},
	}
}

// Instrument publishes the cache's maintenance work in r: full builds, rows
// folded, the chunks of either that were read off their encoding instead of
// row by row, and the time of each build or fold. Call it before the first
// lookup.
func (c *Cache) Instrument(r *observe.Registry) {
	c.fullBuilds = r.Counter("statistics.full_builds")
	c.foldedRows = r.Counter("statistics.folded_rows")
	c.summarized = r.Counter("statistics.summarized_chunks")
	c.maintainNS = r.Histogram("statistics.maintain_ns")
}

// Get returns the statistics of a table, building them on first use.
func (c *Cache) Get(t *storage.Table) *TableStatistics { return c.lookup(t, true) }

// Peek is Get for a caller that must not pay a table's first build (the
// executor's cost gates): it returns nil for a table never planned.
func (c *Cache) Peek(t *storage.Table) *TableStatistics { return c.lookup(t, false) }

// lookup holds the cache's one staleness rule. Rows written since the entry
// was stored are ignored while they are fewer than one histogram bin's share
// of the rows it covers, then folded in; once the rows folded outnumber the
// rows the bins were laid out from, the table is rebuilt — so a table is
// fully scanned O(log rows) times and each appended row is read O(1) times.
// The work runs outside the cache lock, so one table's maintenance never
// stalls a lookup of another; sessions racing on the same table each do it
// and the last store wins — every entry is consistent in itself.
func (c *Cache) lookup(t *storage.Table, build bool) *TableStatistics {
	c.mu.Lock()
	e, ok := c.entries[t]
	c.mu.Unlock()
	if !ok && !build {
		return nil
	}
	rows := t.RowCount()
	if ok {
		covered := int(e.stats.RowCount)
		if unfolded := rows - covered; unfolded == 0 || unfolded*DefaultHistogramBins < covered {
			return e.stats
		}
	}
	start := time.Now()
	if !ok || rows-e.built > e.built {
		parts, to, n := rowsSince(t, mark{})
		e = cacheEntry{stats: buildStatistics(t.ColumnDefinitions(), parts, n, c.kind), mark: to, built: n}
		c.fullBuilds.Inc()
		c.summarized.Add(summarized(parts))
	} else {
		parts, to, n := rowsSince(t, e.mark)
		e = cacheEntry{stats: e.stats.fold(parts, n), mark: to, built: e.built}
		c.foldedRows.Add(int64(n))
		c.summarized.Add(summarized(parts))
	}
	c.maintainNS.Observe(time.Since(start).Nanoseconds())
	c.mu.Lock()
	c.entries[t] = e
	c.mu.Unlock()
	return e.stats
}

// Retain drops the statistics of every table not in live. Entries are keyed
// by table pointer and pin the table, its chunks and its histograms, so
// whoever removes tables from the catalog must call this.
func (c *Cache) Retain(live []*storage.Table) {
	keep := make(map[*storage.Table]bool, len(live))
	for _, t := range live {
		keep[t] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for t := range c.entries {
		if !keep[t] {
			delete(c.entries, t)
		}
	}
}
