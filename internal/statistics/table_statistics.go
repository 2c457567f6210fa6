package statistics

import (
	"math"
	"slices"
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

// TableStatistics summarizes a table. The cache's statistics are built
// lazily, a column the first time it is asked for, and kept current by Cache;
// a column, once built, is never modified.
type TableStatistics struct {
	RowCount float64

	mu      sync.Mutex
	columns []*ColumnStatistics // nil: not built yet, by cache
	cache   *Cache
	table   *storage.Table
	mark    mark // the statistics cover the rows of table below it
	built   int  // the rows the cache's entry started from
}

// Column returns the statistics of column col, building them over the rows
// the statistics cover if they are missing; nil for a column the table does
// not have. Planners asking for one entry's columns build them in turn.
func (ts *TableStatistics) Column(col types.ColumnID) *ColumnStatistics {
	if int(col) >= len(ts.columns) {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.columns[col] == nil {
		c, start := ts.cache, time.Now()
		parts, _, _ := rowsSince(ts.table, mark{})
		parts = parts[:min(len(parts), ts.mark.chunk+1)]
		if n := len(parts); n > 0 {
			parts[n-1].hi = min(parts[n-1].hi, ts.mark.offset)
		}
		ts.columns[col] = buildColumn(ts.table.ColumnDefinitions()[col].Type, parts, int(col), ts.RowCount, c.kind)
		c.fullBuilds.Inc()
		c.summarized.Add(summarized(parts, int(col)))
		c.maintainNS.Observe(time.Since(start).Nanoseconds())
	}
	return ts.columns[col]
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

// summarized counts the parts whose column col is read without a pass over
// its rows: whole dictionary and run-length segments, whose summaries come off
// the dictionary or the runs. Frame-of-reference is decoded and grouped.
func summarized(parts []chunkRows, col int) (n int64) {
	for _, p := range parts {
		spec, _ := encoding.SpecOf(p.segs[col])
		if p.lo == 0 && p.hi > 0 && (spec.Encoding == encoding.Dictionary || spec.Encoding == encoding.RunLength) {
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

// BuildTableStatistics scans a data table and builds statistics for every
// column using the given histogram type.
func BuildTableStatistics(t *storage.Table, kind HistogramType) *TableStatistics {
	parts, _, rows := rowsSince(t, mark{})
	return buildStatistics(t.ColumnDefinitions(), parts, rows, kind)
}

func buildStatistics(defs []storage.ColumnDefinition, parts []chunkRows, rows int, kind HistogramType) *TableStatistics {
	ts := &TableStatistics{RowCount: float64(rows), columns: make([]*ColumnStatistics, len(defs))}
	for col, def := range defs {
		ts.columns[col] = buildColumn(def.Type, parts, col, ts.RowCount, kind)
	}
	return ts
}

// buildColumn builds the statistics of column col over the rows of parts.
func buildColumn(dt types.DataType, parts []chunkRows, col int, rows float64, kind HistogramType) *ColumnStatistics {
	switch dt {
	case types.TypeInt64:
		return columnOf[int64](parts, col, rows, kind)
	case types.TypeFloat64:
		return columnOf[float64](parts, col, rows, kind)
	}
	return columnOf[string](parts, col, rows, kind)
}

// columnOf merges the parts' summaries into the histogram's bins: the work is
// per distinct value of a chunk, not per row. Strings are counted as
// themselves, other values as the estimation domain sees them.
func columnOf[T types.Ordered](parts []chunkRows, col int, rows float64, kind HistogramType) *ColumnStatistics {
	sums, nulls, nans := summaries[T](parts, col)
	hist, distinct, domain := mergedHistogram(kind, sums, DefaultHistogramBins)
	if _, ok := any(sums).([]encoding.Summary[string]); !ok {
		distinct = domain
	}
	cs := &ColumnStatistics{
		Type:          types.Native[T](),
		RowCount:      rows,
		NullCount:     float64(nulls),
		DistinctCount: float64(distinct + min(nans, 1)), // NaN is one value, in no bin
		Hist:          hist,
	}
	cs.Min, cs.Max = hist.bounds()
	return cs
}

// fold returns a copy of ts that also covers the appended rows in parts,
// added part by part, each part's distinct values in ascending order, to every
// built column; a missing column stays missing. Row, NULL and bin row counts,
// Min and Max come out as a fresh build's would; distinct counts grow only for
// values outside every bin, so a new value inside an existing bin is not seen
// as new until the next full build.
func (ts *TableStatistics) fold(parts []chunkRows, rows int) *TableStatistics {
	out := &TableStatistics{RowCount: ts.RowCount + float64(rows), built: ts.built}
	ts.mu.Lock()
	out.columns = slices.Clone(ts.columns)
	ts.mu.Unlock()
	for col, old := range out.columns {
		if old == nil {
			continue
		}
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
		out.columns[col] = &cs
	}
	return out
}

func foldColumn[T types.Ordered](cs *ColumnStatistics, parts []chunkRows, col int) {
	sums, nulls, _ := summaries[T](parts, col)
	cs.NullCount += float64(nulls)
	for _, sum := range sums {
		domain := make([]float64, len(sum.Values))
		domainOf(sum.Values, domain)
		for i, v := range domain {
			if cs.Hist.add(v, sum.Counts[i]) {
				cs.DistinctCount++
			}
		}
	}
}

// EstimateEquals estimates the selectivity (0..1) of column = v.
func (ts *TableStatistics) EstimateEquals(col types.ColumnID, v types.Value) float64 {
	cs := ts.Column(col)
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
	cs := ts.Column(col)
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
	cs := ts.Column(col)
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
// A column no plan asks for is never read.
type Cache struct {
	mu      sync.Mutex
	entries map[*storage.Table]*TableStatistics
	kind    HistogramType

	fullBuilds *observe.Counter
	foldedRows *observe.Counter
	summarized *observe.Counter
	maintainNS *observe.Histogram
}

// NewCache creates a statistics cache using the given histogram type.
func NewCache(kind HistogramType) *Cache {
	return &Cache{
		entries:    make(map[*storage.Table]*TableStatistics),
		kind:       kind,
		fullBuilds: &observe.Counter{},
		foldedRows: &observe.Counter{},
		summarized: &observe.Counter{},
		maintainNS: &observe.Histogram{},
	}
}

// cacheKey is the slot of a catalog's statistics cache for one histogram kind
// (StorageManager.Shared).
type cacheKey struct{ kind HistogramType }

// CacheFor returns the catalog's statistics cache for the histogram kind,
// making it on first use: the engines over one catalog share it, so a column
// is built once, whichever of them plans with it first.
func CacheFor(sm *storage.StorageManager, kind HistogramType) *Cache {
	return sm.Shared(cacheKey{kind}, func() any { return NewCache(kind) }).(*Cache)
}

// Instrument publishes the cache's maintenance work in r: columns built, rows
// folded, the chunks of a column either read off their encoding instead of
// row by row, and the time of each column build or fold. A cache shared by
// several engines shows the same counts in each of their registries.
func (c *Cache) Instrument(r *observe.Registry) {
	r.PublishCounter("statistics.full_builds", c.fullBuilds)
	r.PublishCounter("statistics.folded_rows", c.foldedRows)
	r.PublishCounter("statistics.summarized_chunks", c.summarized)
	r.PublishHistogram("statistics.maintain_ns", c.maintainNS)
}

// Get returns the statistics of a table, whose columns are built on first use.
func (c *Cache) Get(t *storage.Table) *TableStatistics { return c.lookup(t, true) }

// Peek is Get for a caller that must not make a table's entry (the executor's
// cost gates): it returns nil for a table that has none. For a table that has
// one it is Get — the entry is kept current, and a column is built once, the
// first time any caller asks for it.
func (c *Cache) Peek(t *storage.Table) *TableStatistics { return c.lookup(t, false) }

// lookup holds the cache's one staleness rule. Rows written since the entry
// was stored are ignored while they are fewer than one histogram bin's share
// of the rows it covers, then folded into its built columns; once the rows
// folded outnumber the rows the entry started from, the entry starts afresh
// with no column built — so a column is fully scanned O(log rows) times and
// each appended row is read O(1) times per column. The work runs outside the
// cache lock, so one table's maintenance never stalls a lookup of another;
// sessions racing on the same table each do it and the last store wins —
// every entry is consistent in itself.
func (c *Cache) lookup(t *storage.Table, build bool) *TableStatistics {
	c.mu.Lock()
	ts, ok := c.entries[t]
	c.mu.Unlock()
	if !ok && !build {
		return nil
	}
	rows := t.RowCount()
	if ok {
		covered := int(ts.RowCount)
		if unfolded := rows - covered; unfolded == 0 || unfolded*DefaultHistogramBins < covered {
			return ts
		}
	}
	if !ok || rows-ts.built > ts.built {
		_, to, n := rowsSince(t, mark{})
		ts = &TableStatistics{RowCount: float64(n), columns: make([]*ColumnStatistics, len(t.ColumnDefinitions())), mark: to, built: n}
	} else {
		start := time.Now()
		parts, to, n := rowsSince(t, ts.mark)
		ts = ts.fold(parts, n)
		ts.mark = to
		for col, cs := range ts.columns {
			if cs != nil {
				c.summarized.Add(summarized(parts, col))
			}
		}
		c.foldedRows.Add(int64(n))
		c.maintainNS.Observe(time.Since(start).Nanoseconds())
	}
	ts.cache, ts.table = c, t
	c.mu.Lock()
	c.entries[t] = ts
	c.mu.Unlock()
	return ts
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
