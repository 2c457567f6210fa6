package statistics

import (
	"math"
	"sync"

	"hyrise/internal/encoding"
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

// TableStatistics summarizes a table. Statistics are built lazily by the
// optimizer and cached per table (invalidation on row-count change).
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

// BuildTableStatistics scans a data table and builds statistics for every
// column using the given histogram type.
func BuildTableStatistics(t *storage.Table, kind HistogramType) *TableStatistics {
	defs := t.ColumnDefinitions()
	ts := &TableStatistics{
		RowCount: float64(t.RowCount()),
		Columns:  make([]*ColumnStatistics, len(defs)),
	}
	chunks := t.Chunks()
	for col := range defs {
		counts := make(map[float64]int)
		nullCount := 0
		// The float domain embedding truncates strings to eight bytes, which
		// collapses long shared prefixes; distinct counts for strings are
		// therefore tracked on the exact values.
		var strDistinct map[string]struct{}
		if defs[col].Type == types.TypeString {
			strDistinct = make(map[string]struct{})
		}
		for _, c := range chunks {
			seg := c.GetSegment(types.ColumnID(col))
			switch defs[col].Type {
			case types.TypeInt64:
				vals, nulls := encoding.Materialize[int64](seg)
				for i, v := range vals {
					if nulls != nil && nulls[i] {
						nullCount++
						continue
					}
					counts[float64(v)]++
				}
			case types.TypeFloat64:
				vals, nulls := encoding.Materialize[float64](seg)
				for i, v := range vals {
					if nulls != nil && nulls[i] {
						nullCount++
						continue
					}
					counts[v]++
				}
			case types.TypeString:
				vals, nulls := encoding.Materialize[string](seg)
				for i, v := range vals {
					if nulls != nil && nulls[i] {
						nullCount++
						continue
					}
					counts[StringToDomain(v)]++
					strDistinct[v] = struct{}{}
				}
			}
		}
		distinct := float64(len(counts))
		if strDistinct != nil {
			distinct = float64(len(strDistinct))
		}
		cs := &ColumnStatistics{
			Type:          defs[col].Type,
			RowCount:      ts.RowCount,
			NullCount:     float64(nullCount),
			DistinctCount: distinct,
			Hist:          BuildHistogram(kind, counts, DefaultHistogramBins),
		}
		cs.Min, cs.Max = math.Inf(1), math.Inf(-1)
		for v := range counts {
			cs.Min = math.Min(cs.Min, v)
			cs.Max = math.Max(cs.Max, v)
		}
		ts.Columns[col] = cs
	}
	return ts
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

// EstimateJoinCardinality estimates |R join S| on an equi-join between this
// table's column and another table's column using the textbook formula
// |R|*|S| / max(ndv(R.a), ndv(S.b)).
func EstimateJoinCardinality(left *TableStatistics, leftCol types.ColumnID, right *TableStatistics, rightCol types.ColumnID) float64 {
	ndv := math.Max(distinctOrOne(left, leftCol), distinctOrOne(right, rightCol))
	return left.RowCount * right.RowCount / ndv
}

func distinctOrOne(ts *TableStatistics, col types.ColumnID) float64 {
	if ts == nil || int(col) >= len(ts.Columns) || ts.Columns[col] == nil || ts.Columns[col].DistinctCount < 1 {
		return 1
	}
	return ts.Columns[col].DistinctCount
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

// Cache caches TableStatistics per table, invalidated when the row count
// changes (cheap heuristic; statistics need not be exact).
type Cache struct {
	mu      sync.Mutex
	entries map[*storage.Table]cacheEntry
	kind    HistogramType
}

type cacheEntry struct {
	stats    *TableStatistics
	rowCount int
}

// NewCache creates a statistics cache using the given histogram type.
func NewCache(kind HistogramType) *Cache {
	return &Cache{entries: make(map[*storage.Table]cacheEntry), kind: kind}
}

// Peek returns the cached statistics of a table without building anything —
// the executor's parallelism cost gates call this per scan, so it must stay
// a map lookup. Stale entries (row count drifted since the build) are still
// returned: a slightly off selectivity only skews a serial-vs-parallel
// choice, never a result. Returns nil when the optimizer has not built
// statistics for the table yet.
func (c *Cache) Peek(t *storage.Table) *TableStatistics {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[t]; ok {
		return e.stats
	}
	return nil
}

// Get returns (building if needed) the statistics of a table. The build runs
// outside the cache lock, so one table's histograms never stall another
// session's Peek; sessions racing on the same stale table each build and the
// last store wins — statistics need not be exact.
func (c *Cache) Get(t *storage.Table) *TableStatistics {
	rc := t.RowCount()
	c.mu.Lock()
	e, ok := c.entries[t]
	c.mu.Unlock()
	if ok && e.rowCount == rc {
		return e.stats
	}
	stats := BuildTableStatistics(t, c.kind)
	c.mu.Lock()
	c.entries[t] = cacheEntry{stats: stats, rowCount: rc}
	c.mu.Unlock()
	return stats
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
