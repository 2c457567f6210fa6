package observe

import (
	"sort"
	"sync"
	"sync/atomic"
)

// ScanPathKind classifies how a segment scan was answered — the code-path
// dimension of the per-column workload statistics.
type ScanPathKind uint8

const (
	// ScanPathPruned: the segment was skipped because the chunk's zone or one
	// of its filters proved that no row matches.
	ScanPathPruned ScanPathKind = iota
	// ScanPathSorted: the column ascends over the whole chunk and the
	// predicate was answered by binary search.
	ScanPathSorted
	// ScanPathIndex: the chunk's secondary index returned the positions.
	ScanPathIndex
	// ScanPathEncoded: the predicate ran directly on the encoded codes.
	ScanPathEncoded
	// ScanPathUnencoded: a plain value segment was scanned as typed slices.
	ScanPathUnencoded
	// ScanPathFallback: the segment was materialized and the predicate
	// evaluated row-at-a-time — the slow path the advisor works to shrink.
	ScanPathFallback
)

// ColumnScanStats accumulates lock-free per-column scan telemetry: how often
// each code path fired, the predicate shape mix, and row selectivity. The
// encoding advisor reads these to re-encode segments toward whichever
// representation the observed workload scans fastest.
type ColumnScanStats struct {
	scans     atomic.Int64 // segment scans, all paths
	pruned    atomic.Int64
	sorted    atomic.Int64
	index     atomic.Int64
	encoded   atomic.Int64
	unencoded atomic.Int64
	fallback  atomic.Int64
	points    atomic.Int64 // =, <>, IS [NOT] NULL predicates
	ranges    atomic.Int64 // <, <=, >, >=, BETWEEN predicates
	rowsIn    atomic.Int64 // rows the scanned segments held
	rowsOut   atomic.Int64 // rows that matched
}

// Record adds one segment scan observation.
func (c *ColumnScanStats) Record(path ScanPathKind, point bool, rowsIn, rowsOut int64) {
	c.scans.Add(1)
	switch path {
	case ScanPathPruned:
		c.pruned.Add(1)
	case ScanPathSorted:
		c.sorted.Add(1)
	case ScanPathIndex:
		c.index.Add(1)
	case ScanPathEncoded:
		c.encoded.Add(1)
	case ScanPathUnencoded:
		c.unencoded.Add(1)
	case ScanPathFallback:
		c.fallback.Add(1)
	}
	if point {
		c.points.Add(1)
	} else {
		c.ranges.Add(1)
	}
	c.rowsIn.Add(rowsIn)
	c.rowsOut.Add(rowsOut)
}

// ColumnScanSnapshot is one row of a ScanStats snapshot.
type ColumnScanSnapshot struct {
	Table, Column string
	Scans         int64
	Pruned        int64
	Sorted        int64
	Index         int64
	Encoded       int64
	Unencoded     int64
	Fallback      int64
	Points        int64
	Ranges        int64
	RowsIn        int64
	RowsOut       int64
}

// FallbackRatio returns the fraction of scans that had to materialize.
func (s ColumnScanSnapshot) FallbackRatio() float64 {
	if s.Scans == 0 {
		return 0
	}
	return float64(s.Fallback) / float64(s.Scans)
}

// ScanStats is the process-wide registry of per-column scan statistics,
// keyed by table and column name. Lookup takes a read lock; the returned
// cells are updated lock-free, so scans resolve their cell once per
// operator run.
type ScanStats struct {
	mu   sync.RWMutex
	cols map[string]*ColumnScanStats
	keys map[string][2]string // key -> (table, column)
}

// NewScanStats creates an empty registry.
func NewScanStats() *ScanStats {
	return &ScanStats{
		cols: make(map[string]*ColumnScanStats),
		keys: make(map[string][2]string),
	}
}

// Column returns the stats cell for table.column, creating it on first use.
func (s *ScanStats) Column(table, column string) *ColumnScanStats {
	key := table + "." + column
	s.mu.RLock()
	c, ok := s.cols[key]
	s.mu.RUnlock()
	if ok {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok = s.cols[key]; !ok {
		c = &ColumnScanStats{}
		s.cols[key] = c
		s.keys[key] = [2]string{table, column}
	}
	return c
}

// Snapshot returns all per-column stats sorted by table then column.
func (s *ScanStats) Snapshot() []ColumnScanSnapshot {
	s.mu.RLock()
	out := make([]ColumnScanSnapshot, 0, len(s.cols))
	for key, c := range s.cols {
		names := s.keys[key]
		out = append(out, ColumnScanSnapshot{
			Table:     names[0],
			Column:    names[1],
			Scans:     c.scans.Load(),
			Pruned:    c.pruned.Load(),
			Sorted:    c.sorted.Load(),
			Index:     c.index.Load(),
			Encoded:   c.encoded.Load(),
			Unencoded: c.unencoded.Load(),
			Fallback:  c.fallback.Load(),
			Points:    c.points.Load(),
			Ranges:    c.ranges.Load(),
			RowsIn:    c.rowsIn.Load(),
			RowsOut:   c.rowsOut.Load(),
		})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Column < out[j].Column
	})
	return out
}
