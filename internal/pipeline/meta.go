package pipeline

import (
	"hyrise/internal/encoding"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Meta-tables expose engine internals as plain relational tables, queryable
// through every SQL entry point including the wire protocol (real Hyrise's
// meta_* tables serve the same role). Providers build a fresh snapshot per
// query, so repeated SELECTs observe advancing telemetry. They are built
// without MVCC columns: the translator plants no ValidateNode over them,
// and the snapshot is immutable anyway.

// registerMetaTables installs the engine's virtual system tables in the
// catalog.
func (e *Engine) registerMetaTables() {
	e.sm.RegisterMetaTable("meta_tables", e.buildMetaTables)
	e.sm.RegisterMetaTable("meta_segments", e.buildMetaSegments)
	e.sm.RegisterMetaTable("meta_metrics", e.buildMetaMetrics)
	e.sm.RegisterMetaTable("meta_active_queries", e.buildMetaActiveQueries)
	e.sm.RegisterMetaTable("meta_statement_stats", e.buildMetaStatementStats)
	e.sm.RegisterMetaTable("meta_column_scans", e.buildMetaColumnScans)
	e.sm.RegisterMetaTable("meta_replication", e.buildMetaReplication)
	e.sm.RegisterMetaTable("meta_executor_pool", e.buildMetaExecutorPool)
}

// buildMetaColumnScans snapshots the per-column scan workload statistics:
// one row per scanned table.column with the code-path mix (pruned, sorted,
// index, encoded, unencoded, fallback), predicate shape counts, and row
// selectivity. This is the same feed the encoding advisor consumes to steer
// re-encoding.
func (e *Engine) buildMetaColumnScans() (*storage.Table, error) {
	defs := []storage.ColumnDefinition{
		{Name: "table_name", Type: types.TypeString},
		{Name: "column_name", Type: types.TypeString},
		{Name: "scans", Type: types.TypeInt64},
		{Name: "pruned", Type: types.TypeInt64},
		{Name: "sorted", Type: types.TypeInt64},
		{Name: "index", Type: types.TypeInt64},
		{Name: "encoded", Type: types.TypeInt64},
		{Name: "unencoded", Type: types.TypeInt64},
		{Name: "fallback", Type: types.TypeInt64},
		{Name: "point_predicates", Type: types.TypeInt64},
		{Name: "range_predicates", Type: types.TypeInt64},
		{Name: "rows_in", Type: types.TypeInt64},
		{Name: "rows_out", Type: types.TypeInt64},
	}
	out := storage.NewTable("meta_column_scans", defs, 0, false)
	for _, s := range e.scanStats.Snapshot() {
		if _, err := out.AppendRow([]types.Value{
			types.Str(s.Table),
			types.Str(s.Column),
			types.Int(s.Scans),
			types.Int(s.Pruned),
			types.Int(s.Sorted),
			types.Int(s.Index),
			types.Int(s.Encoded),
			types.Int(s.Unencoded),
			types.Int(s.Fallback),
			types.Int(s.Points),
			types.Int(s.Ranges),
			types.Int(s.RowsIn),
			types.Int(s.RowsOut),
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// buildMetaTables snapshots one row per base table: schema shape and memory
// footprint — values, the MVCC columns, and the rest of what chunks carry
// (zones, filters, indexes).
func (e *Engine) buildMetaTables() (*storage.Table, error) {
	defs := []storage.ColumnDefinition{
		{Name: "table_name", Type: types.TypeString},
		{Name: "row_count", Type: types.TypeInt64},
		{Name: "chunk_count", Type: types.TypeInt64},
		{Name: "column_count", Type: types.TypeInt64},
		{Name: "target_chunk_size", Type: types.TypeInt64},
		{Name: "data_bytes", Type: types.TypeInt64},
		{Name: "mvcc_bytes", Type: types.TypeInt64},
		{Name: "metadata_bytes", Type: types.TypeInt64},
	}
	out := storage.NewTable("meta_tables", defs, 0, false)
	for _, name := range e.sm.TableNames() {
		t, err := e.sm.GetTable(name)
		if err != nil {
			continue // dropped between listing and lookup
		}
		data, metadata := t.MemoryUsage()
		var mvcc int64
		for _, c := range t.Chunks() {
			if m := c.MvccData(); m != nil {
				mvcc += m.MemoryUsage()
			}
		}
		if _, err := out.AppendRow([]types.Value{
			types.Str(t.Name()),
			types.Int(int64(t.RowCount())),
			types.Int(int64(t.ChunkCount())),
			types.Int(int64(t.ColumnCount())),
			types.Int(int64(t.TargetChunkSize())),
			types.Int(data),
			types.Int(mvcc),
			types.Int(metadata - mvcc),
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// buildMetaSegments snapshots one row per table x chunk x column: the
// physical layout, including the encoding actually applied to each segment
// (paper §2.3: encodings are chosen per segment, not per column) and the zone
// the chunk keeps for the column: its bounds (NULL while no row holds a
// comparable value) and whether the column ascends through the whole chunk,
// which is what lets a scan binary-search it. value_compression is 'FSST' for
// a string dictionary whose values are packed with a symbol table, 'decimal(e)'
// for a float column stored as the integers n of its values n / 10^e, else
// 'none'; vector_compression names the vector a Dictionary's or a
// FrameOfReference's codes are in, 'FSBA' or 'SIMD-BP128', else 'none'.
func (e *Engine) buildMetaSegments() (*storage.Table, error) {
	defs := []storage.ColumnDefinition{
		{Name: "table_name", Type: types.TypeString},
		{Name: "chunk_id", Type: types.TypeInt64},
		{Name: "column_id", Type: types.TypeInt64},
		{Name: "column_name", Type: types.TypeString},
		{Name: "column_type", Type: types.TypeString},
		{Name: "encoding", Type: types.TypeString},
		{Name: "rows", Type: types.TypeInt64},
		{Name: "size_bytes", Type: types.TypeInt64},
		{Name: "zone_min", Type: types.TypeString, Nullable: true},
		{Name: "zone_max", Type: types.TypeString, Nullable: true},
		{Name: "ascending", Type: types.TypeString},
		{Name: "value_compression", Type: types.TypeString},
		{Name: "vector_compression", Type: types.TypeString},
	}
	out := storage.NewTable("meta_segments", defs, 0, false)
	for _, name := range e.sm.TableNames() {
		t, err := e.sm.GetTable(name)
		if err != nil {
			continue
		}
		cols := t.ColumnDefinitions()
		for ci, chunk := range t.Chunks() {
			for col := range cols {
				seg, zone := chunk.SegmentWithZone(types.ColumnID(col))
				if seg == nil {
					continue
				}
				zoneMin, zoneMax, ascending := types.NullValue, types.NullValue, "no"
				if !zone.Min.IsNull() {
					zoneMin, zoneMax = types.Str(zone.Min.String()), types.Str(zone.Max.String())
				}
				if seg.Len() > 0 && zone.Ascending >= seg.Len() {
					ascending = "yes"
				}
				spec, _ := encoding.SpecOf(seg) // a stored table's segments are all known
				vector := "none"
				if spec.Encoding == encoding.Dictionary || spec.Encoding == encoding.FrameOfReference {
					vector = spec.Compression.String()
				}
				if _, err := out.AppendRow([]types.Value{
					types.Str(t.Name()),
					types.Int(int64(ci)),
					types.Int(int64(col)),
					types.Str(cols[col].Name),
					types.Str(cols[col].Type.String()),
					types.Str(spec.Encoding.String()),
					types.Int(int64(seg.Len())),
					types.Int(seg.MemoryUsage()),
					zoneMin, zoneMax, types.Str(ascending),
					types.Str(encoding.ValueCompression(seg)),
					types.Str(vector),
				}); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// buildMetaActiveQueries snapshots the live-query registry: one row per
// in-flight statement, including the one reading the table. The id column
// feeds SELECT cancel_query(id).
func (e *Engine) buildMetaActiveQueries() (*storage.Table, error) {
	defs := []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64},
		{Name: "session_id", Type: types.TypeInt64},
		{Name: "backend_pid", Type: types.TypeInt64},
		{Name: "state", Type: types.TypeString},
		{Name: "elapsed_us", Type: types.TypeInt64},
		{Name: "rows", Type: types.TypeInt64},
		{Name: "sql", Type: types.TypeString},
		{Name: "fingerprint", Type: types.TypeString},
	}
	out := storage.NewTable("meta_active_queries", defs, 0, false)
	for _, q := range e.active.Snapshot() {
		if _, err := out.AppendRow([]types.Value{
			types.Int(q.ID),
			types.Int(q.SessionID),
			types.Int(q.BackendPID),
			types.Str(q.State.String()),
			types.Int(q.Elapsed.Microseconds()),
			types.Int(q.Rows),
			types.Str(q.SQL),
			types.Str(q.Fingerprint),
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// buildMetaStatementStats snapshots the per-fingerprint statement
// statistics, ordered by total time descending — the pg_stat_statements
// analog.
func (e *Engine) buildMetaStatementStats() (*storage.Table, error) {
	defs := []storage.ColumnDefinition{
		{Name: "query", Type: types.TypeString},
		{Name: "calls", Type: types.TypeInt64},
		{Name: "errors", Type: types.TypeInt64},
		{Name: "rows", Type: types.TypeInt64},
		{Name: "cache_hits", Type: types.TypeInt64},
		{Name: "total_us", Type: types.TypeInt64},
		{Name: "mean_us", Type: types.TypeInt64},
		{Name: "p95_us", Type: types.TypeInt64},
		{Name: "max_us", Type: types.TypeInt64},
	}
	out := storage.NewTable("meta_statement_stats", defs, 0, false)
	for _, row := range e.stmtStats.Snapshot() {
		if _, err := out.AppendRow([]types.Value{
			types.Str(row.Query),
			types.Int(row.Calls),
			types.Int(row.Errors),
			types.Int(row.Rows),
			types.Int(row.CacheHits),
			types.Int(row.TotalNS / 1000),
			types.Int(row.MeanNS / 1000),
			types.Int(row.P95NS / 1000),
			types.Int(row.MaxNS / 1000),
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// buildMetaMetrics snapshots the metrics registry: one row per metric, with
// histograms already expanded into _count/_sum/_max/_p50/_p95/_p99 rows.
func (e *Engine) buildMetaMetrics() (*storage.Table, error) {
	defs := []storage.ColumnDefinition{
		{Name: "name", Type: types.TypeString},
		{Name: "kind", Type: types.TypeString},
		{Name: "value", Type: types.TypeInt64},
	}
	out := storage.NewTable("meta_metrics", defs, 0, false)
	for _, m := range e.registry.Snapshot() {
		if _, err := out.AppendRow([]types.Value{
			types.Str(m.Name),
			types.Str(m.Kind),
			types.Int(m.Value),
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}
