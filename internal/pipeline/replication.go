package pipeline

import (
	"errors"
	"fmt"

	"hyrise/internal/persistence"
	"hyrise/internal/sqlparser"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// This file is the engine's replication surface: read-only enforcement for
// follower engines, the promote_replica() control function,
// and the meta_replication virtual table. The replication machinery itself
// lives in internal/replication; the facade wires the two together. (What the
// pgwire server may route to a replica is PreparedStatement.RoutableRead.)

// ErrReadOnly marks statements rejected because the engine serves a read
// replica. The pgwire server maps it to SQLSTATE 25006
// (read_only_sql_transaction).
var ErrReadOnly = errors.New("read-only replica")

// SetReadOnly flips write/DDL rejection: a follower engine is read-only
// until promoted.
func (e *Engine) SetReadOnly(ro bool) { e.readOnly.Store(ro) }

// ReadOnly reports whether the engine rejects writes and DDL.
func (e *Engine) ReadOnly() bool { return e.readOnly.Load() }

// Persistence exposes the durability manager (nil for in-memory engines) —
// the replication primary ships its WAL and snapshots.
func (e *Engine) Persistence() *persistence.Manager { return e.persist }

// SetPromoteFunc installs the engine's promote action, invoked by
// SELECT promote_replica(). The facade points it at the follower's Promote
// plus the read-only flip.
func (e *Engine) SetPromoteFunc(fn func() error) {
	if fn == nil {
		e.promoteFn.Store(nil)
		return
	}
	e.promoteFn.Store(&fn)
}

// ReplicationRow is one row of the meta_replication table. A primary reports
// one row per connected follower; a follower reports one row about itself.
type ReplicationRow struct {
	Role       string // "primary" | "replica"
	Peer       string // transport endpoint of the other side
	State      string
	AppliedLSN int64 // follower apply position (acked position on a primary)
	EndLSN     int64 // primary log end as last known
	AppliedCID int64
	PrimaryCID int64
	LagBytes   int64
	LagNS      int64
}

// SetReplicationRows installs the provider behind meta_replication; nil
// uninstalls it (the table then reports a single standalone row).
func (e *Engine) SetReplicationRows(fn func() []ReplicationRow) {
	if fn == nil {
		e.replRows.Store(nil)
		return
	}
	e.replRows.Store(&fn)
}

// buildMetaReplication snapshots the replication topology as a relational
// table: `SELECT * FROM meta_replication` (console: \replication).
func (e *Engine) buildMetaReplication() (*storage.Table, error) {
	defs := []storage.ColumnDefinition{
		{Name: "role", Type: types.TypeString},
		{Name: "peer", Type: types.TypeString},
		{Name: "state", Type: types.TypeString},
		{Name: "applied_lsn", Type: types.TypeInt64},
		{Name: "end_lsn", Type: types.TypeInt64},
		{Name: "applied_cid", Type: types.TypeInt64},
		{Name: "primary_cid", Type: types.TypeInt64},
		{Name: "lag_bytes", Type: types.TypeInt64},
		{Name: "lag_ns", Type: types.TypeInt64},
	}
	out := storage.NewTable("meta_replication", defs, 0, false)
	rows := []ReplicationRow{{Role: "standalone", State: "none"}}
	if fn := e.replRows.Load(); fn != nil {
		rows = (*fn)()
	}
	for _, r := range rows {
		if _, err := out.AppendRow([]types.Value{
			types.Str(r.Role),
			types.Str(r.Peer),
			types.Str(r.State),
			types.Int(r.AppliedLSN),
			types.Int(r.EndLSN),
			types.Int(r.AppliedCID),
			types.Int(r.PrimaryCID),
			types.Int(r.LagBytes),
			types.Int(r.LagNS),
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// writeStatementName names statements a read-only engine must reject;
// "" means the statement is allowed (reads and transaction control).
func writeStatementName(stmt sqlparser.Statement) string {
	switch st := stmt.(type) {
	case *sqlparser.InsertStatement:
		return "INSERT"
	case *sqlparser.UpdateStatement:
		return "UPDATE"
	case *sqlparser.DeleteStatement:
		return "DELETE"
	case *sqlparser.CreateTableStatement:
		return "CREATE TABLE"
	case *sqlparser.CreateViewStatement:
		return "CREATE VIEW"
	case *sqlparser.DropStatement:
		if st.IsView {
			return "DROP VIEW"
		}
		return "DROP TABLE"
	}
	return ""
}

// execPromoteReplica promotes a follower engine to standalone read-write,
// returning a one-row result: 1 when the engine was promoted now, 0 when it
// was not a replica (or already promoted).
func (s *Session) execPromoteReplica() (*Result, error) {
	var hit int64
	if fn := s.engine.promoteFn.Load(); fn != nil && s.engine.ReadOnly() {
		if err := (*fn)(); err != nil {
			return nil, fmt.Errorf("pipeline: promote_replica: %w", err)
		}
		hit = 1
	}
	defs := []storage.ColumnDefinition{{Name: "promote_replica", Type: types.TypeInt64}}
	out := storage.NewTable("promote_replica", defs, 0, false)
	if _, err := out.AppendRow([]types.Value{types.Int(hit)}); err != nil {
		return nil, err
	}
	return &Result{Table: out, Columns: []string{"promote_replica"}, Tag: "SELECT"}, nil
}
