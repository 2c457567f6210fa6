package pipeline

import (
	"errors"
	"fmt"

	"hyrise/internal/persistence"
	"hyrise/internal/sqlparser"
)

// This file is the engine's replication surface: read-only enforcement for
// follower engines and the promote_replica() control function. The
// replication machinery itself lives in internal/replication; the facade wires
// the two together and registers the meta_replication table. (What the pgwire
// server may route to a replica is PreparedStatement.RoutableRead.)

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
	return controlResult("promote_replica", hit)
}
