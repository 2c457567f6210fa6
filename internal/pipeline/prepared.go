package pipeline

import (
	"context"
	"fmt"
	"strings"
	"time"

	"hyrise/internal/expression"
	"hyrise/internal/sqlparser"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// This file is the front half of the one statement route (paper §2.6: the
// plan cache in which "prepared statements and implicitly cached queries
// share the same structure", storing "placeholders instead of actual
// values"). Every entry point — Session.Execute*, the wire protocol's simple
// and extended flows, the named Prepare/ExecutePrepared facade, Explain —
// turns SQL text into PreparedStatement handles here and runs them through
// Session.execute. A handle is lexed, parsed, validated, typed and planned
// once; executions bind values into its plan through ExecContext.Params
// without touching the AST, so one handle serves any number of sessions at
// once.

// invalidatePlans is the engine's DDL hook: every cached statement goes
// (plans embed *storage.Table pointers and must not survive a drop or
// re-create of a referenced table — epoch comparisons catch stale handles on
// read anyway, the eager clear just frees them promptly), and so do the
// statistics of tables that left the catalog, which nothing else would ever
// release.
func (e *Engine) invalidatePlans() {
	e.stmtCache.Clear()
	names := e.sm.TableNames()
	live := make([]*storage.Table, 0, len(names))
	for _, name := range names {
		if t, err := e.sm.GetTable(name); err == nil {
			live = append(live, t)
		}
	}
	e.stats.Retain(live)
}

// PreparedStatement is the executable form of one statement: what
// Session.Statements and Session.PrepareStatement return and what
// Session.ExecutePreparedStatement runs. It is immutable and safe to execute
// from any number of sessions of the engine that produced it.
type PreparedStatement struct {
	// SQL is the trimmed text the statement came from (for a statement of a
	// multi-statement batch, the whole batch).
	SQL string
	// Fingerprint is the normalized form of SQL, the key of statement
	// statistics and of the executor pool's slow-statement routing.
	Fingerprint string
	// Stmt is the parsed AST; nil for an empty statement (the wire protocol
	// answers EmptyQueryResponse).
	Stmt sqlparser.Statement
	// NumParams is the number of placeholder slots ($1..$N / ?).
	NumParams int
	// ParamTypes are the slot types the plan the statement was prepared with
	// gives its placeholders (lqp.ParamTypes). TypeNull marks a slot nothing
	// types: a bare `SELECT $1`, `$1 = $2`, or the argument of a control
	// function (which has no plan). The wire server types bound text for
	// those by the int→float→string heuristic.
	ParamTypes []types.DataType
	// Columns and ColumnTypes describe the result set; nil when the
	// statement returns no rows (DML, DDL, transaction control — the
	// protocol's Describe answers NoData then) or has not been prepared yet.
	Columns     []string
	ColumnTypes []types.DataType
	// Tag is the CommandComplete tag stem ("SELECT", "INSERT", "BEGIN", ...).
	Tag string
	// RoutableRead reports whether a read replica may serve the statement: a
	// SELECT over base tables or views. FROM-less selects (control functions
	// like cancel_query and promote_replica, constant expressions) and meta_*
	// reads stay on the local engine — their answers are engine-local state,
	// not replicated data.
	RoutableRead bool

	// plan is the parameterized physical plan (Parameter nodes intact, bound
	// per execution via ExecContext.Params, subquery plans included). nil for
	// statements that run without one (DDL, transaction control, control
	// functions) and for those planned at every execution: a statement of a
	// batch — an earlier one may create what it reads — and a statement the
	// cache does not retain.
	plan *cachedPlan
	// epoch is the catalog epoch of preparation; when it has moved, a DDL ran
	// since and plan may embed a dropped table.
	epoch int64
	// lazy marks a handle fresh from the parser whose catalog-dependent half
	// (parameter types, result columns, plan) is still missing.
	// PrepareStatement completes it on the spot, so errors surface at Parse
	// time; the text route completes a cacheable one inside its first
	// execution, so that planning is metered, traced and bounded by
	// StatementTimeout like the rest of the statement.
	lazy bool
	// cacheable marks a statement the cache retains once prepared: a single
	// statement that is not parameterless DML, which captures literal rows
	// that never recur.
	cacheable bool
	// parse is what lexing and parsing SQL took, reported by the execution
	// that follows it; zero on a handle that came from the cache.
	parse time.Duration
}

// Empty reports whether the statement is the empty query.
func (p *PreparedStatement) Empty() bool { return p.Stmt == nil }

// ReturnsRows reports whether Execute produces DataRow messages.
func (p *PreparedStatement) ReturnsRows() bool { return len(p.Columns) > 0 }

// Statements resolves SQL text to one handle per statement it contains,
// executing nothing. A single statement whose text the engine has prepared
// before — through any session and any entry point — comes back from the
// statement cache without being lexed or parsed. Anything else is parsed
// once; those handles are completed when they execute (see
// PreparedStatement.lazy). Lexical and syntax errors surface here.
func (s *Session) Statements(sql string) ([]*PreparedStatement, error) {
	return s.engine.statements(sql, true)
}

// statements is Session.Statements; without useCache the text is parsed
// afresh and the handles stay out of the cache (Explain, Plans).
func (e *Engine) statements(sql string, useCache bool) ([]*PreparedStatement, error) {
	text := strings.TrimSpace(sql)
	if useCache {
		if ps, ok := e.stmtCache.Get(text); ok && ps.epoch == e.sm.Epoch() {
			return []*PreparedStatement{ps}, nil
		}
	}
	if strings.Trim(text, "; \t\r\n") == "" {
		return []*PreparedStatement{{SQL: text}}, nil
	}
	start := time.Now()
	stmts, err := sqlparser.Parse(text)
	if err != nil {
		return nil, err
	}
	parse := time.Since(start)
	fp := sqlparser.Fingerprint(text)
	handles := make([]*PreparedStatement, len(stmts))
	for i, stmt := range stmts {
		ps := &PreparedStatement{SQL: text, Fingerprint: fp, Stmt: stmt, Tag: statementTag(stmt), lazy: true, parse: parse}
		sel, isSelect := stmt.(*sqlparser.SelectStatement)
		ps.RoutableRead = isSelect && len(sel.From) > 0
		sqlparser.Rewrite(stmt, func(name, _ string) {
			if strings.HasPrefix(strings.ToLower(name), "meta_") {
				ps.RoutableRead = false
			}
		}, func(x expression.Expression) expression.Expression {
			// Highest ID + 1: $1/$3 without $2 still reserves three slots,
			// matching Postgres.
			if p, ok := x.(*expression.Parameter); ok && p.ID+1 > ps.NumParams {
				ps.NumParams = p.ID + 1
			}
			return nil
		})
		ps.cacheable = useCache && len(stmts) == 1 && (ps.NumParams > 0 || !isDMLStatement(stmt))
		handles[i] = ps
	}
	return handles, nil
}

// PrepareStatement parses, validates, and plans one SQL text for repeated
// execution. Errors — lexical, syntactic, or semantic (unknown table or
// column) — surface here, at Parse time, exactly like Postgres reports them.
// The handle comes from and goes to the engine's statement cache, keyed by
// the text, so a driver that re-Parses every query — on this connection or
// any other — still plans each distinct statement once.
func (s *Session) PrepareStatement(sql string) (*PreparedStatement, error) {
	return s.engine.prepareStatement(sql)
}

func (e *Engine) prepareStatement(sql string) (*PreparedStatement, error) {
	handles, err := e.statements(sql, true)
	if err != nil {
		return nil, err
	}
	if len(handles) != 1 {
		return nil, fmt.Errorf("pipeline: cannot insert multiple commands into a prepared statement")
	}
	if ps := handles[0]; ps.lazy {
		return e.prepare(ps, &Timing{})
	}
	return handles[0], nil
}

// plannedStatement reports whether a statement runs through the planning
// pipeline: SELECT/INSERT/UPDATE/DELETE other than the control functions
// Session.execute intercepts.
func plannedStatement(stmt sqlparser.Statement) bool {
	if _, ok := stmt.(*sqlparser.SelectStatement); !ok && !isDMLStatement(stmt) {
		return false
	}
	return controlCall(stmt) == nil
}

// prepare completes a lazy handle against the current catalog — the
// parameterized plan, and from it the parameter types and result columns —
// and files the result in the statement cache when the handle is cacheable.
// The stage times of the plan build land in timing.
func (e *Engine) prepare(lazy *PreparedStatement, timing *Timing) (*PreparedStatement, error) {
	ps := *lazy
	ps.lazy, ps.parse = false, 0
	// Captured before any table is resolved: a concurrent DDL after this
	// point makes the handle stale, and a pre-build epoch guarantees the next
	// epoch comparison sees that.
	ps.epoch = e.sm.Epoch()
	if fc := controlCall(ps.Stmt); fc != nil {
		// Intercepted before planning; answers a single int64 column.
		ps.Columns, ps.ColumnTypes = []string{fc.Name}, []types.DataType{types.TypeInt64}
		ps.ParamTypes = make([]types.DataType, ps.NumParams)
	} else if plannedStatement(ps.Stmt) {
		plan, err := e.buildPlan(ps.Stmt, ps.NumParams, timing, nil)
		if err != nil {
			return nil, err
		}
		ps.plan, ps.ParamTypes = plan, plan.paramTypes
		if ps.Tag == "SELECT" {
			ps.Columns, ps.ColumnTypes = plan.columns, plan.colTypes
		}
	}
	if ps.cacheable {
		e.stmtCache.Put(ps.SQL, &ps)
	}
	return &ps, nil
}

// Bind checks that params fill the statement's slots and converts each value
// to its slot's type (ParamTypes) by the assignment rule, Vector.As: FLOAT
// 2.0 binds to an INT slot as 2, FLOAT 2.5 fails (expression.ErrInvalidValue).
// An untyped slot keeps the value; matching types allocate nothing.
func (ps *PreparedStatement) Bind(params []types.Value) ([]types.Value, error) {
	if len(params) != ps.NumParams {
		return nil, fmt.Errorf("pipeline: bind supplies %d parameters, but the statement requires %d", len(params), ps.NumParams)
	}
	bound := params
	for i, v := range params {
		if i >= len(ps.ParamTypes) || v.Type == ps.ParamTypes[i] || v.IsNull() || ps.ParamTypes[i] == types.TypeNull {
			continue
		}
		vec, err := expression.ConstVector(v, 1).As(ps.ParamTypes[i])
		if err != nil {
			return nil, fmt.Errorf("pipeline: parameter $%d: %w", i+1, err)
		}
		if &bound[0] == &params[0] { // the caller's values stay as they are
			bound = append([]types.Value(nil), params...)
		}
		bound[i] = vec.ValueAt(0)
	}
	return bound, nil
}

// ExecutePreparedStatement runs a handle with the given parameter values: a
// prepared one replays its plan (no lexing, no parsing, no planning).
func (s *Session) ExecutePreparedStatement(ctx context.Context, ps *PreparedStatement, params []types.Value) (*Result, error) {
	return s.execute(ctx, ps, params, false)
}

// statementTag names the CommandComplete tag stem for any statement kind.
func statementTag(stmt sqlparser.Statement) string {
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
	case *sqlparser.TransactionStatement:
		switch st.Kind {
		case sqlparser.TxBegin:
			return "BEGIN"
		case sqlparser.TxCommit:
			return "COMMIT"
		default:
			return "ROLLBACK"
		}
	default:
		return "SELECT"
	}
}

// --- executor pool meta table ----------------------------------------------

// PoolRow is one row of the meta_executor_pool table: a per-queue snapshot
// of the wire server's bounded executor pool.
type PoolRow struct {
	Queue     string // "read" | "write" | "slow"
	Workers   int64
	Depth     int64 // statements waiting in the queue now
	Capacity  int64
	Submitted int64
	Executed  int64
	Rejected  int64
	WaitNS    int64 // cumulative queue-wait nanoseconds
}

// StatementMeanNS reports the mean recorded latency of a statement
// fingerprint, 0 when unseen. The server's executor pool uses it to route
// historically slow statements to a dedicated queue.
func (e *Engine) StatementMeanNS(fingerprint string) int64 {
	return e.stmtStats.MeanNS(fingerprint)
}

// SetPoolRows installs the provider behind meta_executor_pool; nil
// uninstalls it (the table is then empty — no pool is serving).
func (e *Engine) SetPoolRows(fn func() []PoolRow) {
	if fn == nil {
		e.poolRows.Store(nil)
		return
	}
	e.poolRows.Store(&fn)
}

// buildMetaExecutorPool snapshots the wire server's executor pool:
// `SELECT * FROM meta_executor_pool`.
func (e *Engine) buildMetaExecutorPool() (*storage.Table, error) {
	defs := []storage.ColumnDefinition{
		{Name: "queue", Type: types.TypeString},
		{Name: "workers", Type: types.TypeInt64},
		{Name: "depth", Type: types.TypeInt64},
		{Name: "capacity", Type: types.TypeInt64},
		{Name: "submitted", Type: types.TypeInt64},
		{Name: "executed", Type: types.TypeInt64},
		{Name: "rejected", Type: types.TypeInt64},
		{Name: "wait_ns", Type: types.TypeInt64},
	}
	out := storage.NewTable("meta_executor_pool", defs, 0, false)
	if fn := e.poolRows.Load(); fn != nil {
		for _, r := range (*fn)() {
			if _, err := out.AppendRow([]types.Value{
				types.Str(r.Queue),
				types.Int(r.Workers),
				types.Int(r.Depth),
				types.Int(r.Capacity),
				types.Int(r.Submitted),
				types.Int(r.Executed),
				types.Int(r.Rejected),
				types.Int(r.WaitNS),
			}); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
