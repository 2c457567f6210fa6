package pipeline

import (
	"context"
	"fmt"
	"strings"
	"time"

	"hyrise/internal/expression"
	"hyrise/internal/lqp"
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
	// ParamTypes are the inferred target types per slot; TypeNull marks a
	// slot whose type could not be derived (bound text is then typed by the
	// classic int→float→string heuristic).
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
	// per execution via ExecContext.Params). nil for statements that run
	// without one (DDL, transaction control, control functions) and for those
	// planned at every execution: a statement of a batch — an earlier one may
	// create what it reads —, a statement the cache does not retain, and one
	// whose parameters must be bound as literals (see prepare).
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

// prepare completes a lazy handle against the current catalog — inferred
// parameter types, result columns, the parameterized plan — and files the
// result in the statement cache when the handle is cacheable. The stage
// times of the plan build land in timing.
func (e *Engine) prepare(lazy *PreparedStatement, timing *Timing) (*PreparedStatement, error) {
	ps := *lazy
	ps.lazy, ps.parse = false, 0
	// Captured before any table is resolved: a concurrent DDL after this
	// point makes the handle stale, and a pre-build epoch guarantees the next
	// epoch comparison sees that.
	ps.epoch = e.sm.Epoch()
	if ps.NumParams > 0 {
		ps.ParamTypes = e.inferParamTypes(ps.Stmt, ps.NumParams)
	}
	if fc := controlCall(ps.Stmt); fc != nil {
		// Intercepted before planning; answers a single int64 column.
		ps.Columns, ps.ColumnTypes = []string{fc.Name}, []types.DataType{types.TypeInt64}
	} else if plannedStatement(ps.Stmt) {
		// Subquery plans bind their own Parameter slots per outer row
		// (correlation), so prepared parameters reaching a subquery plan would
		// collide with correlation slots: no parameterized plan then.
		var err error
		if ps.NumParams == 0 || !statementHasSubquery(ps.Stmt) {
			ps.plan, err = e.buildPlan(ps.Stmt, timing, nil)
		}
		shape := ps.plan
		if ps.plan == nil && ps.NumParams > 0 {
			// That, or planning around unbound parameters failed where the
			// bound form may not (say, a bare parameter in the projection list
			// has no type yet). Plan with dummy values: success means only the
			// parameterized plan is unavailable — executions bind literals,
			// see executePlan — and supplies the result shape for Describe;
			// failure is a genuine semantic error, reported at Parse time as
			// Postgres does.
			shape, err = e.planBound(ps.Stmt, dummyParams(ps.ParamTypes), &Timing{})
		}
		if err != nil {
			return nil, err
		}
		if ps.Tag == "SELECT" {
			ps.Columns, ps.ColumnTypes = shape.columns, shape.colTypes
		}
	}
	if ps.cacheable {
		e.stmtCache.Put(ps.SQL, &ps)
	}
	return &ps, nil
}

// planBound plans a statement around literal values for its parameters: the
// route of the statements prepare leaves without a parameterized plan.
func (e *Engine) planBound(stmt sqlparser.Statement, params []types.Value, timing *Timing) (*cachedPlan, error) {
	return e.buildPlan(lqp.BindParameters(stmt, params), timing, nil)
}

// dummyParams builds typed zero values for shape validation.
func dummyParams(paramTypes []types.DataType) []types.Value {
	out := make([]types.Value, len(paramTypes))
	for i, dt := range paramTypes {
		switch dt {
		case types.TypeInt64:
			out[i] = types.Int(0)
		case types.TypeFloat64:
			out[i] = types.Float(0)
		default:
			out[i] = types.Str("")
		}
	}
	return out
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

// statementHasSubquery reports whether any expression subquery occurs.
func statementHasSubquery(stmt sqlparser.Statement) bool {
	found := false
	sqlparser.Rewrite(stmt, nil, func(e expression.Expression) expression.Expression {
		if _, ok := e.(*expression.Subquery); ok {
			found = true
		}
		return nil
	})
	return found
}

// --- parameter-type inference ----------------------------------------------

// boundStmtTable is one base table visible to a statement, under its alias.
type boundStmtTable struct {
	alias string // lower-cased alias (or table name)
	table *storage.Table
}

// gatherTables resolves every base table a statement references, subquery
// selects included (their columns are in scope for the expressions we
// inspect). Views and meta-tables are skipped — inference is best-effort and
// must not materialize telemetry snapshots during Parse.
func (e *Engine) gatherTables(stmt sqlparser.Statement) []boundStmtTable {
	var out []boundStmtTable
	sqlparser.Rewrite(stmt, func(name, alias string) {
		if !e.sm.HasTable(name) {
			return
		}
		t, err := e.sm.GetTable(name)
		if err != nil {
			return
		}
		if alias == "" {
			alias = name
		}
		out = append(out, boundStmtTable{alias: strings.ToLower(alias), table: t})
	}, nil)
	return out
}

// columnTypeIn resolves a possibly qualified column name against the
// statement's tables (first match wins; TypeNull when unresolved).
func columnTypeIn(tables []boundStmtTable, qualifier, name string) types.DataType {
	for _, bt := range tables {
		if qualifier != "" && !strings.EqualFold(qualifier, bt.alias) {
			continue
		}
		for _, d := range bt.table.ColumnDefinitions() {
			if strings.EqualFold(d.Name, name) {
				return d.Type
			}
		}
	}
	return types.TypeNull
}

// inferParamTypes derives a target type per placeholder slot from the AST
// and the catalog: INSERT row positions and UPDATE SET targets take the
// column's declared type; a parameter compared (=, <, BETWEEN, IN, ...) to a
// column or literal takes that operand's type. Unresolvable slots stay
// TypeNull. The wire server uses these both to report ParameterDescription
// and to parse bound text values — crucially, a parameter probing a string
// column keeps '123' as a string instead of coercing it to an integer.
func (e *Engine) inferParamTypes(stmt sqlparser.Statement, n int) []types.DataType {
	out := make([]types.DataType, n)
	tables := e.gatherTables(stmt)
	assign := func(id int, dt types.DataType) {
		if id >= 0 && id < n && out[id] == types.TypeNull && dt != types.TypeNull {
			out[id] = dt
		}
	}
	paramID := func(ex expression.Expression) (int, bool) {
		p, ok := ex.(*expression.Parameter)
		if !ok {
			return 0, false
		}
		return p.ID, true
	}
	typeOf := func(ex expression.Expression) types.DataType {
		switch x := ex.(type) {
		case *expression.ColumnRef:
			return columnTypeIn(tables, x.Qualifier, x.Name)
		case *expression.Literal:
			return x.Value.Type
		}
		return types.TypeNull
	}

	switch st := stmt.(type) {
	case *sqlparser.InsertStatement:
		if e.sm.HasTable(st.Table) {
			if t, err := e.sm.GetTable(st.Table); err == nil {
				defs := t.ColumnDefinitions()
				for _, row := range st.Rows {
					for i, ex := range row {
						id, ok := paramID(ex)
						if !ok {
							continue
						}
						var dt types.DataType
						if len(st.Columns) == 0 {
							if i < len(defs) {
								dt = defs[i].Type
							}
						} else if i < len(st.Columns) {
							for _, d := range defs {
								if strings.EqualFold(d.Name, st.Columns[i]) {
									dt = d.Type
									break
								}
							}
						}
						assign(id, dt)
					}
				}
			}
		}
	case *sqlparser.UpdateStatement:
		if e.sm.HasTable(st.Table) {
			if t, err := e.sm.GetTable(st.Table); err == nil {
				for _, sc := range st.Set {
					if id, ok := paramID(sc.Expr); ok {
						for _, d := range t.ColumnDefinitions() {
							if strings.EqualFold(d.Name, sc.Column) {
								assign(id, d.Type)
								break
							}
						}
					}
				}
			}
		}
	}

	sqlparser.Rewrite(stmt, nil, func(ex expression.Expression) expression.Expression {
		switch x := ex.(type) {
		case *expression.Comparison:
			if id, ok := paramID(x.Left); ok {
				assign(id, typeOf(x.Right))
			}
			if id, ok := paramID(x.Right); ok {
				assign(id, typeOf(x.Left))
			}
		case *expression.Between:
			dt := typeOf(x.Child)
			if id, ok := paramID(x.Lo); ok {
				assign(id, dt)
			}
			if id, ok := paramID(x.Hi); ok {
				assign(id, dt)
			}
			if id, ok := paramID(x.Child); ok {
				if d := typeOf(x.Lo); d != types.TypeNull {
					assign(id, d)
				} else {
					assign(id, typeOf(x.Hi))
				}
			}
		case *expression.In:
			dt := typeOf(x.Child)
			for _, le := range x.List {
				if id, ok := paramID(le); ok {
					assign(id, dt)
				}
			}
		}
		return nil
	})
	return out
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
