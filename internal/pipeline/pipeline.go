// Package pipeline implements Hyrise's SQL pipeline (paper §2.6, Figure 4):
// the SQLPipeline class is the main entry point to query execution. It
// takes a SQL string, runs it through parser, SQL-to-LQP translation,
// optimization, LQP-to-PQP translation, and the scheduler, and returns one
// or more tables. All intermediary artifacts can be inspected.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hyrise/internal/cache"
	"hyrise/internal/concurrency"
	"hyrise/internal/expression"
	"hyrise/internal/filter"
	"hyrise/internal/lqp"
	"hyrise/internal/observe"
	"hyrise/internal/operators"
	"hyrise/internal/optimizer"
	"hyrise/internal/persistence"
	"hyrise/internal/scheduler"
	"hyrise/internal/sqlparser"
	"hyrise/internal/statistics"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Config toggles the optional components (paper §2: "even core concepts,
// such as optimization, concurrency control, or scheduling, can be
// disabled").
type Config struct {
	// UseOptimizer runs the rule pipeline; without it, queries execute
	// close to how they are written.
	UseOptimizer bool
	// UseMvcc enables multi-version concurrency control; without it,
	// tables are effectively read-only and no scan checks visibility.
	UseMvcc bool
	// UseScheduler runs operator tasks on the worker-pool scheduler;
	// without it, tasks execute immediately in the calling goroutine.
	UseScheduler bool
	// SchedulerWorkers is the scheduler's worker count (0 = one per CPU).
	SchedulerWorkers int
	// PlanCacheSize bounds the physical plan cache (0 disables caching).
	PlanCacheSize int
	// JoinImpl selects the physical equi-join.
	JoinImpl operators.JoinImplementation
	// DynamicAccess forces the interface-call-per-value access path
	// (Hyrise1-style dynamic polymorphism): the naive-columnar baseline of
	// the Figure 6 comparison.
	DynamicAccess bool
	// HistogramType selects the statistics histogram flavor.
	HistogramType statistics.HistogramType
	// StatementTimeout bounds the execution of every planned statement
	// (SELECT/INSERT/UPDATE/DELETE): statements running longer are canceled
	// cooperatively and fail with context.DeadlineExceeded. 0 disables the
	// timeout. Explicit per-call contexts (ExecuteContext) compose with it —
	// whichever deadline fires first wins.
	StatementTimeout time.Duration
	// LockWaitTimeout bounds how long DML blocks on a row claimed by another
	// live transaction before aborting with a conflict. 0 (the default)
	// preserves immediate first-writer-wins aborts; the blocked time is
	// attributed to the mvcc_conflict wait event either way.
	LockWaitTimeout time.Duration
	// DebugAddr, when non-empty, serves a diagnostics HTTP endpoint on the
	// address: net/http/pprof, an OpenMetrics exposition at /metrics, and a
	// JSON dump of the metrics registry at /metrics.json (port 0 picks a
	// free port; see Engine.DebugAddr).
	DebugAddr string
	// DataDir, when non-empty, makes the engine durable: on startup the
	// latest snapshot in the directory is restored and the write-ahead log
	// replayed; afterwards every committed transaction and DDL statement is
	// logged. Empty keeps the engine fully in-memory.
	DataDir string
	// SyncMode controls when WAL writes reach disk: "commit" (default,
	// group fsync before a commit is acknowledged), "batch" (background
	// fsync, bounded loss window), or "off" (OS page cache only).
	SyncMode string
	// SnapshotInterval, when > 0 and DataDir is set, checkpoints in the
	// background at this cadence, truncating the WAL each time.
	SnapshotInterval time.Duration
	// parallel overrides the engine's own serial-vs-parallel decisions
	// (operators.ParallelAuto, the zero value) for every operator at once. A
	// test seam: only this package's tests and benchmarks set it, and results
	// are identical in every mode.
	parallel operators.ParallelMode
}

// DefaultConfig enables everything except the scheduler, mirroring the
// paper's evaluation default ("the scheduler is currently disabled" in the
// default configuration; Hyrise's default thread count is 1).
func DefaultConfig() Config {
	return Config{
		UseOptimizer:  true,
		UseMvcc:       true,
		UseScheduler:  false,
		PlanCacheSize: 1024,
		HistogramType: statistics.EqualHeight,
	}
}

// Engine bundles the storage manager, transaction manager, scheduler,
// optimizer, and statement cache — everything a session needs to run SQL.
type Engine struct {
	cfg   Config
	sm    *storage.StorageManager
	tm    *concurrency.TransactionManager
	sched scheduler.Scheduler
	stats *statistics.Cache
	peek  operators.Estimator // stats.Peek, bound once
	opt   *optimizer.Optimizer

	// stmtCache is the one statement cache (paper §2.6): prepared handles
	// keyed by trimmed SQL text, shared by every session and entry point and
	// bounded by Config.PlanCacheSize. See prepared.go.
	stmtCache *cache.LRU[string, *PreparedStatement]

	registry  *observe.Registry
	metrics   *engineMetrics
	scanStats *observe.ScanStats
	traceSink atomic.Pointer[func(*observe.Trace)]
	debug     *observe.DebugServer
	persist   *persistence.Manager

	active     *observe.ActiveRegistry
	stmtStats  *observe.StatementStats
	sessionIDs atomic.Int64

	// Replication wiring (see replication.go): a read-only engine rejects
	// writes and DDL; promoteFn backs SELECT promote_replica().
	readOnly  atomic.Bool
	promoteFn atomic.Pointer[func() error]

	mu       sync.Mutex
	prepared map[string]*PreparedStatement // Engine.Prepare's names
}

// engineMetrics holds the pre-resolved hot-path metric handles so statement
// execution never touches the registry's maps.
type engineMetrics struct {
	statements *observe.Counter
	errors     *observe.Counter
	canceled   *observe.Counter
	timedOut   *observe.Counter
	cancels    *observe.Counter
	queryUS    *observe.Histogram
	exec       *observe.ExecMetrics
	waits      *observe.WaitMetrics
}

type cachedPlan struct {
	root       operators.Operator
	columns    []string
	colTypes   []types.DataType
	paramTypes []types.DataType // Translator.ParamTypes; nil without placeholders
}

// NewEngine creates an engine over (or with) a storage manager. It panics
// when durability is configured but cannot be initialized (use NewEngineErr
// to handle recovery errors).
func NewEngine(cfg Config, sm *storage.StorageManager) *Engine {
	e, err := NewEngineErr(cfg, sm)
	if err != nil {
		panic(err)
	}
	return e
}

// NewEngineErr creates an engine over (or with) a storage manager. When
// Config.DataDir is set, it restores the latest snapshot and replays the
// write-ahead log before returning; the engine accepts no statements until
// recovery has finished.
func NewEngineErr(cfg Config, sm *storage.StorageManager) (*Engine, error) {
	if sm == nil {
		sm = storage.NewStorageManager()
	}
	e := &Engine{
		cfg:       cfg,
		sm:        sm,
		tm:        concurrency.NewTransactionManager(),
		stats:     statistics.CacheFor(sm, cfg.HistogramType),
		stmtCache: cache.NewLRU[string, *PreparedStatement](cfg.PlanCacheSize),
		prepared:  make(map[string]*PreparedStatement),
	}
	e.opt = optimizer.NewDefault(e.stats)
	e.peek = e.stats.Peek
	if cfg.UseScheduler {
		e.sched = scheduler.New(cfg.SchedulerWorkers)
	} else {
		e.sched = scheduler.NewImmediateScheduler()
	}
	e.initObservability()
	// Before recovery: replayed chunks seal like appended ones.
	sm.SetSealer(func(c *storage.Chunk) { filter.Seal(c, nil) })
	if cfg.DataDir != "" {
		mode, err := persistence.ParseSyncMode(cfg.SyncMode)
		if err != nil {
			return nil, err
		}
		m, err := persistence.Open(e.sm, e.tm, persistence.Options{
			Dir:              cfg.DataDir,
			Mode:             mode,
			SnapshotInterval: cfg.SnapshotInterval,
			Registry:         e.registry,
		})
		if err != nil {
			return nil, fmt.Errorf("pipeline: open data directory %s: %w", cfg.DataDir, err)
		}
		e.persist = m
	}
	return e, nil
}

// Durable reports whether the engine runs with a write-ahead log.
func (e *Engine) Durable() bool { return e.persist != nil }

// Checkpoint snapshots the whole catalog to the data directory and
// truncates the write-ahead log. It fails when the engine has no DataDir.
func (e *Engine) Checkpoint() error {
	if e.persist == nil {
		return fmt.Errorf("pipeline: engine has no data directory")
	}
	return e.persist.Checkpoint()
}

// initObservability creates the metrics registry, registers the pull-style
// metrics of the instrumented subsystems, installs the meta_* tables, and
// starts the optional debug HTTP endpoint.
func (e *Engine) initObservability() {
	r := observe.NewRegistry()
	e.registry = r
	e.metrics = &engineMetrics{
		statements: r.Counter("statements_executed"),
		errors:     r.Counter("statement_errors"),
		canceled:   r.Counter("engine.statements.canceled"),
		timedOut:   r.Counter("engine.statements.timed_out"),
		cancels:    r.Counter("engine.cancel_query_calls"),
		queryUS:    r.Histogram("query_duration_us"),
		exec:       observe.NewExecMetrics(r),
		waits:      observe.NewWaitMetrics(r),
	}
	e.stats.Instrument(r)
	e.tm.Instrument(r)
	e.active = observe.NewActiveRegistry()
	e.stmtStats = observe.NewStatementStats(0)
	e.scanStats = observe.NewScanStats()
	r.RegisterFunc("active_queries", func() int64 { return int64(e.active.Len()) })
	r.RegisterFunc("statement_stats_entries", func() int64 { return int64(e.stmtStats.Len()) })
	r.RegisterFunc("statement_stats_dropped", func() int64 { return e.stmtStats.Dropped() })
	r.RegisterFunc("plan_cache_hits", func() int64 { h, _ := e.stmtCache.Stats(); return h })
	r.RegisterFunc("plan_cache_misses", func() int64 { _, m := e.stmtCache.Stats(); return m })
	r.RegisterFunc("plan_cache_size", func() int64 { return int64(e.stmtCache.Len()) })
	r.RegisterFunc("transactions_started", func() int64 { s, _, _ := e.tm.Stats(); return s })
	r.RegisterFunc("transactions_committed", func() int64 { _, c, _ := e.tm.Stats(); return c })
	r.RegisterFunc("transactions_aborted", func() int64 { _, _, a := e.tm.Stats(); return a })
	r.RegisterFunc("scheduler_tasks_run", func() int64 { return e.sched.Stats().TasksRun })
	r.RegisterFunc("scheduler_queue_depth", func() int64 { return e.sched.Stats().QueueDepth })
	r.RegisterFunc("scheduler_workers", func() int64 { return int64(e.sched.WorkerCount()) })
	r.RegisterFunc("storage.chunks_sealed", func() int64 { n, _ := e.sm.SealStats(); return n })
	r.RegisterFunc("storage.seal_ns", func() int64 { _, ns := e.sm.SealStats(); return ns })
	e.registerMetaTables()
	if e.cfg.DebugAddr != "" {
		d, err := observe.StartDebugServer(e.cfg.DebugAddr, r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipeline: debug endpoint on %s: %v\n", e.cfg.DebugAddr, err)
		} else {
			e.debug = d
		}
	}
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// StorageManager exposes the catalog.
func (e *Engine) StorageManager() *storage.StorageManager { return e.sm }

// TransactionManager exposes MVCC control.
func (e *Engine) TransactionManager() *concurrency.TransactionManager { return e.tm }

// Scheduler exposes the task scheduler.
func (e *Engine) Scheduler() scheduler.Scheduler { return e.sched }

// Statistics exposes the statistics cache.
func (e *Engine) Statistics() *statistics.Cache { return e.stats }

// PlanCacheStats returns the statement cache's hit/miss counters.
func (e *Engine) PlanCacheStats() (hits, misses int64) { return e.stmtCache.Stats() }

// Metrics exposes the engine's metrics registry (also queryable through the
// meta_metrics table and the debug endpoint's /metrics dump).
func (e *Engine) Metrics() *observe.Registry { return e.registry }

// ScanStats exposes the per-column scan workload statistics (also queryable
// through the meta_column_scans table). The encoding advisor reads these to
// steer segment re-encoding.
func (e *Engine) ScanStats() *observe.ScanStats { return e.scanStats }

// SetTraceSink installs fn to receive a Trace for every planned statement
// the engine executes; nil uninstalls it. Without a sink, tracing costs
// one atomic load per statement and allocates nothing.
func (e *Engine) SetTraceSink(fn func(*observe.Trace)) {
	if fn == nil {
		e.traceSink.Store(nil)
		return
	}
	e.traceSink.Store(&fn)
}

// DebugAddr returns the bound address of the debug HTTP endpoint ("" when
// disabled). Useful when Config.DebugAddr used port 0.
func (e *Engine) DebugAddr() string {
	if e.debug == nil {
		return ""
	}
	return e.debug.Addr()
}

// Close shuts the persistence layer, the scheduler, and the debug endpoint
// down. With a data directory, the WAL is flushed and fsynced; pending
// group commits complete first.
func (e *Engine) Close() {
	if e.debug != nil {
		_ = e.debug.Close()
	}
	if e.persist != nil {
		_ = e.persist.Close()
	}
	e.sched.Shutdown()
}

// Result is the outcome of one statement.
type Result struct {
	// Table holds the rows (nil for DML, DDL and transaction statements).
	Table *storage.Table
	// Columns are the output column names.
	Columns []string
	// RowsAffected is set for DML.
	RowsAffected int64
	// Tag describes the statement kind ("SELECT", "INSERT", ...).
	Tag string
	// Timing breaks down the pipeline stages.
	Timing Timing
}

// Timing records per-stage durations (the paper's benchmark output includes
// per-query times; the console's timing mode shows the stage split).
type Timing struct {
	Parse     time.Duration
	Translate time.Duration
	Optimize  time.Duration
	ToPQP     time.Duration
	Execute   time.Duration
	CacheHit  bool
}

// Total sums all stages.
func (t Timing) Total() time.Duration {
	return t.Parse + t.Translate + t.Optimize + t.ToPQP + t.Execute
}

// Session is one client connection: it tracks the open explicit
// transaction. Sessions are not safe for concurrent use; engines are.
type Session struct {
	engine     *Engine
	tx         *concurrency.TransactionContext
	id         int64
	backendPID int64
	activeQ    *observe.ActiveQuery
	lastTrace  *observe.Trace
}

// NewSession opens a session.
func (e *Engine) NewSession() *Session {
	return &Session{engine: e, id: e.sessionIDs.Add(1)}
}

// ID returns the engine-assigned session number (shown in
// meta_active_queries).
func (s *Session) ID() int64 { return s.id }

// SetBackendPID records the wire protocol's backend process id so
// meta_active_queries rows correlate with pg_cancel-style tooling.
func (s *Session) SetBackendPID(pid int64) { s.backendPID = pid }

// LastTrace returns the trace of the session's most recent planned
// statement, or nil when tracing is off (no sink installed). The server's
// slow-query log uses it to attach EXPLAIN ANALYZE output.
func (s *Session) LastTrace() *observe.Trace { return s.lastTrace }

// Begin opens ps's one cancel context ahead of its execution: ps enters the
// live-query registry — meta_active_queries lists it and cancel_query
// reaches it — and the returned handle's Cancel fires the same context. The
// session's next statement runs under it, so a caller that makes the
// statement wait before it runs (the wire server's executor-pool queue) can
// cancel it while it waits; that caller passes the returned context on and
// calls End when the statement is over. A statement nobody began opens its
// own.
func (s *Session) Begin(ctx context.Context, ps *PreparedStatement) (*observe.ActiveQuery, context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	q, qctx := s.engine.active.Begin(ctx, s.id, s.backendPID, ps.SQL, ps.Fingerprint)
	s.activeQ = q
	return q, qctx
}

// End closes the statement Begin opened: it leaves the registry and its
// context is released.
func (s *Session) End() {
	s.activeQ.Finish()
	s.activeQ = nil
}

// ActiveQueries snapshots the statements currently in flight across all
// sessions (the meta_active_queries table is built from the same snapshot).
func (e *Engine) ActiveQueries() []observe.ActiveQueryInfo { return e.active.Snapshot() }

// CancelQuery cancels the in-flight statement with the given id (as listed
// by ActiveQueries / meta_active_queries / SELECT cancel_query(id)). The
// victim fails with SQLSTATE 57014 through the usual cancellation path. It
// reports whether a statement with that id was found.
func (e *Engine) CancelQuery(id int64) bool {
	e.metrics.cancels.Inc()
	return e.active.Cancel(id)
}

// StatementStats snapshots the per-fingerprint statement statistics (the
// meta_statement_stats table is built from the same snapshot).
func (e *Engine) StatementStats() []observe.StatementStatRow { return e.stmtStats.Snapshot() }

// EnsureTraceSink turns statement tracing on with a no-op sink when none is
// installed, so Session.LastTrace is populated without any other consumer
// (the server's slow-query trace mode relies on it).
func (e *Engine) EnsureTraceSink() {
	if e.traceSink.Load() == nil {
		e.SetTraceSink(func(*observe.Trace) {})
	}
}

// waitObserver builds the begin/end pair the transaction layer fires around
// blocked spans (WAL group-commit sync, MVCC conflict retries): the active
// query flips to waiting for the duration, and the measured nanoseconds land
// in the global wait histograms and — when tracing — on the statement trace,
// so EXPLAIN ANALYZE and the wait.* metrics always agree.
func (e *Engine) waitObserver(q *observe.ActiveQuery, trace *observe.Trace) func(observe.WaitKind) func() {
	return func(kind observe.WaitKind) func() {
		q.SetState(observe.StateWaiting)
		start := time.Now()
		return func() {
			ns := time.Since(start).Nanoseconds()
			if ns < 1 {
				ns = 1
			}
			e.metrics.waits.Observe(kind, ns)
			if trace != nil {
				trace.AddWait(kind, time.Duration(ns))
			}
			q.SetState(observe.StateExecuting)
		}
	}
}

// InTransaction reports whether an explicit transaction is open.
func (s *Session) InTransaction() bool { return s.tx != nil }

// Close ends the session: an open transaction rolls back, so its claims are
// released and its snapshot no longer holds the low-water mark back.
func (s *Session) Close() {
	if s.tx != nil {
		s.tx.Rollback()
		s.tx = nil
	}
}

// Execute runs all statements in the SQL string and returns one result per
// statement.
func (s *Session) Execute(sql string) ([]*Result, error) {
	return s.ExecuteContext(context.Background(), sql)
}

// ExecuteContext is Execute with cooperative cancellation: when ctx is
// canceled (client disconnect, wire-protocol CancelRequest) or the engine's
// StatementTimeout fires, the in-flight statement stops at the next chunk
// boundary, its transaction rolls back, and the error wraps
// context.Canceled or context.DeadlineExceeded. Statements already
// completed keep their results.
func (s *Session) ExecuteContext(ctx context.Context, sql string) ([]*Result, error) {
	handles, err := s.engine.statements(sql, true)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, 0, len(handles))
	for _, ps := range handles {
		res, err := s.execute(ctx, ps, nil, false)
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}

// ExecuteOne runs a single-statement SQL string.
func (s *Session) ExecuteOne(sql string) (*Result, error) {
	return s.ExecuteOneContext(context.Background(), sql)
}

// ExecuteOneContext is ExecuteOne with cooperative cancellation.
func (s *Session) ExecuteOneContext(ctx context.Context, sql string) (*Result, error) {
	results, err := s.ExecuteContext(ctx, sql)
	if err != nil {
		return nil, err
	}
	return results[len(results)-1], nil
}

// execute is the one statement route: every entry point hands its handles
// here. It registers the statement as a live query, enforces the parameter
// count and the replica's read-only rule, runs transaction control, DDL and
// the control functions directly and everything else through runPlanned.
// explain forces a trace (Session.Explain).
func (s *Session) execute(ctx context.Context, ps *PreparedStatement, params []types.Value, explain bool) (*Result, error) {
	if ps.Empty() {
		return nil, fmt.Errorf("pipeline: cannot execute an empty statement")
	}
	var err error
	if ps.lazy && controlCall(ps.Stmt) != nil { // typed here: it never reaches executePlan
		if ps, err = s.engine.prepare(ps, &Timing{}); err != nil {
			return nil, err
		}
	}
	params, err = ps.Bind(params)
	if err != nil {
		return nil, err
	}
	if s.activeQ == nil { // nobody began it: it opens its own cancel context
		_, ctx = s.Begin(ctx, ps)
		defer s.End()
	}
	// Read-only enforcement for replica engines: writes and DDL fail fast,
	// before planning, touching no state. promote_replica() — the one "write"
	// a replica accepts — is a SELECT and passes.
	if s.engine.readOnly.Load() {
		if name := writeStatementName(ps.Stmt); name != "" {
			return nil, fmt.Errorf("%w: cannot execute %s", ErrReadOnly, name)
		}
	}
	switch st := ps.Stmt.(type) {
	case *sqlparser.TransactionStatement:
		return s.executeTransactionStatement(st)
	case *sqlparser.CreateTableStatement, *sqlparser.CreateViewStatement, *sqlparser.DropStatement:
		if err := s.engine.executeDDL(st); err != nil {
			return nil, err
		}
		s.engine.invalidatePlans()
		return &Result{Tag: ps.Tag}, nil
	}
	if fc := controlCall(ps.Stmt); fc != nil {
		if fc.Name == "cancel_query" {
			return s.execCancelQuery(fc.Args[0], params)
		}
		return s.execPromoteReplica()
	}
	return s.runPlanned(ctx, ps, params, explain)
}

// executeDDL applies a CREATE/DROP to the catalog and, on a durable engine,
// logs it; a CREATE whose log write fails is undone.
func (e *Engine) executeDDL(stmt sqlparser.Statement) error {
	switch st := stmt.(type) {
	case *sqlparser.CreateTableStatement:
		defs := make([]storage.ColumnDefinition, len(st.Columns))
		for i, c := range st.Columns {
			defs[i] = storage.ColumnDefinition{Name: c.Name, Type: c.Type, Nullable: c.Nullable}
		}
		table := storage.NewTable(st.Name, defs, 0, e.cfg.UseMvcc)
		if err := e.sm.AddTable(table); err != nil {
			return err
		}
		if p := e.persist; p != nil {
			if err := p.LogCreateTable(table); err != nil {
				_ = e.sm.DropTable(st.Name)
				return err
			}
		}
	case *sqlparser.CreateViewStatement:
		if err := e.sm.AddView(st.Name, st.SQL); err != nil {
			return err
		}
		if p := e.persist; p != nil {
			if err := p.LogCreateView(st.Name, st.SQL); err != nil {
				_ = e.sm.DropView(st.Name)
				return err
			}
		}
	case *sqlparser.DropStatement:
		if st.IsView {
			if err := e.sm.DropView(st.Name); err != nil {
				return err
			}
			if p := e.persist; p != nil {
				return p.LogDropView(st.Name)
			}
			return nil
		}
		if err := e.sm.DropTable(st.Name); err != nil {
			return err
		}
		if p := e.persist; p != nil {
			return p.LogDropTable(st.Name)
		}
	}
	return nil
}

// controlCall matches the control functions "SELECT cancel_query(<expr>)"
// and "SELECT promote_replica()" — a FROM-less single-item select. The parser
// treats unknown functions as ordinary expressions, so the calls are
// intercepted here, before planning: one runs against the live-query
// registry, the other against the replication wiring (replication.go).
func controlCall(stmt sqlparser.Statement) *expression.FunctionCall {
	sel, ok := stmt.(*sqlparser.SelectStatement)
	if !ok || len(sel.From) != 0 || len(sel.Items) != 1 || sel.Items[0].Star {
		return nil
	}
	fc, ok := sel.Items[0].Expr.(*expression.FunctionCall)
	if ok && (fc.Name == "cancel_query" && len(fc.Args) == 1 || fc.Name == "promote_replica" && len(fc.Args) == 0) {
		return fc
	}
	return nil
}

// execCancelQuery evaluates the target query id and cancels it, returning a
// one-row result: 1 when an in-flight statement was found and signaled, 0
// otherwise (already finished, or never existed).
func (s *Session) execCancelQuery(arg expression.Expression, params []types.Value) (*Result, error) {
	v, err := expression.Evaluate(arg, &expression.Context{N: 1, Params: params})
	if err != nil {
		return nil, fmt.Errorf("pipeline: cancel_query: %w", err)
	}
	var hit int64
	if s.engine.CancelQuery(v.ValueAt(0).I) { // an INT: typed at prepare
		hit = 1
	}
	return controlResult("cancel_query", hit)
}

// controlResult is a control function's answer: one INT column named after
// the function, one row.
func controlResult(name string, v int64) (*Result, error) {
	defs := []storage.ColumnDefinition{{Name: name, Type: types.TypeInt64}}
	out, err := storage.NewTableFromRows(name, defs, [][]types.Value{{types.Int(v)}})
	if err != nil {
		return nil, err
	}
	return &Result{Table: out, Columns: []string{name}, Tag: "SELECT"}, nil
}

func (s *Session) executeTransactionStatement(st *sqlparser.TransactionStatement) (*Result, error) {
	switch st.Kind {
	case sqlparser.TxBegin:
		if !s.engine.cfg.UseMvcc {
			return nil, fmt.Errorf("pipeline: transactions require MVCC")
		}
		if s.tx != nil {
			return nil, fmt.Errorf("pipeline: transaction already open")
		}
		s.tx = s.engine.tm.New()
		return &Result{Tag: "BEGIN"}, nil
	case sqlparser.TxCommit:
		if s.tx == nil {
			return nil, fmt.Errorf("pipeline: no transaction open")
		}
		// Re-point the wait observer at the COMMIT statement itself: the WAL
		// group-commit sync blocks here, not in the statement that installed
		// the observer last.
		s.tx.SetWaitObserver(s.engine.waitObserver(s.activeQ, nil))
		err := s.tx.Commit()
		s.tx = nil
		if err != nil {
			return nil, err
		}
		return &Result{Tag: "COMMIT"}, nil
	default:
		if s.tx == nil {
			return nil, fmt.Errorf("pipeline: no transaction open")
		}
		s.Close()
		return &Result{Tag: "ROLLBACK"}, nil
	}
}

// isDMLStatement reports whether the statement modifies data.
func isDMLStatement(stmt sqlparser.Statement) bool {
	switch stmt.(type) {
	case *sqlparser.InsertStatement, *sqlparser.UpdateStatement, *sqlparser.DeleteStatement:
		return true
	}
	return false
}

// runPlanned executes SELECT/INSERT/UPDATE/DELETE through the planning
// pipeline. It creates the per-statement context (applying the engine's
// StatementTimeout on top of the caller's context), updates the engine
// metrics — including the cancellation counters — and the per-fingerprint
// statement statistics, and, when a trace sink is installed or explain is
// set, records a per-execution trace. params bind the statement's placeholder
// slots for this execution.
func (s *Session) runPlanned(ctx context.Context, ps *PreparedStatement, params []types.Value, explain bool) (*Result, error) {
	engine := s.engine
	m := engine.metrics
	if d := engine.cfg.StatementTimeout; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	var trace *observe.Trace
	sink := engine.traceSink.Load()
	if sink != nil || explain {
		trace = observe.NewTrace(ps.SQL)
		s.lastTrace = trace
	}
	s.activeQ.SetState(observe.StatePlanning)
	start := time.Now()
	res, err := s.executePlan(ctx, ps, params, trace)
	m.statements.Inc()
	var rows int64
	if res != nil {
		if res.RowsAffected > 0 {
			rows = res.RowsAffected
		} else if res.Table != nil {
			rows = int64(res.Table.RowCount())
		}
	}
	// The pg_stat_statements-style aggregation, keyed by the fingerprint.
	engine.stmtStats.Record(ps.Fingerprint, time.Since(start), rows, res != nil && res.Timing.CacheHit, err != nil)
	if err != nil {
		m.errors.Inc()
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			m.timedOut.Inc()
			err = fmt.Errorf("canceling statement due to statement timeout: %w", err)
		case errors.Is(err, context.Canceled):
			m.canceled.Inc()
			err = fmt.Errorf("canceling statement due to user request: %w", err)
		}
	} else {
		m.queryUS.Observe(time.Since(start).Microseconds())
	}
	if trace != nil {
		if err != nil {
			trace.Canceled = errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		} else {
			trace.CacheHit = res.Timing.CacheHit
			recordStages(trace, res.Timing)
		}
		trace.SetTotal(time.Since(start))
		if sink != nil {
			(*sink)(trace)
		}
	}
	return res, err
}

// executePlan resolves the handle's physical plan — replayed, or prepared
// or built now — and runs it under the session's transaction (explicit when
// open, auto-commit otherwise). Timing.CacheHit reports a replay: this
// execution ran a plan it did not have to build.
func (s *Session) executePlan(ctx context.Context, ps *PreparedStatement, params []types.Value, trace *observe.Trace) (*Result, error) {
	engine := s.engine
	timing := Timing{Parse: ps.parse}
	if ps.plan != nil && ps.epoch != engine.sm.Epoch() {
		// A DDL ran since preparation. Resolve the text again through the
		// cache: whoever gets there first re-prepares it against the new
		// catalog, every later execution of this handle replays that plan.
		handles, err := engine.statements(ps.SQL, true)
		if err != nil {
			return nil, err
		}
		ps = handles[0]
	}
	var err error
	if ps.lazy && ps.cacheable {
		if ps, err = engine.prepare(ps, &timing); err != nil {
			return nil, err
		}
	} else {
		timing.CacheHit = ps.plan != nil
	}
	plan := ps.plan
	if plan == nil {
		// Planned per execution (see PreparedStatement.plan), bound by the
		// slot types of this plan.
		if plan, err = engine.buildPlan(ps.Stmt, ps.NumParams, &timing, nil); err != nil {
			return nil, err
		}
		typed := *ps
		typed.ParamTypes, ps = plan.paramTypes, &typed
	}
	if params, err = ps.Bind(params); err != nil { // ps may be new since execute
		return nil, err
	}

	tx := s.tx
	autoCommit := false
	if engine.cfg.UseMvcc && tx == nil {
		tx = engine.tm.New()
		autoCommit = true
	}

	execStart := time.Now()
	ectx := operators.NewExecContext(engine.sm, engine.sched, tx)
	ectx.Ctx = ctx
	ectx.Params = params
	ectx.DynamicAccess = engine.cfg.DynamicAccess
	ectx.Trace = trace
	ectx.Metrics = engine.metrics.exec
	ectx.Scans = engine.scanStats
	ectx.Waits = engine.metrics.waits
	ectx.Active = s.activeQ
	ectx.LockWait = engine.cfg.LockWaitTimeout
	ectx.Parallel = engine.cfg.parallel
	// The estimator feeds the scan cost gate. Peek makes no table's entry (a
	// table the optimizer has not estimated yields nil), but the gate's first
	// question about a column of a table that has one builds that column.
	ectx.Estimator = engine.peek
	if tx != nil {
		tx.SetWaitObserver(engine.waitObserver(s.activeQ, trace))
	}
	out, err := operators.Execute(plan.root, ectx)
	timing.Execute = time.Since(execStart)
	if err != nil {
		// The owning transaction aborts on any failure — including
		// cancellation and timeout — so partial DML (MVCC invalidations and
		// inserts) rolls back cleanly and claims are released.
		if autoCommit {
			tx.Rollback()
		} else if tx != nil {
			// Explicit transactions become invalid after conflicts; the
			// client must roll back, matching the usual DBMS contract. We
			// roll back eagerly to release claims.
			s.Close()
		}
		return nil, err
	}
	if autoCommit {
		if err := tx.Commit(); err != nil {
			return nil, err
		}
	}
	if trace != nil {
		trace.SetPlanText(operators.PlanString(plan.root, trace))
	}

	return &Result{Table: out, Columns: plan.columns, RowsAffected: ectx.RowsAffected(), Tag: ps.Tag, Timing: timing}, nil
}

// recordStages files the pipeline stage timings into a trace. Build stages
// are omitted on plan-cache hits (they did not run).
func recordStages(tr *observe.Trace, t Timing) {
	tr.AddStage("parse", t.Parse)
	if !t.CacheHit {
		tr.AddStage("translate", t.Translate)
		tr.AddStage("optimize", t.Optimize)
		tr.AddStage("to_pqp", t.ToPQP)
	}
	tr.AddStage("execute", t.Execute)
}

// planArtifacts are the intermediary plans of one build, as text (see
// Engine.Plans); a stage that was not reached stays empty.
type planArtifacts struct {
	unoptimized, optimized string
}

// buildPlan runs translate/optimize/PQP-translate, timing each stage, and
// types the statement's params placeholder slots from the translated plan. A
// non-nil art receives the logical plans on the way.
func (e *Engine) buildPlan(stmt sqlparser.Statement, params int, timing *Timing, art *planArtifacts) (*cachedPlan, error) {
	start := time.Now()
	tr := &lqp.Translator{SM: e.sm, UseMvcc: e.cfg.UseMvcc}
	logical, err := tr.Translate(stmt)
	if err != nil {
		return nil, err
	}
	var paramTypes []types.DataType
	if params > 0 {
		paramTypes = tr.ParamTypes(params)
	}
	timing.Translate = time.Since(start)
	if art != nil {
		art.unoptimized = lqp.PlanString(logical)
	}

	start = time.Now()
	if e.cfg.UseOptimizer {
		logical, err = e.opt.Optimize(logical)
		if err != nil {
			return nil, err
		}
	}
	timing.Optimize = time.Since(start)
	if art != nil {
		art.optimized = lqp.PlanString(logical)
	}

	start = time.Now()
	pqpTr := &operators.Translator{JoinImpl: e.cfg.JoinImpl}
	physical, err := pqpTr.Translate(logical)
	if err != nil {
		return nil, err
	}
	timing.ToPQP = time.Since(start)

	sch := logical.Schema()
	colTypes := make([]types.DataType, len(sch))
	for i, c := range sch {
		colTypes[i] = c.DT
	}
	return &cachedPlan{root: physical, columns: sch.Names(), colTypes: colTypes, paramTypes: paramTypes}, nil
}

// single returns the one non-empty statement of a SQL text, parsed afresh
// and kept out of the statement cache (Plans, Explain).
func (e *Engine) single(sql string) (*PreparedStatement, error) {
	handles, err := e.statements(sql, false)
	if err != nil {
		return nil, err
	}
	if len(handles) != 1 || handles[0].Empty() {
		return nil, fmt.Errorf("pipeline: expected exactly one statement")
	}
	return handles[0], nil
}

// Plans exposes the intermediary artifacts of a SQL string for inspection
// (paper: "all intermediary artifacts can be inspected by the developer in
// their text or graph forms").
func (e *Engine) Plans(sql string) (logicalUnoptimized, logicalOptimized string, physical string, err error) {
	ps, err := e.single(sql)
	if err != nil {
		return "", "", "", err
	}
	var art planArtifacts
	plan, err := e.buildPlan(ps.Stmt, 0, &Timing{}, &art)
	if err != nil {
		return art.unoptimized, art.optimized, "", err
	}
	return art.unoptimized, art.optimized, operators.PlanString(plan.root, nil), nil
}

// ExplainResult is the outcome of an EXPLAIN ANALYZE-style execution: the
// annotated plan text, the raw trace, and the query result itself.
type ExplainResult struct {
	// Text is the rendered stage breakdown plus the annotated plan.
	Text string
	// Trace holds the raw stage and operator spans.
	Trace *observe.Trace
	// Result is the executed statement's result (Explain runs the query).
	Result *Result
}

// Explain executes the statement with tracing enabled and returns the
// annotated plan (paper §2.6 extended from static plan text to runtime
// behavior: per-stage wall times and per-operator durations, row counts,
// and pruning). The statement takes the same route as any other — it obeys
// StatementTimeout and shows up in the metrics and statement statistics —
// except that its plan is always built fresh: Explain measures the whole
// pipeline, bypassing and not populating the statement cache.
func (s *Session) Explain(sql string) (*ExplainResult, error) {
	start := time.Now()
	ps, err := s.engine.single(sql)
	if err != nil {
		return nil, err
	}
	if !plannedStatement(ps.Stmt) {
		return nil, fmt.Errorf("pipeline: EXPLAIN supports SELECT/INSERT/UPDATE/DELETE, not %s", ps.Tag)
	}
	res, err := s.execute(context.Background(), ps, nil, true)
	if err != nil {
		return nil, err
	}
	trace := s.lastTrace
	trace.SetTotal(time.Since(start)) // parse included

	var b strings.Builder
	b.WriteString("EXPLAIN ANALYZE: ")
	b.WriteString(trace.SQL)
	b.WriteString("\nstages:")
	for _, st := range trace.Stages() {
		fmt.Fprintf(&b, " %s=%v", st.Name, st.Duration)
	}
	total := trace.Total()
	if total > 0 {
		fmt.Fprintf(&b, " | total=%v (stages %.1f%%)", total,
			100*float64(trace.StageTotal())/float64(total))
	}
	b.WriteByte('\n')
	if ws := trace.Waits(); len(ws) > 0 {
		b.WriteString(observe.FormatWaits(ws))
		b.WriteByte('\n')
	}
	b.WriteString(trace.PlanText())
	return &ExplainResult{Text: b.String(), Trace: trace, Result: res}, nil
}

// Prepare registers a named prepared statement (paper §2.6: "for prepared
// statements, we store placeholders instead of actual values"): a name for
// the handle PrepareStatement returns. The statement is validated and planned
// here, once; executions bind their values into that plan.
func (e *Engine) Prepare(name, sql string) error {
	ps, err := e.prepareStatement(sql)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.prepared[name] = ps
	e.mu.Unlock()
	return nil
}

// ExecutePrepared binds parameter values and executes a prepared statement.
func (s *Session) ExecutePrepared(name string, params []types.Value) (*Result, error) {
	s.engine.mu.Lock()
	ps, ok := s.engine.prepared[name]
	s.engine.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("pipeline: no prepared statement %q", name)
	}
	return s.execute(context.Background(), ps, params, false)
}

// RowStrings renders a result table as printable rows (boundary helper for
// console/server/tests), one ValueRows value each.
func RowStrings(t *storage.Table) [][]string {
	var out [][]string
	for _, row := range ValueRows(t) {
		strs := make([]string, len(row))
		for i, v := range row {
			strs[i] = v.String()
		}
		out = append(out, strs)
	}
	return out
}

// ValueRows materializes a result as dynamic values of its columns' types: a
// BOOL column's stored 0/1 reads as types.Bool.
func ValueRows(t *storage.Table) [][]types.Value {
	if t == nil {
		return nil
	}
	defs := t.ColumnDefinitions()
	var out [][]types.Value
	for ci := 0; ci < t.ChunkCount(); ci++ {
		c := t.GetChunk(types.ChunkID(ci))
		for o := 0; o < c.Size(); o++ {
			row := make([]types.Value, t.ColumnCount())
			for col := range row {
				row[col] = c.GetSegment(types.ColumnID(col)).ValueAt(types.ChunkOffset(o))
				if defs[col].Type == types.TypeBool && !row[col].IsNull() {
					row[col] = types.Bool(row[col].I != 0)
				}
			}
			out = append(out, row)
		}
	}
	return out
}
