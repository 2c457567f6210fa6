// Package hyrise is a from-scratch Go implementation of the database
// described in "Hyrise Re-engineered: An Extensible Database System for
// Research in Relational In-Memory Data Management" (Dreseler et al.,
// EDBT 2019): an extensible, columnar, in-memory relational DBMS for
// database research in which every major component — optimizer, MVCC,
// scheduler, encodings, plan cache, network — can be selectively enabled
// or disabled.
//
// The facade wires the subsystems together:
//
//	db := hyrise.Open(hyrise.DefaultConfig())
//	defer db.Close()
//	db.Execute(`CREATE TABLE t (a INT NOT NULL, b VARCHAR(20))`)
//	db.Execute(`INSERT INTO t VALUES (1, 'hello')`)
//	res, err := db.Query(`SELECT a, b FROM t WHERE a > 0`)
//
// See DESIGN.md for the architecture and the paper-experiment index, and
// the examples/ directory for runnable programs.
package hyrise

import (
	"context"
	"io"

	"hyrise/internal/benchmark"
	"hyrise/internal/concurrency"
	"hyrise/internal/observe"
	"hyrise/internal/pipeline"
	"hyrise/internal/plugin"
	"hyrise/internal/server"
	"hyrise/internal/storage"
	"hyrise/internal/tpch"
	"hyrise/internal/types"
)

// Config toggles the optional components (paper §2). The zero value
// disables everything; use DefaultConfig for the paper's defaults.
type Config = pipeline.Config

// Result is the outcome of one SQL statement.
type Result = pipeline.Result

// Value is a dynamically typed SQL value.
type Value = types.Value

// DefaultConfig mirrors the paper's default setup: optimizer and MVCC on,
// scheduler off (single-threaded), plan cache enabled.
func DefaultConfig() Config { return pipeline.DefaultConfig() }

// Database is one Hyrise instance.
type Database struct {
	engine  *pipeline.Engine
	session *pipeline.Session
	plugins *plugin.Manager
	repl    replState // replication role, if any (see replication.go)
}

// Open creates a database with the given configuration. It panics when
// Config.DataDir is set but recovery fails; use OpenErr to handle that.
func Open(cfg Config) *Database {
	db, err := OpenErr(cfg)
	if err != nil {
		panic(err)
	}
	return db
}

// OpenErr creates a database with the given configuration. With
// Config.DataDir set, the latest snapshot is restored and the write-ahead
// log replayed before OpenErr returns. The database registers its
// meta_replication table.
func OpenErr(cfg Config) (*Database, error) {
	engine, err := pipeline.NewEngineErr(cfg, nil)
	if err != nil {
		return nil, err
	}
	db := &Database{
		engine:  engine,
		session: engine.NewSession(),
		plugins: plugin.NewManager(engine),
	}
	engine.StorageManager().RegisterMetaTable("meta_replication", db.metaReplication)
	return db, nil
}

// Checkpoint snapshots all tables and views to Config.DataDir and truncates
// the write-ahead log. It fails on in-memory databases.
func (db *Database) Checkpoint() error { return db.engine.Checkpoint() }

// Close rolls back the default session's open transaction, stops replication
// (if any), shuts down the scheduler, and unloads all plugins.
func (db *Database) Close() {
	db.session.Close()
	db.CloseReplication()
	db.plugins.UnloadAll()
	db.engine.Close()
}

// Execute runs one or more ';'-separated SQL statements on the database's
// default session and returns the last result.
func (db *Database) Execute(sql string) (*Result, error) {
	return db.session.ExecuteOne(sql)
}

// Query is Execute with a friendlier name for reads.
func (db *Database) Query(sql string) (*Result, error) {
	return db.session.ExecuteOne(sql)
}

// ExecuteContext is Execute with cooperative cancellation: canceling ctx (or
// hitting Config.StatementTimeout) stops the statement at the next chunk
// boundary, rolls its transaction back, and returns an error wrapping
// context.Canceled or context.DeadlineExceeded.
func (db *Database) ExecuteContext(ctx context.Context, sql string) (*Result, error) {
	return db.session.ExecuteOneContext(ctx, sql)
}

// Rows renders a result as strings (convenience for examples and tools).
func Rows(res *Result) [][]string { return pipeline.RowStrings(res.Table) }

// Session opens an independent session (own transaction state).
func (db *Database) Session() *pipeline.Session { return db.engine.NewSession() }

// Engine exposes the underlying engine for advanced use (benchmark
// harnesses, plugins, direct storage access).
func (db *Database) Engine() *pipeline.Engine { return db.engine }

// StorageManager exposes the table catalog.
func (db *Database) StorageManager() *storage.StorageManager { return db.engine.StorageManager() }

// Prepare registers a named prepared statement with '?' placeholders.
func (db *Database) Prepare(name, sql string) error { return db.engine.Prepare(name, sql) }

// ExecutePrepared binds values to a prepared statement and runs it.
func (db *Database) ExecutePrepared(name string, params []Value) (*Result, error) {
	return db.session.ExecutePrepared(name, params)
}

// Plans returns the unoptimized LQP, optimized LQP, and PQP of a query as
// text (paper §2.6: all intermediary artifacts can be inspected).
func (db *Database) Plans(sql string) (unoptimized, optimized, physical string, err error) {
	return db.engine.Plans(sql)
}

// Explain executes the statement with tracing enabled and returns the
// EXPLAIN ANALYZE-style result: stage timings plus the plan annotated with
// per-operator durations, row counts, and pruned chunks.
func (db *Database) Explain(sql string) (*ExplainResult, error) {
	return db.session.Explain(sql)
}

// ExplainResult is the annotated-plan outcome of Explain.
type ExplainResult = pipeline.ExplainResult

// Metrics exposes the engine's metrics registry — also queryable as the
// meta_metrics table (`SELECT * FROM meta_metrics`) and served as JSON on
// the debug endpoint when Config.DebugAddr is set.
func (db *Database) Metrics() *observe.Registry { return db.engine.Metrics() }

// Plugins exposes the plugin manager (paper §3).
func (db *Database) Plugins() *plugin.Manager { return db.plugins }

// GenerateTPCH generates and registers the eight TPC-H tables at the given
// scale factor; their chunks seal by the size model, with the bins of their
// numeric columns, as they fill — the benchmark binaries' one-step setup (paper §2.10).
func (db *Database) GenerateTPCH(scaleFactor float64, chunkSize int) error {
	return db.GenerateTPCHOpts(tpch.Config{ScaleFactor: scaleFactor, ChunkSize: chunkSize})
}

// GenerateTPCHOpts is GenerateTPCH with full control over the generator
// (date clustering for pruning experiments, JCC-H-style skew, seed).
func (db *Database) GenerateTPCHOpts(cfg tpch.Config) error {
	cfg.UseMvcc = db.engine.Config().UseMvcc
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	return tpch.Generate(db.engine.StorageManager(), cfg)
}

// TPCHConfig re-exports the generator configuration for GenerateTPCHOpts.
type TPCHConfig = tpch.Config

// TPCHQueries returns the 22 TPC-H queries in the paper's dialect.
func TPCHQueries(scaleFactor float64) map[int]string { return tpch.Queries(scaleFactor) }

// LoadCSV bulk-loads comma-separated values into a new table; the rows are
// committed "at the beginning of time" (visible to every transaction).
func (db *Database) LoadCSV(name string, defs []storage.ColumnDefinition, r io.Reader, chunkSize int) error {
	table, err := db.engine.StorageManager().LoadCSV(name, defs, r, ',', chunkSize, db.engine.Config().UseMvcc)
	if err != nil {
		return err
	}
	concurrency.MarkTableLoaded(table)
	return nil
}

// NewServer creates (without starting) a PostgreSQL-wire-protocol server over
// this database (paper §2.5): Listen, then Serve, and Shutdown to drain. The
// server's methods set the production knobs: the bounded executor pool
// (EnableExecutorPool), admission control, the slow-query log. When read
// replicas are attached (AttachReplica), eligible SELECTs are routed to them
// at the commit barrier.
func (db *Database) NewServer() *server.Server {
	srv := server.New(db.engine)
	db.repl.mu.Lock()
	routed := len(db.repl.replicas) > 0
	db.repl.mu.Unlock()
	if routed {
		srv.SetReadRouter(db)
	}
	return srv
}

// RunBenchmark executes named queries with the generic benchmark runner and
// returns the JSON-ready result (paper §2.10).
func (db *Database) RunBenchmark(name string, items []benchmark.Item, opts benchmark.Options, extra map[string]string) *benchmark.RunResult {
	return benchmark.Run(name, db.engine, items, opts, extra)
}
