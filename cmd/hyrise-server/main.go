// Command hyrise-server starts the PostgreSQL-wire-protocol server
// (paper §2.5). Connect with psql:
//
//	hyrise-server -addr 127.0.0.1:5433 -tpch 0.01
//	psql -h 127.0.0.1 -p 5433 -U hyrise
//
// Replication: a durable primary ships its WAL to followers.
//
//	hyrise-server -data-dir /var/lib/hyrise -replication-addr 127.0.0.1:5444
//	hyrise-server -addr 127.0.0.1:5434 -replica-of 127.0.0.1:5444
//
// A follower serves reads at the primary's commit barrier and rejects writes
// with SQLSTATE 25006. With -replicas N, the primary additionally attaches N
// in-process read replicas and routes eligible SELECTs to them.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hyrise"
	"hyrise/internal/pipeline"
	"hyrise/internal/server"
	"hyrise/internal/tpch"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:5433", "listen address")
		tpchSF      = flag.Float64("tpch", 0, "preload TPC-H data at this scale factor (0 = none)")
		scheduler   = flag.Bool("scheduler", false, "enable the task scheduler")
		debugAddr   = flag.String("debug-addr", "", "serve pprof and /metrics on this address (empty = disabled)")
		slowLog     = flag.Bool("slow-log", false, "log slow queries to stderr")
		slowThr     = flag.Duration("slow-threshold", server.DefaultSlowQueryThreshold, "slow-query log threshold")
		slowTrace   = flag.Bool("slow-log-trace", false, "attach each slow query's EXPLAIN ANALYZE trace to its log entry (implies tracing)")
		stmtTimeout = flag.Duration("statement-timeout", 0, "cancel statements running longer than this (0 = no timeout)")
		lockWait    = flag.Duration("lock-wait", 0, "wait up to this long for a row lock held by another transaction before aborting with a conflict (0 = abort immediately)")
		maxConns    = flag.Int("max-connections", 0, "refuse connections beyond this many concurrent sessions with SQLSTATE 53300 (0 = unlimited)")
		admitWait   = flag.Duration("admission-wait", 0, "wait up to this long for a free session slot before refusing with 53300 (0 = refuse immediately)")
		dataDir     = flag.String("data-dir", "", "durable data directory: restore snapshot+WAL on boot, log commits (empty = in-memory)")
		syncMode    = flag.String("sync", "commit", "WAL sync mode: commit (fsync per commit group), batch (background fsync), off")
		snapEvery   = flag.Duration("snapshot-interval", 0, "checkpoint snapshots at this cadence, truncating the WAL (0 = only on demand)")
		replAddr    = flag.String("replication-addr", "", "serve WAL shipping to followers on this address (requires -data-dir)")
		replicaOf   = flag.String("replica-of", "", "run as a read-only replica of the primary at this replication address")
		replicas    = flag.Int("replicas", 0, "attach this many in-process read replicas and route SELECTs to them (requires -data-dir)")
		workers     = flag.Int("workers", 0, "bounded executor pool: this many reads at once, half as many writes; a full class makes the statement wait (0 = unbounded)")
		slowQueue   = flag.Duration("slow-queue-threshold", server.DefaultSlowQueueThreshold, "route statements whose mean latency exceeds this to the slow class")
		drainWait   = flag.Duration("drain-timeout", 10*time.Second, "on SIGTERM/SIGINT, let in-flight statements finish for up to this long before force-closing")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	cfg := pipeline.DefaultConfig()
	cfg.UseScheduler = *scheduler
	cfg.DebugAddr = *debugAddr
	cfg.StatementTimeout = *stmtTimeout
	cfg.LockWaitTimeout = *lockWait
	cfg.DataDir = *dataDir
	cfg.SyncMode = *syncMode
	cfg.SnapshotInterval = *snapEvery

	var (
		db  *hyrise.Database
		err error
	)
	if *replicaOf != "" {
		db, err = hyrise.OpenReplica(cfg, *replicaOf)
	} else {
		db, err = hyrise.OpenErr(cfg)
	}
	if err != nil {
		fail(err)
	}
	defer db.Close()
	engine := db.Engine()
	if cfg.DataDir != "" {
		fmt.Fprintf(os.Stderr, "durable mode: data-dir=%s sync=%s\n", cfg.DataDir, cfg.SyncMode)
	}
	if *replicaOf != "" {
		fmt.Fprintf(os.Stderr, "read-only replica of %s (writes rejected with SQLSTATE 25006)\n", *replicaOf)
	}
	if d := engine.DebugAddr(); d != "" {
		fmt.Fprintf(os.Stderr, "debug endpoint on http://%s (pprof, OpenMetrics /metrics, JSON /metrics.json)\n", d)
	}

	if *tpchSF > 0 && *replicaOf == "" {
		fmt.Fprintf(os.Stderr, "loading TPC-H at scale factor %g...\n", *tpchSF)
		if err := tpch.Generate(engine.StorageManager(), tpch.Config{ScaleFactor: *tpchSF, UseMvcc: cfg.UseMvcc, Seed: 42}); err != nil {
			fail(err)
		}
		// Bulk loads bypass the WAL; checkpoint so the generated data is in
		// the snapshot and survives restarts (and reaches followers).
		if engine.Durable() {
			if err := engine.Checkpoint(); err != nil {
				fail(err)
			}
		}
	}

	if *replAddr != "" {
		actual, err := db.ServeReplication(*replAddr)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "replication listener on %s (WAL shipping to followers)\n", actual)
	}
	for i := 0; i < *replicas; i++ {
		// In-process replicas are in-memory: they bootstrap from the
		// primary's snapshot and tail its WAL, not their own disk.
		rcfg := pipeline.DefaultConfig()
		rcfg.UseScheduler = *scheduler
		if _, err := db.AttachReplica(rcfg); err != nil {
			fail(err)
		}
	}
	if *replicas > 0 {
		fmt.Fprintf(os.Stderr, "attached %d in-process read replica(s); routing SELECTs at the commit barrier\n", *replicas)
	}

	srv := db.NewServer()
	if *slowLog || *slowTrace {
		srv.EnableSlowQueryLog(os.Stderr, *slowThr)
	}
	if *slowTrace {
		srv.EnableSlowQueryTrace()
	}
	if *maxConns > 0 {
		srv.SetMaxConnections(*maxConns)
	}
	if *admitWait > 0 {
		srv.SetAdmissionWait(*admitWait)
	}
	if *workers > 0 {
		srv.EnableExecutorPool(*workers, *slowQueue)
		fmt.Fprintf(os.Stderr, "executor pool: %d read slots, per-class slots (meta_executor_pool)\n", *workers)
	}
	actual, err := srv.Listen(*addr)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "hyrise-server listening on %s (PostgreSQL wire protocol)\n", actual)
	fmt.Fprintf(os.Stderr, "connect with: psql -h %s\n", actual)

	// SIGTERM/SIGINT drain gracefully: stop accepting, let in-flight
	// statements finish under the deadline, then force-close stragglers.
	// Serve returns as soon as the listener closes, so main waits for the
	// drain itself before exiting.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	sigReceived := make(chan struct{})
	drainDone := make(chan struct{})
	go func() {
		sig := <-sigCh
		close(sigReceived)
		fmt.Fprintf(os.Stderr, "%s: draining connections (timeout %v)\n", sig, *drainWait)
		srv.Shutdown(*drainWait)
		close(drainDone)
	}()
	err = srv.Serve()
	select {
	case <-sigReceived:
		<-drainDone
	default:
	}
	if err != nil {
		fail(err)
	}
	fmt.Fprintln(os.Stderr, "server drained")
}
