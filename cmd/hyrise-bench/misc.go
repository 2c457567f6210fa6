package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"hyrise/internal/pipeline"
	"hyrise/internal/rowengine"
	"hyrise/internal/storage"
	"hyrise/internal/tpch"
)

// runJIT reproduces the shape of the §2.7 claim that code specialization
// helps most "when complex expressions have to be calculated": a
// scan+aggregate with a heavy arithmetic/CASE expression runs through the
// tuple-at-a-time interpreter, the per-value dynamic access path and the
// vectorized operator pipeline. (The fused closure engine that used to be a
// fourth column was deleted; see EXPERIMENTS.md §2.7.)
func runJIT(runs int) {
	fmt.Println("== §2.7: specialized (vectorized) vs unspecialized execution")
	fmt.Println("   interpreted = tuple-at-a-time row engine, dynamic = per-value virtual calls")
	fmt.Println("   (the paper's 22x baseline), vectorized = the operator pipeline.")
	queries := []struct {
		name string
		sql  string
	}{
		{"simple sum", "SELECT sum(v1) FROM numbers"},
		{"filtered sum", "SELECT sum(v1) FROM numbers WHERE v2 > 500000"},
		{"complex expression", `SELECT sum(v1 * 0.7 + v2 * 0.3 - (v1 - v2) / 4.0),
			sum(CASE WHEN v1 > v2 THEN v1 * 1.19 ELSE v2 * 0.81 END)
			FROM numbers WHERE v1 + v2 > 100000 AND v1 BETWEEN 1000 AND 990000`},
	}

	build := func(dynamic bool) (*pipeline.Session, *storage.StorageManager) {
		cfg := pipeline.DefaultConfig()
		cfg.DynamicAccess = dynamic
		cfg.PlanCacheSize = 0 // measure full pipeline work every run
		engine := pipeline.NewEngine(cfg, nil)
		s := engine.NewSession()
		mustExec(s, "CREATE TABLE numbers (v1 FLOAT NOT NULL, v2 FLOAT NOT NULL)")
		var sb strings.Builder
		const n = 1_000_000
		const batch = 10_000
		for start := 0; start < n; start += batch {
			sb.Reset()
			sb.WriteString("INSERT INTO numbers VALUES ")
			for i := start; i < start+batch; i++ {
				if i > start {
					sb.WriteString(",")
				}
				fmt.Fprintf(&sb, "(%d.0,%d.0)", i%997*1009%1000000, (i*31)%1000000)
			}
			mustExec(s, sb.String())
		}
		return s, engine.StorageManager()
	}

	dynamic, _ := build(true)
	vectorized, vectorizedSM := build(false)
	// The tuple-at-a-time interpreter is the closest analog of the
	// pre-specialization execution the paper's 22x refers to.
	interpreted := rowengine.NewFromStorage(vectorizedSM)

	fmt.Printf("%-22s %14s %13s %15s %11s %11s\n", "query", "interpret(ms)", "dynamic(ms)", "vectorized(ms)", "int/vec", "dyn/vec")
	for _, q := range queries {
		intMS := bestOf(runs, func() {
			if _, _, err := interpreted.Query(q.sql); err != nil {
				panic(err)
			}
		})
		dynMS := bestOf(runs, func() { mustExec(dynamic, q.sql) })
		vecMS := bestOf(runs, func() { mustExec(vectorized, q.sql) })
		fmt.Printf("%-22s %14.2f %13.2f %15.2f %10.2fx %10.2fx\n",
			q.name, intMS, dynMS, vecMS, intMS/vecMS, dynMS/vecMS)
	}
	fmt.Println()
}

// runSched reproduces §2.9: the cost of the scheduler at one worker and
// the scaling behaviour with more workers, against immediate execution.
func runSched(sf float64, runs int) {
	fmt.Println("== §2.9: scheduler cost and multi-threaded scalability")
	fmt.Printf("   host has %d CPU core(s); with one core this measures the scheduler's\n", runtime.NumCPU())
	fmt.Println("   overhead (the paper's \"differences between the measurements for one core")
	fmt.Println("   with and without scheduler ... the cost of the scheduler\").")
	sql := tpch.Queries(sf)[1] // Q1: scan + aggregate over lineitem, chunk-parallel

	type variant struct {
		name string
		cfg  pipeline.Config
	}
	mk := func(useSched bool, workers int) pipeline.Config {
		cfg := pipeline.DefaultConfig()
		cfg.UseScheduler = useSched
		cfg.SchedulerWorkers = workers
		return cfg
	}
	variants := []variant{
		{"immediate (no scheduler)", mk(false, 0)},
		{"scheduler, 1 worker", mk(true, 1)},
		{"scheduler, 2 workers", mk(true, 2)},
		{"scheduler, 4 workers", mk(true, 4)},
		{"scheduler, 8 workers", mk(true, 8)},
	}

	fmt.Printf("   TPC-H Q1 at scale factor %g, chunk size 25k (chunk-parallel scan+aggregate inputs)\n", sf)
	fmt.Printf("%-28s %12s %9s\n", "configuration", "best (ms)", "speedup")
	var baseline float64
	for i, v := range variants {
		engine := newTPCHEngine(v.cfg, sf, 25_000)
		session := engine.NewSession()
		ms := bestOf(runs, func() { mustExec(session, sql) })
		engine.Close()
		if i == 0 {
			baseline = ms
		}
		fmt.Printf("%-28s %12.2f %8.2fx\n", v.name, ms, baseline/ms)
	}
	fmt.Println()
}

// runCache reproduces the §2.6 plan cache effect: repeated queries skip
// translation and optimization.
func runCache() {
	fmt.Println("== §2.6: query plan cache")
	cfgOn := pipeline.DefaultConfig()
	cfgOff := pipeline.DefaultConfig()
	cfgOff.PlanCacheSize = 0

	sql := `SELECT o_orderpriority, count(*) FROM orders
		WHERE o_orderdate >= '1993-07-01' AND o_orderdate < '1993-10-01'
		GROUP BY o_orderpriority ORDER BY o_orderpriority`

	for _, v := range []struct {
		name string
		cfg  pipeline.Config
	}{{"cache on", cfgOn}, {"cache off", cfgOff}} {
		engine := newTPCHEngine(v.cfg, 0.01, 10_000)
		session := engine.NewSession()
		mustExec(session, sql) // populate cache / warm up
		const reps = 200
		start := time.Now()
		var planning time.Duration
		for i := 0; i < reps; i++ {
			res, err := session.ExecuteOne(sql)
			if err != nil {
				panic(err)
			}
			planning += res.Timing.Parse + res.Timing.Translate + res.Timing.Optimize + res.Timing.ToPQP
		}
		total := time.Since(start)
		hits, misses := engine.PlanCacheStats()
		fmt.Printf("%-10s %4d reps: total %8.2f ms, planning share %8.2f ms, cache hits/misses %d/%d\n",
			v.name, reps, float64(total.Microseconds())/1000, float64(planning.Microseconds())/1000, hits, misses)
		engine.Close()
	}
	fmt.Println()
}

func newTPCHEngine(cfg pipeline.Config, sf float64, chunkSize int) *pipeline.Engine {
	engine := pipeline.NewEngine(cfg, nil)
	must(tpch.Generate(engine.StorageManager(), tpch.Config{ScaleFactor: sf, ChunkSize: chunkSize, UseMvcc: cfg.UseMvcc, Seed: 42}))
	must(tpch.EncodeAndFilter(engine.StorageManager(), tpch.DefaultEncoding()))
	return engine
}

func mustExec(s *pipeline.Session, sql string) {
	if _, err := s.ExecuteOne(sql); err != nil {
		panic(err)
	}
}
