package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"

	"hyrise/internal/benchmark"
	"hyrise/internal/encoding"
	"hyrise/internal/pipeline"
	"hyrise/internal/storage"
	"hyrise/internal/tpcc"
	"hyrise/internal/tpch"
)

// The paper's benchmark runner (§2.10): one command generates its data, runs
// the queries and prints a JSON result that includes every parameter relevant
// to the execution, so results can be communicated reproducibly.
//
//	hyrise-bench tpch -sf 0.1 -runs 3 -chunksize 100000 -encoding dict
//	hyrise-bench tpch -queries 1,6,12 -scheduler -workers 8
//	hyrise-bench tpch -custom ./mybench    # *.csv + *.schema + *.sql
//	hyrise-bench tpcc -warehouses 1 -terminals 4 -transactions 1000

func (h *harness) tpch(fs *flag.FlagSet, args []string, progress io.Writer) error {
	var (
		warmup      = fs.Int("warmup", 1, "warmup runs per query")
		chunkSize   = fs.Int("chunksize", storage.DefaultChunkSize, "chunk capacity in rows")
		encodingArg = fs.String("encoding", "dict", "segment encoding: dict|rle|for|none")
		compression = fs.String("compression", "fsba", "attribute vector compression: fsba|bp128")
		scheduler   = fs.Bool("scheduler", false, "enable the task scheduler")
		workers     = fs.Int("workers", 0, "scheduler workers (0 = one per core)")
		optimizer   = fs.Bool("optimizer", true, "enable the optimizer")
		mvcc        = fs.Bool("mvcc", true, "enable MVCC")
		queriesArg  = fs.String("queries", "", "comma-separated query numbers (default: all 22)")
		output      = fs.String("output", "", "write JSON to this file (default: stdout)")
		custom      = fs.String("custom", "", "directory with a custom benchmark (*.csv, *.schema, *.sql)")
		verbose     = fs.Bool("verbose", true, "print per-query progress to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := pipeline.DefaultConfig()
	cfg.UseOptimizer = *optimizer
	cfg.UseMvcc = *mvcc
	cfg.UseScheduler = *scheduler
	cfg.SchedulerWorkers = *workers

	var engine *pipeline.Engine
	var items []benchmark.Item
	extra := map[string]string{"chunk_size": fmt.Sprint(*chunkSize)}
	if *custom != "" {
		engine = pipeline.NewEngine(cfg, nil)
		defer engine.Close()
		loaded, err := benchmark.LoadCustomBenchmark(*custom, engine, *chunkSize)
		if err != nil {
			return err
		}
		items = loaded
		extra["benchmark_dir"] = *custom
	} else {
		enc, err := encoding.ParseEncodingType(*encodingArg)
		if err != nil {
			return err
		}
		spec := encoding.Spec{Encoding: enc, Compression: encoding.FixedSizeByteAligned}
		if strings.EqualFold(*compression, "bp128") {
			spec.Compression = encoding.BitPacked128
		}
		nums := tpch.QueryNumbers()
		if *queriesArg != "" {
			nums = nums[:0]
			for _, part := range strings.Split(*queriesArg, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil || n < 1 || n > 22 {
					return fmt.Errorf("bad query number %q", part)
				}
				nums = append(nums, n)
			}
		}
		fmt.Fprintf(progress, "generating TPC-H data at scale factor %g...\n", h.sf)
		if engine, err = newTPCHEngine(cfg, tpch.Config{ScaleFactor: h.sf, ChunkSize: *chunkSize}, &spec); err != nil {
			return err
		}
		defer engine.Close()
		extra["scale_factor"] = fmt.Sprint(h.sf)
		extra["encoding"] = spec.String()
		items = tpchItems(h.sf, nums)
	}

	fmt.Fprintln(progress, "running benchmark...")
	result := benchmark.Run("TPC-H", engine, items, benchmark.Options{
		Warmup: *warmup, Runs: h.runs, Verbose: *verbose,
	}, extra)
	if *output == "" {
		return result.WriteJSON(h.out)
	}
	f, err := os.Create(*output)
	if err != nil {
		return err
	}
	if err := result.WriteJSON(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

// tpcc runs the TPC-C transaction mix (an extension: the paper lists TPC-C
// support as work in progress, §2.10).
func (h *harness) tpcc(fs *flag.FlagSet, args []string, progress io.Writer) error {
	var (
		warehouses   = fs.Int("warehouses", 1, "number of warehouses")
		items        = fs.Int("items", 10_000, "items per warehouse (official: 100000)")
		customers    = fs.Int("customers", 300, "customers per district (official: 3000)")
		terminals    = fs.Int("terminals", 4, "concurrent terminals")
		transactions = fs.Int("transactions", 500, "transactions per terminal")
		scheduler    = fs.Bool("scheduler", false, "enable the task scheduler")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := tpcc.DefaultConfig()
	cfg.Warehouses = *warehouses
	cfg.Items = *items
	cfg.CustomersPerDistrict = *customers
	cfg.InitialOrders = *customers

	engineCfg := pipeline.DefaultConfig()
	engineCfg.UseScheduler = *scheduler
	engine := pipeline.NewEngine(engineCfg, nil)
	defer engine.Close()
	fmt.Fprintln(progress, "generating TPC-C data...")
	if err := tpcc.Generate(engine.StorageManager(), cfg); err != nil {
		return err
	}

	fmt.Fprintf(progress, "running %d terminals x %d transactions...\n", *terminals, *transactions)
	var total tpcc.Stats
	mix := benchmark.Item{Name: "TPC-C mix", Do: func() (int, error) {
		var wg sync.WaitGroup
		stats := make([]tpcc.Stats, *terminals)
		errs := make([]error, *terminals)
		for i := 0; i < *terminals; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				stats[i], errs[i] = tpcc.NewTerminal(engine, cfg, int64(i)+1).Run(*transactions)
			}()
		}
		wg.Wait()
		for i, s := range stats {
			if errs[i] != nil {
				return 0, errs[i]
			}
			total.NewOrders += s.NewOrders
			total.Payments += s.Payments
			total.OrderStatus += s.OrderStatus
			total.Aborts += s.Aborts
		}
		return total.NewOrders + total.Payments + total.OrderStatus, nil
	}}
	res := benchmark.Run("TPC-C", engine, []benchmark.Item{mix}, benchmark.Options{Runs: 1}, map[string]string{
		"warehouses":   fmt.Sprint(*warehouses),
		"terminals":    fmt.Sprint(*terminals),
		"transactions": fmt.Sprint(*transactions * *terminals),
	})
	run := res.Queries[0]
	if run.Error != "" {
		return fmt.Errorf("%s", run.Error)
	}
	enc := json.NewEncoder(h.out)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{
		"benchmark":         res.Benchmark,
		"context":           res.Context,
		"elapsed_ms":        run.MinMillis,
		"new_orders":        total.NewOrders,
		"payments":          total.Payments,
		"order_status":      total.OrderStatus,
		"aborts":            total.Aborts,
		"committed_per_sec": float64(run.Rows) / (run.MinMillis / 1000),
		"tpmC":              float64(total.NewOrders) / (run.MinMillis / 60_000),
	})
}
