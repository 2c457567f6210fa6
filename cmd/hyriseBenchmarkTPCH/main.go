// Command hyriseBenchmarkTPCH is the paper's one-binary TPC-H benchmark
// (§2.10): it generates its data, runs the queries, and prints a JSON
// result that includes every parameter relevant to the execution, so
// results can be communicated reproducibly.
//
// Usage:
//
//	hyriseBenchmarkTPCH -sf 0.1 -runs 3 -chunksize 100000 -encoding dict
//	hyriseBenchmarkTPCH -queries 1,6,12 -scheduler -workers 8
//	hyriseBenchmarkTPCH -custom ./mybench    # *.csv + *.schema + *.sql
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hyrise/internal/benchmark"
	"hyrise/internal/encoding"
	"hyrise/internal/pipeline"
	"hyrise/internal/storage"
	"hyrise/internal/tpch"
)

func main() {
	var (
		sf          = flag.Float64("sf", 0.1, "TPC-H scale factor")
		runs        = flag.Int("runs", 3, "measured runs per query")
		warmup      = flag.Int("warmup", 1, "warmup runs per query")
		chunkSize   = flag.Int("chunksize", storage.DefaultChunkSize, "chunk capacity in rows")
		encodingArg = flag.String("encoding", "dict", "segment encoding: dict|rle|for|none")
		compression = flag.String("compression", "fsba", "attribute vector compression: fsba|bp128")
		scheduler   = flag.Bool("scheduler", false, "enable the task scheduler")
		workers     = flag.Int("workers", 0, "scheduler workers (0 = one per core)")
		optimizer   = flag.Bool("optimizer", true, "enable the optimizer")
		mvcc        = flag.Bool("mvcc", true, "enable MVCC")
		queriesArg  = flag.String("queries", "", "comma-separated query numbers (default: all 22)")
		output      = flag.String("output", "", "write JSON to this file (default: stdout)")
		custom      = flag.String("custom", "", "directory with a custom benchmark (*.csv, *.schema, *.sql)")
		verbose     = flag.Bool("verbose", true, "print per-query progress to stderr")
	)
	flag.Parse()

	cfg := pipeline.DefaultConfig()
	cfg.UseOptimizer = *optimizer
	cfg.UseMvcc = *mvcc
	cfg.UseScheduler = *scheduler
	cfg.SchedulerWorkers = *workers
	engine := pipeline.NewEngine(cfg, nil)
	defer engine.Close()

	var items []benchmark.Item
	extra := map[string]string{"chunk_size": fmt.Sprint(*chunkSize)}

	if *custom != "" {
		loaded, err := benchmark.LoadCustomBenchmark(*custom, engine, *chunkSize)
		if err != nil {
			fatal(err)
		}
		items = loaded
		extra["benchmark_dir"] = *custom
	} else {
		enc, err := encoding.ParseEncodingType(*encodingArg)
		if err != nil {
			fatal(err)
		}
		comp := encoding.FixedSizeByteAligned
		if strings.EqualFold(*compression, "bp128") {
			comp = encoding.BitPacked128
		}
		spec := encoding.Spec{Encoding: enc, Compression: comp}

		fmt.Fprintf(os.Stderr, "generating TPC-H data at scale factor %g...\n", *sf)
		err = tpch.Generate(engine.StorageManager(), tpch.Config{
			ScaleFactor: *sf, ChunkSize: *chunkSize, UseMvcc: cfg.UseMvcc, Seed: 42,
		})
		if err != nil {
			fatal(err)
		}
		if err := tpch.EncodeAndFilter(engine.StorageManager(), spec); err != nil {
			fatal(err)
		}
		extra["scale_factor"] = fmt.Sprint(*sf)
		extra["encoding"] = spec.String()

		nums := tpch.QueryNumbers()
		if *queriesArg != "" {
			nums = nums[:0]
			for _, part := range strings.Split(*queriesArg, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil || n < 1 || n > 22 {
					fatal(fmt.Errorf("bad query number %q", part))
				}
				nums = append(nums, n)
			}
		}
		all := tpch.Queries(*sf)
		for _, n := range nums {
			items = append(items, benchmark.Item{Name: fmt.Sprintf("TPC-H %02d", n), SQL: all[n]})
		}
	}

	fmt.Fprintln(os.Stderr, "running benchmark...")
	result := benchmark.Run("TPC-H", engine, items, benchmark.Options{
		Warmup: *warmup, Runs: *runs, Verbose: *verbose,
	}, extra)

	out := os.Stdout
	if *output != "" {
		f, err := os.Create(*output)
		if err != nil {
			fatal(err)
		}
		defer func() { _ = f.Close() }()
		out = f
	}
	if err := result.WriteJSON(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
