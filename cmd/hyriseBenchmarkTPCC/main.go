// Command hyriseBenchmarkTPCC runs the TPC-C transaction mix (an extension:
// the paper lists TPC-C support as work in progress, §2.10). Like the
// TPC-H binary it is a one-stop solution: it generates its data, runs the
// transactions, and prints a JSON result with the full execution context.
//
//	hyriseBenchmarkTPCC -warehouses 1 -terminals 4 -transactions 1000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"hyrise/internal/benchmark"
	"hyrise/internal/pipeline"
	"hyrise/internal/storage"
	"hyrise/internal/tpcc"
)

func main() {
	var (
		warehouses   = flag.Int("warehouses", 1, "number of warehouses")
		items        = flag.Int("items", 10_000, "items per warehouse (official: 100000)")
		customers    = flag.Int("customers", 300, "customers per district (official: 3000)")
		terminals    = flag.Int("terminals", 4, "concurrent terminals")
		transactions = flag.Int("transactions", 500, "transactions per terminal")
		scheduler    = flag.Bool("scheduler", false, "enable the task scheduler")
	)
	flag.Parse()

	cfg := tpcc.DefaultConfig()
	cfg.Warehouses = *warehouses
	cfg.Items = *items
	cfg.CustomersPerDistrict = *customers
	cfg.InitialOrders = *customers

	engineCfg := pipeline.DefaultConfig()
	engineCfg.UseScheduler = *scheduler
	sm := storage.NewStorageManager()
	fmt.Fprintln(os.Stderr, "generating TPC-C data...")
	if err := tpcc.Generate(sm, cfg); err != nil {
		fatal(err)
	}
	engine := pipeline.NewEngine(engineCfg, sm)
	defer engine.Close()

	fmt.Fprintf(os.Stderr, "running %d terminals x %d transactions...\n", *terminals, *transactions)
	start := time.Now()
	var wg sync.WaitGroup
	stats := make([]tpcc.Stats, *terminals)
	errs := make([]error, *terminals)
	for i := 0; i < *terminals; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			term := tpcc.NewTerminal(engine, cfg, int64(i)+1)
			stats[i], errs[i] = term.Run(*transactions)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var total tpcc.Stats
	for i, s := range stats {
		if errs[i] != nil {
			fatal(errs[i])
		}
		total.NewOrders += s.NewOrders
		total.Payments += s.Payments
		total.OrderStatus += s.OrderStatus
		total.Aborts += s.Aborts
	}
	committed := total.NewOrders + total.Payments + total.OrderStatus

	out := map[string]any{
		"benchmark": "TPC-C",
		"context": benchmark.Context(engine, map[string]string{
			"warehouses":   fmt.Sprint(*warehouses),
			"terminals":    fmt.Sprint(*terminals),
			"transactions": fmt.Sprint(*transactions * *terminals),
		}),
		"elapsed_ms":        float64(elapsed.Microseconds()) / 1000,
		"new_orders":        total.NewOrders,
		"payments":          total.Payments,
		"order_status":      total.OrderStatus,
		"aborts":            total.Aborts,
		"committed_per_sec": float64(committed) / elapsed.Seconds(),
		"tpmC":              float64(total.NewOrders) / elapsed.Minutes(),
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
