// Analytics: the workload the paper's evaluation is built around — TPC-H
// queries over generated data, with chunk pruning, encodings, and the plan
// cache at work. Run with a scale factor argument, e.g.:
//
//	go run ./examples/analytics 0.01
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"hyrise"
)

func main() {
	sf := 0.01
	if len(os.Args) > 1 {
		parsed, err := strconv.ParseFloat(os.Args[1], 64)
		if err != nil {
			log.Fatalf("bad scale factor %q", os.Args[1])
		}
		sf = parsed
	}

	db := hyrise.Open(hyrise.DefaultConfig())
	defer db.Close()

	// ClusterDates generates orders in ingestion order, the regime where
	// min-max filters can prune date predicates (see DESIGN.md S7).
	fmt.Printf("generating TPC-H at scale factor %g (dictionary encoding, pruning filters)...\n", sf)
	start := time.Now()
	if err := db.GenerateTPCHOpts(hyrise.TPCHConfig{
		ScaleFactor: sf, ChunkSize: 10_000, ClusterDates: true,
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded in %v\n\n", time.Since(start).Round(time.Millisecond))

	// The pricing summary report (TPC-H Q1): the classic scan-heavy
	// aggregation the paper benchmarks.
	queries := hyrise.TPCHQueries(sf)
	fmt.Println("== TPC-H Q1: pricing summary report")
	runTimed(db, queries[1])

	// Chunk pruning at work: a date-selective scan reads only the chunks
	// whose min-max filters overlap the predicate (paper §2.4).
	fmt.Println("== chunk pruning: shipments of a single week")
	sql := `SELECT count(*), sum(l_extendedprice) FROM lineitem
		WHERE l_shipdate BETWEEN '1994-03-01' AND '1994-03-07'`
	runTimed(db, sql)
	ex, err := db.Explain(sql)
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(ex.Text, "\n") {
		if strings.Contains(line, "pruned=") {
			fmt.Println("   plan:", strings.TrimSpace(line))
		}
	}
	fmt.Println()

	// The plan cache: the second execution of the same text skips parsing,
	// translation, and optimization (paper §2.6).
	fmt.Println("== plan cache effect on repeated queries")
	for i := 0; i < 2; i++ {
		res, err := db.Query(queries[6])
		if err != nil {
			log.Fatal(err)
		}
		t := res.Timing
		fmt.Printf("   run %d: planning %v, execution %v (cache hit: %v)\n",
			i+1, (t.Parse + t.Translate + t.Optimize + t.ToPQP).Round(time.Microsecond),
			t.Execute.Round(time.Microsecond), t.CacheHit)
	}
	fmt.Println()

	// A complex join query end to end.
	fmt.Println("== TPC-H Q5: local supplier volume (6-way join)")
	runTimed(db, queries[5])
}

func runTimed(db *hyrise.Database, sql string) {
	start := time.Now()
	res, err := db.Query(sql)
	if err != nil {
		log.Fatal(err)
	}
	rows := hyrise.Rows(res)
	fmt.Printf("   %d rows in %v\n", len(rows), time.Since(start).Round(time.Microsecond))
	for i, row := range rows {
		if i >= 5 {
			fmt.Printf("   ... (%d more)\n", len(rows)-5)
			break
		}
		fmt.Println("  ", strings.Join(row, " | "))
	}
	fmt.Println()
}
