// Command hyrise-bench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index):
//
//	hyrise-bench fig3a             encoding framework: full vs positional materialization
//	hyrise-bench fig3b             static vs dynamic polymorphism
//	hyrise-bench fig6  [-sf 0.1]   TPC-H per-query comparison across engines
//	hyrise-bench fig7  [-sf 0.1]   throughput vs chunk capacity
//	hyrise-bench fig7mem [-sf 0.1] memory footprint vs chunk capacity
//	hyrise-bench jit               interpreted vs dynamic vs vectorized execution
//	hyrise-bench sched             scheduler on/off and scalability
//	hyrise-bench cache             query plan cache effect
//	hyrise-bench all               everything above
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	sf := fs.Float64("sf", 0.1, "TPC-H scale factor")
	runs := fs.Int("runs", 3, "measured runs per data point")
	_ = fs.Parse(os.Args[2:])

	switch cmd {
	case "fig3a":
		runFig3a()
	case "fig3b":
		runFig3b()
	case "fig6":
		runFig6(*sf, *runs)
	case "fig7":
		runFig7(*sf, *runs)
	case "fig7mem":
		runFig7Mem(*sf)
	case "jit":
		runJIT(*runs)
	case "sched":
		runSched(*sf, *runs)
	case "cache":
		runCache()
	case "all":
		runFig3a()
		runFig3b()
		runFig6(*sf, *runs)
		runFig7(*sf, *runs)
		runFig7Mem(*sf)
		runJIT(*runs)
		runSched(*sf, *runs)
		runCache()
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: hyrise-bench fig3a|fig3b|fig6|fig7|fig7mem|jit|sched|cache|all [-sf 0.1] [-runs 3]")
}
