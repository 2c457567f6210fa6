// Command bench is the repository benchmark: four closed-loop end-to-end
// workloads over the engine's real entry points, each run in a fresh child
// process, plus a traced pass that attributes time to the internal packages.
// See README.md in this directory and BENCHMARK.json at the repository root.
//
//	bench --workload tpch_power --seed 1 --seconds 25 --trace 0
//	bench --workload all --trace 1
//	bench selfcheck --sets 2 --runs 10
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"time"
)

// childTimeout bounds one child process; the driver allows a run 180 s.
const childTimeout = 150 * time.Second

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "all", "tpch_power, pgwire_point, tpcc_durable, htap_ingest or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&o.seconds, "seconds", referenceSeconds, "target length of the timed section; scales the fixed operation counts")
	fs.IntVar(&trace, "trace", 0, "0: timed pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	fs.StringVar(&o.scale, "scale", "full", "full or tiny (smoke test)")
	fs.StringVar(&o.root, "root", ".", "repository checkout the benchmark runs in and writes under")
	fs.StringVar(&o.spans, "spans", "", "span file of the traced pass (default .bench_build/trace/<workload>-spans.jsonl)")
	fs.BoolVar(&o.updateGolden, "update-golden", false, "record the tpch_power result digests of this seed in golden/ and exit")
	child := fs.Bool("child", false, "internal: run the pass in this process")
	fs.StringVar(&o.scratch, "scratch", "", "internal: directory this process may write to")
	_ = fs.Parse(os.Args[1:])
	o.trace = trace != 0
	// run.sh puts --root first, so the subcommand follows the flags.
	if fs.Arg(0) == "selfcheck" {
		os.Exit(selfcheck(o.root, fs.Args()[1:]))
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		os.Exit(2)
	}

	if err := prepare(&o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *child {
		out, err := runWorkload(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		_ = json.NewEncoder(os.Stdout).Encode(out)
		return
	}

	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}
	ok, spans := true, o.spans
	for _, name := range names {
		o.workload = name
		if spans == "" {
			o.spans = filepath.Join(o.root, ".bench_build", "trace", name+"-spans.jsonl")
		}
		out, err := runIsolated(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if o.updateGolden {
			fmt.Fprintf(os.Stderr, "bench: recorded %s seed %d in %s\n", name, o.seed, goldenPath(o))
			continue
		}
		report(os.Stderr, name, o, out)
		printResult(name, len(names) > 1, o.trace, out)
		ok = ok && out.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// prepare resolves paths and sizes.
func prepare(o *options) error {
	root, err := filepath.Abs(o.root)
	if err != nil {
		return err
	}
	o.root = root
	if o.sizes, err = sizesFor(o.scale, o.seconds); err != nil {
		return err
	}
	if o.scratch == "" {
		o.scratch = filepath.Join(root, ".bench_build", "run-"+strconv.Itoa(os.Getpid()))
	}
	return nil
}

// runIsolated runs one pass of one workload in a fresh child process.
func runIsolated(o options) (*outcome, error) {
	defer os.RemoveAll(o.scratch)
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{
		"--child", "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.Itoa(o.seconds), "--scale", o.scale, "--root", o.root,
		"--scratch", o.scratch, "--spans", o.spans,
	}
	if o.trace {
		args = append(args, "--trace", "1")
	}
	if o.updateGolden {
		args = append(args, "--update-golden")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	// MADV_FREE instead of MADV_DONTNEED: the runtime hands freed heap back
	// lazily, so the timed section does not re-fault ~100 MB/s of pages. On
	// the reference microVM that fault path costs tpch_power 7 % of its wall
	// time (alternating runs, 17.5 against 16.4 queries/s).
	cmd.Env = append(os.Environ(), "GODEBUG=madvdontneed=0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, fmt.Errorf("%s: child exceeded %v", o.workload, childTimeout)
		}
		return nil, fmt.Errorf("%s: child: %w", o.workload, err)
	}
	var out outcome
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &out); err != nil {
		return nil, fmt.Errorf("%s: child output: %w", o.workload, err)
	}
	return &out, nil
}

// printResult writes the contract's result object as one line on stdout.
func printResult(name string, tagged, trace bool, out *outcome) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if trace {
		for _, l := range perLayer {
			metrics[l.name] = value{out.Metrics[l.name], l.unit}
		}
	} else {
		for n, unit := range endToEndUnits {
			metrics[n] = value{out.Metrics[n], unit}
		}
	}
	result := map[string]any{
		"correct": out.Correct, "attempted": out.Attempted, "failed": out.Failed, "metrics": metrics,
	}
	if tagged {
		result["workload"] = name
	}
	_ = json.NewEncoder(os.Stdout).Encode(result)
}

// report prints every metric by name and unit for a human reader.
func report(f *os.File, name string, o options, out *outcome) {
	fmt.Fprintf(f, "\n%s seed=%d correct=%v attempted=%d failed=%d stream=%s\n",
		name, o.seed, out.Correct, out.Attempted, out.Failed, out.StreamHash)
	if out.Error != "" {
		fmt.Fprintf(f, "  first error: %s\n", out.Error)
	}
	if o.trace {
		for _, l := range perLayer {
			fmt.Fprintf(f, "  %-34s %14.4f %s\n", l.name, out.Metrics[l.name], l.unit)
		}
		fmt.Fprintf(f, "  samples of the timing metrics (untraced blocks): op=%d alt=%d\n", out.Samples["op"], out.Samples["alt"])
		fmt.Fprintf(f, "  spans: %s\n", o.spans)
		return
	}
	units := map[string]string{}
	maps.Copy(units, endToEndUnits)
	maps.Copy(units, timingUnits)
	for _, n := range slices.Sorted(maps.Keys(units)) {
		gated := ""
		if _, ok := endToEndUnits[n]; ok {
			gated = "  (end-to-end)"
		}
		fmt.Fprintf(f, "  %-14s %14.4f %s%s\n", n, out.Metrics[n], units[n], gated)
	}
	fmt.Fprintf(f, "  samples: op=%d alt=%d\n", out.Samples["op"], out.Samples["alt"])
}
