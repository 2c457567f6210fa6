// Command benchdiff turns `go test -bench` output into a stable JSON
// snapshot and compares two snapshots with a regression threshold. It is the
// engine of the CI benchmark gate:
//
//	go test ./internal/benchmark -bench '^BenchmarkMicro' -benchtime=1x -count=5 | \
//	    benchdiff parse -out BENCH_PR.json
//	benchdiff compare -baseline BENCH_BASELINE.json -current BENCH_PR.json -threshold 25
//	benchdiff speedup -current BENCH_PR.json -require BenchmarkMicroSort=1.3
//
// parse keeps the MINIMUM ns/op across repeated runs of the same benchmark
// (-count=N): the minimum is the least noisy estimator of the true cost on
// shared CI hardware. compare exits non-zero when any benchmark present in
// both snapshots regressed by more than the threshold percentage in ns/op,
// allocs/op or B/op; benchmarks only present in the current run are registered, not
// gated (they gate once the baseline is refreshed). speedup reads a single
// snapshot, pairs every X/serial sub-benchmark with its X/parallel (or
// X/radix) sibling, and exits non-zero when a -require'd pair is missing or
// below its minimum serial ÷ parallel ratio — the multi-core CI lane's proof
// that parallel paths actually beat serial ones.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"hyrise/internal/observe"
)

// Result is one benchmark's snapshot entry.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	Runs        int     `json:"runs"`
}

// Snapshot is the JSON document benchdiff reads and writes.
type Snapshot struct {
	GoVersion  string            `json:"go_version,omitempty"`
	GOOS       string            `json:"goos,omitempty"`
	GOARCH     string            `json:"goarch,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "parse":
		cmdParse(os.Args[2:])
	case "compare":
		cmdCompare(os.Args[2:])
	case "speedup":
		cmdSpeedup(os.Args[2:])
	case "promlint":
		cmdPromlint()
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  benchdiff parse [-out file.json] < go-test-bench-output
  benchdiff compare -baseline base.json -current cur.json [-threshold pct]
  benchdiff speedup -current cur.json [-min ratio] [-require Name=ratio]...
  benchdiff promlint < openmetrics-exposition
`)
	os.Exit(2)
}

// cmdPromlint validates an OpenMetrics text exposition read from stdin —
// the CI smoke test pipes a live /metrics scrape through it.
func cmdPromlint() {
	data, err := io.ReadAll(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "promlint: read stdin:", err)
		os.Exit(1)
	}
	if len(data) == 0 {
		fmt.Fprintln(os.Stderr, "promlint: empty exposition")
		os.Exit(1)
	}
	if err := observe.LintOpenMetrics(string(data)); err != nil {
		fmt.Fprintln(os.Stderr, "promlint:", err)
		os.Exit(1)
	}
	fmt.Printf("promlint: ok (%d bytes)\n", len(data))
}

// benchLine matches e.g.
//
//	BenchmarkMicroJoin/radix-8   3   12345678 ns/op   4096 B/op   12 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+([\d.]+) allocs/op)?`)

func cmdParse(args []string) {
	fs := flag.NewFlagSet("parse", flag.ExitOnError)
	out := fs.String("out", "", "output JSON file (default stdout)")
	_ = fs.Parse(args)

	snap, err := parseBench(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(snap.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchdiff: parsed %d benchmarks\n", len(snap.Benchmarks))
}

func parseBench(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmarks: map[string]Result{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := m[1]
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		res := Result{NsPerOp: ns, Runs: 1}
		if m[4] != "" {
			res.BytesPerOp, _ = strconv.ParseFloat(m[4], 64)
		}
		if m[5] != "" {
			res.AllocsPerOp, _ = strconv.ParseFloat(m[5], 64)
		}
		// -count=N repeats lines: keep the minimum as the noise-robust
		// estimate, and count the runs.
		if prev, ok := snap.Benchmarks[name]; ok {
			res.Runs = prev.Runs + 1
			if prev.NsPerOp < res.NsPerOp {
				res.NsPerOp = prev.NsPerOp
			}
			if prev.AllocsPerOp != 0 && (res.AllocsPerOp == 0 || prev.AllocsPerOp < res.AllocsPerOp) {
				res.AllocsPerOp = prev.AllocsPerOp
			}
			if prev.BytesPerOp != 0 && (res.BytesPerOp == 0 || prev.BytesPerOp < res.BytesPerOp) {
				res.BytesPerOp = prev.BytesPerOp
			}
		}
		snap.Benchmarks[name] = res
	}
	return snap, sc.Err()
}

func cmdCompare(args []string) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	basePath := fs.String("baseline", "", "baseline snapshot JSON")
	curPath := fs.String("current", "", "current snapshot JSON")
	threshold := fs.Float64("threshold", 25, "max allowed ns/op, allocs/op and B/op regression in percent")
	_ = fs.Parse(args)
	if *basePath == "" || *curPath == "" {
		usage()
	}

	base, err := loadSnapshot(*basePath)
	if err != nil {
		fatal(err)
	}
	cur, err := loadSnapshot(*curPath)
	if err != nil {
		fatal(err)
	}

	if failed := runCompare(base, cur, *threshold, os.Stdout); failed > 0 {
		fmt.Printf("\nbenchdiff: %d benchmark(s) regressed more than %.0f%% vs baseline\n", failed, *threshold)
		os.Exit(1)
	}
	fmt.Printf("\nbenchdiff: no regression beyond %.0f%%\n", *threshold)
}

// runCompare writes the per-benchmark comparison and returns how many
// benchmarks present in both snapshots regressed by more than threshold
// percent — in ns/op, or in allocs/op or B/op where both snapshots recorded
// them (-benchmem). Allocation counts and sizes are deterministic, so one
// threshold serves all three: it bounds time against noise and allocations
// against real growth.
func runCompare(base, cur *Snapshot, threshold float64, w io.Writer) int {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := 0
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			fmt.Fprintf(w, "MISSING  %-45s (in baseline, not in current run)\n", name)
			continue
		}
		delta := (c.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		regressed := delta > threshold
		mem := ""
		for _, m := range []struct {
			unit string
			b, c float64
		}{{"allocs/op", b.AllocsPerOp, c.AllocsPerOp}, {"B/op", b.BytesPerOp, c.BytesPerOp}} {
			if m.b > 0 && m.c > 0 {
				d := (m.c - m.b) / m.b * 100
				regressed = regressed || d > threshold
				mem += fmt.Sprintf("  %10.0f -> %10.0f %s  (%+.1f%%)", m.b, m.c, m.unit, d)
			}
		}
		status := "ok"
		if regressed {
			status = "REGRESSED"
			failed++
		}
		fmt.Fprintf(w, "%-9s %-45s %12.0f -> %12.0f ns/op  (%+.1f%%)%s\n", status, name, b.NsPerOp, c.NsPerOp, delta, mem)
	}
	var newNames []string
	for name := range cur.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			newNames = append(newNames, name)
		}
	}
	sort.Strings(newNames)
	for _, name := range newNames {
		// A benchmark missing from the baseline is registered, not gated: it
		// starts gating regressions once the baseline is refreshed, and its
		// absence never fails the build.
		fmt.Fprintf(w, "NEW      %-45s %12.0f ns/op (registered, not gated — refresh baseline to gate)\n", name, cur.Benchmarks[name].NsPerOp)
	}
	return failed
}

// requirement is one -require Name=ratio gate for the speedup subcommand.
type requirement struct {
	Name string
	Min  float64
}

// requireFlags collects repeatable -require flags.
type requireFlags []requirement

func (r *requireFlags) String() string {
	parts := make([]string, len(*r))
	for i, req := range *r {
		parts[i] = fmt.Sprintf("%s=%g", req.Name, req.Min)
	}
	return strings.Join(parts, ",")
}

func (r *requireFlags) Set(s string) error {
	name, ratio, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want Name=ratio, got %q", s)
	}
	min, err := strconv.ParseFloat(ratio, 64)
	if err != nil || min <= 0 {
		return fmt.Errorf("bad ratio in %q", s)
	}
	*r = append(*r, requirement{Name: name, Min: min})
	return nil
}

func cmdSpeedup(args []string) {
	fs := flag.NewFlagSet("speedup", flag.ExitOnError)
	curPath := fs.String("current", "", "snapshot JSON containing */serial and */parallel (or */radix) sub-benchmarks")
	minAll := fs.Float64("min", 0, "minimum speedup for every detected pair (0 = report only)")
	var reqs requireFlags
	fs.Var(&reqs, "require", "Name=ratio minimum speedup for one benchmark (repeatable)")
	_ = fs.Parse(args)
	if *curPath == "" {
		usage()
	}
	cur, err := loadSnapshot(*curPath)
	if err != nil {
		fatal(err)
	}
	if failed := runSpeedup(cur, *minAll, reqs, os.Stdout); failed > 0 {
		fmt.Printf("\nbenchdiff: %d speedup gate(s) failed\n", failed)
		os.Exit(1)
	}
	fmt.Printf("\nbenchdiff: all speedup gates passed\n")
}

// speedupPair is a detected serial/parallel sibling pair.
type speedupPair struct {
	serialNS   float64
	parallelNS float64
	variant    string // the sub-benchmark name paired against serial
}

// speedupVariants are the sub-benchmark names accepted as the parallel side
// of a pair, in preference order.
var speedupVariants = []string{"parallel", "radix"}

// detectSpeedupPairs pairs every X/serial entry with its X/parallel (or
// X/radix) sibling, keyed by the parent benchmark name X.
func detectSpeedupPairs(snap *Snapshot) map[string]speedupPair {
	pairs := map[string]speedupPair{}
	for name, res := range snap.Benchmarks {
		parent, ok := strings.CutSuffix(name, "/serial")
		if !ok {
			continue
		}
		for _, v := range speedupVariants {
			if sib, ok := snap.Benchmarks[parent+"/"+v]; ok {
				pairs[parent] = speedupPair{serialNS: res.NsPerOp, parallelNS: sib.NsPerOp, variant: v}
				break
			}
		}
	}
	return pairs
}

// runSpeedup reports the serial ÷ parallel ratio of every detected pair and
// returns how many gates failed: a pair below its required minimum, or a
// -require'd benchmark with no pair in the snapshot (a gate that cannot run
// must fail loudly — otherwise a renamed benchmark silently stops gating).
// Detected pairs without a specific requirement are gated by minAll (0 =
// report only).
func runSpeedup(snap *Snapshot, minAll float64, reqs []requirement, w io.Writer) int {
	pairs := detectSpeedupPairs(snap)
	required := make(map[string]float64, len(reqs))
	for _, r := range reqs {
		required[r.Name] = r.Min
	}

	names := make([]string, 0, len(pairs))
	for name := range pairs {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := 0
	for _, name := range names {
		p := pairs[name]
		min := minAll
		if m, ok := required[name]; ok {
			min = m
			delete(required, name)
		}
		ratio := 0.0
		if p.parallelNS > 0 {
			ratio = p.serialNS / p.parallelNS
		}
		status := "ok"
		switch {
		case min <= 0:
			status = "report"
		case ratio < min:
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "%-7s %-45s serial %12.0f ns/op / %s %12.0f ns/op = %.2fx (min %.2fx)\n",
			status, name, p.serialNS, p.variant, p.parallelNS, ratio, min)
	}

	missing := make([]string, 0, len(required))
	for name := range required {
		missing = append(missing, name)
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(w, "FAIL    %-45s required pair not found (need %s/serial plus %s/parallel or %s/radix)\n",
			name, name, name, name)
		failed++
	}
	return failed
}

func loadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Benchmarks == nil {
		return nil, fmt.Errorf("%s: no benchmarks key", path)
	}
	return &s, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
	os.Exit(1)
}
