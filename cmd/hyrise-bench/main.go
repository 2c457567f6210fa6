// Command hyrise-bench is the one driver of the paper's evaluation (see
// DESIGN.md §4 for the experiment index): every figure and table, and the
// paper's §2.10 benchmark runner. Run it without arguments for the list of
// subcommands. Every subcommand takes -sf (which scales every data set; 0.1
// gives the sizes EXPERIMENTS.md reports) and -runs; tpch and tpcc add the
// flags listed by -h. Everything is timed by the one loop in
// internal/benchmark.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hyrise/internal/benchmark"
	"hyrise/internal/encoding"
	"hyrise/internal/pipeline"
	"hyrise/internal/rowengine"
	"hyrise/internal/storage"
	"hyrise/internal/tpch"
)

// harness is what every subcommand shares: where it prints and the common
// flag block.
type harness struct {
	out  io.Writer
	sf   float64
	runs int
}

// figures are the subcommands `all` runs, in the order EXPERIMENTS.md reports
// them.
var figures = []struct {
	name, what string
	run        func(*harness)
}{
	{"fig3a", "encoding framework: full vs positional materialization", (*harness).fig3a},
	{"fig3b", "static vs dynamic polymorphism", (*harness).fig3b},
	{"fig6", "TPC-H per-query comparison across engines", (*harness).fig6},
	{"fig7", "throughput vs chunk capacity", (*harness).fig7},
	{"fig7mem", "memory footprint vs chunk capacity", (*harness).fig7mem},
	{"jit", "interpreted vs dynamic vs vectorized execution", (*harness).jit},
	{"sched", "scheduler on/off and scalability", (*harness).sched},
	{"cache", "query plan cache effect", (*harness).cache},
	{"ablation", "TPC-H Q6 per segment encoding, Q12 per join implementation", (*harness).ablation},
}

func usage() error {
	var sb strings.Builder
	sb.WriteString("usage: hyrise-bench <subcommand> [-sf 0.1] [-runs 3]\n")
	for _, f := range figures {
		fmt.Fprintf(&sb, "  %-9s %s\n", f.name, f.what)
	}
	sb.WriteString("  all       everything above\n")
	sb.WriteString("  tpch      §2.10 runner: generates TPC-H, runs the queries, prints JSON (-h lists its flags)\n")
	sb.WriteString("  tpcc      the same for the TPC-C transaction mix")
	return errors.New(sb.String())
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func run(args []string, out, errOut io.Writer) error {
	if len(args) == 0 {
		return usage()
	}
	cmd := args[0]
	h := &harness{out: out}
	fs := flag.NewFlagSet("hyrise-bench "+cmd, flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.Float64Var(&h.sf, "sf", 0.1, "scale factor (TPC-H; the synthetic tables scale with it)")
	fs.IntVar(&h.runs, "runs", 3, "measured runs per data point")

	switch cmd {
	case "tpch":
		return h.tpch(fs, args[1:], errOut)
	case "tpcc":
		return h.tpcc(fs, args[1:], errOut)
	}
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if h.sf <= 0 || h.runs < 1 {
		return fmt.Errorf("-sf and -runs must be positive")
	}
	ran := false
	for _, f := range figures {
		if cmd == f.name || cmd == "all" {
			f.run(h)
			ran = true
		}
	}
	if !ran {
		return fmt.Errorf("unknown subcommand %q\n%w", cmd, usage())
	}
	return nil
}

// must unwraps a result whose error only a bug can cause: the figures run
// fixed queries over data they generate themselves, at validated sizes.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// section prints a figure's heading, stamped with the date and commit it was
// measured at.
func (h *harness) section(format string, args ...any) {
	ctx := benchmark.Context(nil, nil)
	fmt.Fprintf(h.out, "== "+format+"\n", args...)
	fmt.Fprintf(h.out, "   [%s, commit %s, %s core(s), %s]\n", ctx["timestamp"][:10], ctx["git_commit"], ctx["num_cpu"], ctx["go_version"])
}

// best times the items through benchmark.Run (SQL items on a session of e)
// and returns each one's fastest measured run in milliseconds.
func (h *harness) best(e *pipeline.Engine, items ...benchmark.Item) []float64 {
	res := benchmark.Run("", e, items, benchmark.Options{Runs: h.runs}, nil)
	ms := make([]float64, len(items))
	for i, q := range res.Queries {
		if q.Error != "" {
			panic(q.Name + ": " + q.Error)
		}
		ms[i] = q.MinMillis
	}
	return ms
}

// architectures times SQL items on three architectures over the same rows:
// the engine, its twin configured with DynamicAccess (one interface call per
// value) and the row-major, tuple-at-a-time interpreter. The interpreter
// copies full's tables into rows of boxed values, a heap the collector would
// walk during the engines' runs too, so it is built after they were timed.
func (h *harness) architectures(items []benchmark.Item, full, dynamic *pipeline.Engine) (vec, dyn, row []float64) {
	vec, dyn = h.best(full, items...), h.best(dynamic, items...)
	interpreter := rowengine.NewFromStorage(full.StorageManager())
	rowItems := make([]benchmark.Item, len(items))
	for i, item := range items {
		rowItems[i] = benchmark.Item{Name: item.Name, Do: func() (int, error) {
			out, _, err := interpreter.Query(item.SQL)
			return len(out), err
		}}
	}
	return vec, dyn, h.best(nil, rowItems...)
}

// tpchItems are the given TPC-H queries as benchmark items.
func tpchItems(sf float64, nums []int) []benchmark.Item {
	all := tpch.Queries(sf)
	items := make([]benchmark.Item, len(nums))
	for i, n := range nums {
		items[i] = benchmark.Item{Name: fmt.Sprintf("TPC-H %02d", n), SQL: all[n]}
	}
	return items
}

// dictionary is the paper's default setup ("a column-based layout and
// dictionary encoding are used"), which Fig. 6/7 and the ablations keep.
var dictionary = encoding.Spec{Encoding: encoding.Dictionary, Compression: encoding.FixedSizeByteAligned}

// newTPCHEngine is the one TPC-H setup: generate (seed 42, MVCC columns as
// cfg says) into a catalog without a Sealer, seal every chunk once with spec
// and the bins of its numeric columns, and open the engine over it. A nil spec
// leaves the tables as generated — unencoded, no bins.
func newTPCHEngine(cfg pipeline.Config, gen tpch.Config, spec *encoding.Spec) (*pipeline.Engine, error) {
	gen.UseMvcc, gen.Seed = cfg.UseMvcc, 42
	sm := storage.NewStorageManager()
	err := tpch.Generate(sm, gen)
	if err == nil && spec != nil {
		err = tpch.EncodeAndFilter(sm, spec)
	}
	if err != nil {
		return nil, err
	}
	return pipeline.NewEngine(cfg, sm), nil
}
