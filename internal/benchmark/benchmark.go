// Package benchmark implements Hyrise's generic benchmark runner
// (paper §2.10): benchmarks are single binaries that generate their data,
// run the queries, and print the results as JSON, including every parameter
// relevant to their execution (chunk size, encoding, scheduler, thread
// count, and more) so results can be communicated reproducibly.
package benchmark

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"hyrise/internal/concurrency"
	"hyrise/internal/pipeline"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Item is one named, repeatable piece of work: a SQL text for the engine Run
// is given, or — when Do is set — any closure that reports the rows it
// produced (a query on the row-store baseline, a kernel over one segment, a
// whole transaction mix).
type Item struct {
	Name string
	SQL  string
	Do   func() (rows int, err error)
}

// Options configure a run.
type Options struct {
	// Warmup runs per query before measuring.
	Warmup int
	// Runs measured executions per query.
	Runs int
	// Verbose prints progress to stderr.
	Verbose bool
}

// QueryResult is the measured outcome of one query.
type QueryResult struct {
	Name       string  `json:"name"`
	Runs       int     `json:"runs"`
	AvgMillis  float64 `json:"avg_ms"`
	MinMillis  float64 `json:"min_ms"`
	MaxMillis  float64 `json:"max_ms"`
	Rows       int     `json:"rows"`
	PerSecond  float64 `json:"items_per_second"`
	Error      string  `json:"error,omitempty"`
	durationNs []int64
}

// RunResult is the full benchmark output.
type RunResult struct {
	Benchmark  string            `json:"benchmark"`
	Context    map[string]string `json:"context"`
	Queries    []QueryResult     `json:"queries"`
	TotalQPS   float64           `json:"queries_per_second"`
	WallMillis float64           `json:"wall_ms"`
}

// Context collects the reproducibility parameters the paper lists: commit
// hash, scheduler, thread count, chunk size, encoding, and friends. Without
// an engine (a run whose items are all closures) it is the host's part.
func Context(e *pipeline.Engine, extra map[string]string) map[string]string {
	ctx := map[string]string{
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"num_cpu":    fmt.Sprint(runtime.NumCPU()),
		"git_commit": gitCommit(),
		"timestamp":  time.Now().UTC().Format(time.RFC3339),
	}
	if e != nil {
		cfg := e.Config()
		ctx["optimizer"] = fmt.Sprint(cfg.UseOptimizer)
		ctx["mvcc"] = fmt.Sprint(cfg.UseMvcc)
		ctx["scheduler"] = "Immediate"
		if e.Scheduler() != nil {
			ctx["scheduler"] = "Queue"
		}
		ctx["workers"] = fmt.Sprint(e.Scheduler().WorkerCount())
		ctx["plan_cache"] = fmt.Sprint(cfg.PlanCacheSize)
		ctx["join_impl"] = joinName(cfg)
		ctx["histogram"] = cfg.HistogramType.String()
	}
	for k, v := range extra {
		ctx[k] = v
	}
	return ctx
}

func joinName(cfg pipeline.Config) string {
	if cfg.JoinImpl == 1 {
		return "SortMerge"
	}
	return "Hash"
}

// gitCommit asks git once: a figure harness builds one context per table.
var gitCommit = sync.OnceValue(func() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
})

// Run is the one timing loop of the paper's evaluation: it executes every
// item Warmup + Runs times, in order, and collects the measured runs. SQL
// items run on one session of e; e may be nil when every item has a Do.
func Run(name string, e *pipeline.Engine, items []Item, opts Options, extra map[string]string) *RunResult {
	var session *pipeline.Session
	if e != nil {
		session = e.NewSession()
	}
	result := &RunResult{
		Benchmark: name,
		Context:   Context(e, extra),
	}
	wallStart := time.Now()
	totalRuns := 0
	for _, item := range items {
		do := item.Do
		if do == nil {
			do = func() (int, error) {
				res, err := session.ExecuteOne(item.SQL)
				if err != nil || res.Table == nil {
					return 0, err
				}
				return res.Table.RowCount(), nil
			}
		}
		qr := QueryResult{Name: item.Name}
		for r := -opts.Warmup; r < max(opts.Runs, 1) && qr.Error == ""; r++ {
			start := time.Now()
			rows, err := do()
			elapsed := time.Since(start)
			switch {
			case err != nil:
				qr.Error = err.Error()
			case r >= 0: // warmup runs are not measured
				qr.durationNs = append(qr.durationNs, elapsed.Nanoseconds())
				qr.Rows = rows
			}
		}
		summarize(&qr)
		totalRuns += qr.Runs
		result.Queries = append(result.Queries, qr)
		if opts.Verbose {
			fmt.Fprintf(os.Stderr, "  %-28s %10.2f ms  (%d rows)\n", qr.Name, qr.AvgMillis, qr.Rows)
		}
	}
	result.WallMillis = float64(time.Since(wallStart).Nanoseconds()) / 1e6
	if result.WallMillis > 0 {
		result.TotalQPS = float64(totalRuns) / (result.WallMillis / 1000)
	}
	return result
}

func summarize(qr *QueryResult) {
	qr.Runs = len(qr.durationNs)
	if qr.Runs == 0 {
		return
	}
	sort.Slice(qr.durationNs, func(i, j int) bool { return qr.durationNs[i] < qr.durationNs[j] })
	var sum int64
	for _, d := range qr.durationNs {
		sum += d
	}
	qr.AvgMillis = float64(sum) / float64(qr.Runs) / 1e6
	qr.MinMillis = float64(qr.durationNs[0]) / 1e6
	qr.MaxMillis = float64(qr.durationNs[qr.Runs-1]) / 1e6
	if qr.AvgMillis > 0 {
		qr.PerSecond = 1000 / qr.AvgMillis
	}
}

// WriteJSON emits the result as indented JSON.
func (r *RunResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// LoadCustomBenchmark implements the paper's "users can provide their own
// table and queries in .csv and .sql files, which are then automatically
// executed": every <name>.csv in dir becomes a table (with a <name>.schema
// file describing "column:type[:null]" lines), every .sql file one query.
func LoadCustomBenchmark(dir string, e *pipeline.Engine, chunkSize int) ([]Item, error) {
	csvs, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return nil, err
	}
	for _, csvPath := range csvs {
		base := strings.TrimSuffix(filepath.Base(csvPath), ".csv")
		schemaPath := filepath.Join(dir, base+".schema")
		defs, err := readSchema(schemaPath)
		if err != nil {
			return nil, err
		}
		f, err := os.Open(csvPath)
		if err != nil {
			return nil, err
		}
		table, err := e.StorageManager().LoadCSV(base, defs, f, ',', chunkSize, e.Config().UseMvcc)
		_ = f.Close()
		if err != nil {
			return nil, fmt.Errorf("benchmark: load %s: %w", csvPath, err)
		}
		// Bulk-loaded rows are committed "at the beginning of time".
		concurrency.MarkTableLoaded(table)
	}
	sqls, err := filepath.Glob(filepath.Join(dir, "*.sql"))
	if err != nil {
		return nil, err
	}
	sort.Strings(sqls)
	var items []Item
	for _, sqlPath := range sqls {
		content, err := os.ReadFile(sqlPath)
		if err != nil {
			return nil, err
		}
		items = append(items, Item{
			Name: strings.TrimSuffix(filepath.Base(sqlPath), ".sql"),
			SQL:  string(content),
		})
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("benchmark: no .sql files in %s", dir)
	}
	return items, nil
}

// readSchema parses "name:type[:null]" lines.
func readSchema(path string) ([]storage.ColumnDefinition, error) {
	content, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark: schema file %s: %w", path, err)
	}
	var defs []storage.ColumnDefinition
	for _, line := range strings.Split(string(content), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("benchmark: bad schema line %q", line)
		}
		var dt types.DataType
		switch strings.ToLower(parts[1]) {
		case "int", "integer", "bigint":
			dt = types.TypeInt64
		case "float", "double", "decimal":
			dt = types.TypeFloat64
		case "string", "varchar", "char", "text", "date":
			dt = types.TypeString
		default:
			return nil, fmt.Errorf("benchmark: unknown type %q", parts[1])
		}
		defs = append(defs, storage.ColumnDefinition{
			Name:     strings.ToLower(parts[0]),
			Type:     dt,
			Nullable: len(parts) > 2 && strings.EqualFold(parts[2], "null"),
		})
	}
	if len(defs) == 0 {
		return nil, fmt.Errorf("benchmark: empty schema %s", path)
	}
	return defs, nil
}
