package main

import (
	"bytes"
	"encoding/json"
	"io"
	"regexp"
	"strings"
	"testing"

	"hyrise/internal/encoding"
	"hyrise/internal/pipeline"
	"hyrise/internal/tpch"
	"hyrise/internal/types"
)

// runBench runs one subcommand in-process at the smallest useful scale.
func runBench(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(append(args, "-sf", "0.002", "-runs", "1"), &out, io.Discard); err != nil {
		t.Fatalf("hyrise-bench %v: %v", args, err)
	}
	return out.String()
}

// TestFiguresPrintTheirTables: `all` runs every figure subcommand, in order,
// and each prints, per section, the stamp, its table header and one row per
// query / encoding / capacity / configuration, each row ending in the number
// the column calls for.
func TestFiguresPrintTheirTables(t *testing.T) {
	all := strings.Split(strings.TrimPrefix(runBench(t, "all"), "== "), "\n== ")
	ratio, percent, number := `\d+\.\d\dx$`, `\d+\.\d\d%$`, `\d+\.\d\d$`
	for _, tc := range []struct {
		cmd      string
		sections int
		header   string // first word of the table header
		rows     int    // per section
		row      string // what every row matches
	}{
		{"fig3a", 1, "encoding", 5, ratio},
		{"fig3b", 1, "encoding", 6, ratio},
		{"fig6", 1, "query", 23, `^(TPC-H \d\d|TOTAL) .*` + ratio},
		{"fig7", 2, "capacity", 6, `^\d+ .*x +` + number},
		{"fig7mem", 1, "capacity", 6, `^\d+ .*` + percent},
		{"jit", 1, "query", 3, ratio},
		{"sched", 1, "configuration", 4, ratio},
		{"cache", 1, "", 2, `^cache o(n|ff) +200 reps: .* hits/misses \d+/\d+$`},
		{"ablation", 2, "configuration", 0, ratio}, // 6 encodings, then 2 joins
	} {
		if len(all) < tc.sections {
			t.Fatalf("%s: %d sections left, want %d", tc.cmd, len(all), tc.sections)
		}
		sections := all[:tc.sections]
		all = all[tc.sections:]
		t.Run(tc.cmd, func(t *testing.T) {
			rows := 0
			for _, section := range sections {
				lines := strings.Split(strings.TrimSpace(section), "\n")
				if len(lines) < 2 || !regexp.MustCompile(`^   \[\d{4}-\d\d-\d\d, commit \w+, \d+ core\(s\), go`).MatchString(lines[1]) {
					t.Fatalf("section is not stamped with date and commit:\n%s", section)
				}
				table := lines[2:]
				for len(table) > 0 && strings.HasPrefix(table[0], "   ") { // notes
					table = table[1:]
				}
				if tc.header != "" {
					if len(table) == 0 || !strings.HasPrefix(table[0], tc.header) {
						t.Fatalf("no %q table header:\n%s", tc.header, section)
					}
					table = table[1:]
				}
				for _, line := range table {
					if !regexp.MustCompile(tc.row).MatchString(line) {
						t.Errorf("row %q does not match %s", line, tc.row)
					}
				}
				if rows += len(table); tc.rows != 0 && len(table) != tc.rows {
					t.Errorf("%d rows, want %d:\n%s", len(table), tc.rows, section)
				}
			}
			if tc.cmd == "ablation" && rows != 6+2 {
				t.Errorf("%d ablation rows, want 6 encodings + 2 join implementations", rows)
			}
		})
	}
	if len(all) != 0 {
		t.Errorf("all printed %d sections no figure of the test claims", len(all))
	}
}

// TestSubcommandDispatch: a figure's name runs that figure alone, an unknown
// name prints the usage.
func TestSubcommandDispatch(t *testing.T) {
	if out := runBench(t, "fig3b"); !strings.HasPrefix(out, "== Figure 3b") || strings.Count(out, "\n== ") != 0 {
		t.Errorf("fig3b printed:\n%s", out)
	}
	if err := run([]string{"fig8"}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "usage:") {
		t.Errorf("unknown subcommand: %v, want the usage", err)
	}
}

// TestRunnerEmitsJSON: tpch and tpcc print the JSON the paper's runner
// prints — results plus the context echo of every parameter of the run.
func TestRunnerEmitsJSON(t *testing.T) {
	for _, tc := range []struct {
		args          []string
		keys, context []string
	}{
		{[]string{"tpch", "-queries", "1,6", "-verbose=false"},
			[]string{"benchmark", "queries", "queries_per_second", "wall_ms"},
			[]string{"scale_factor", "chunk_size", "encoding", "scheduler", "workers", "git_commit", "timestamp"}},
		{[]string{"tpcc", "-terminals", "2", "-transactions", "20", "-items", "500", "-customers", "30"},
			[]string{"benchmark", "elapsed_ms", "new_orders", "payments", "order_status", "aborts", "committed_per_sec", "tpmC"},
			[]string{"warehouses", "terminals", "transactions", "scheduler", "git_commit"}},
	} {
		var got map[string]any
		if err := json.Unmarshal([]byte(runBench(t, tc.args...)), &got); err != nil {
			t.Fatalf("%v: output is not JSON: %v", tc.args, err)
		}
		for _, key := range tc.keys {
			if _, ok := got[key]; !ok {
				t.Errorf("%v: key %q missing", tc.args, key)
			}
		}
		context, _ := got["context"].(map[string]any)
		for _, key := range tc.context {
			if s, _ := context[key].(string); s == "" {
				t.Errorf("%v: context does not echo %q", tc.args, key)
			}
		}
		if queries, ok := got["queries"].([]any); ok && len(queries) != 2 {
			t.Errorf("%v: %d query results, want 2", tc.args, len(queries))
		}
	}
}

// TestNewTPCHEngineSealsOnce: the figures' TPC-H setup generates into a
// catalog without a Sealer and applies its spec once. A nil spec leaves every
// segment unencoded (Fig. 6's dynamic baseline); Dictionary (FSBA) makes every
// segment one, and the engine's Sealer never runs on the loaded chunks.
func TestNewTPCHEngineSealsOnce(t *testing.T) {
	for _, spec := range []*encoding.Spec{nil, &dictionary} {
		want := encoding.Spec{Encoding: encoding.Unencoded}
		if spec != nil {
			want = *spec
		}
		engine, err := newTPCHEngine(pipeline.DefaultConfig(), tpch.Config{ScaleFactor: 0.002, ChunkSize: 1000}, spec)
		if err != nil {
			t.Fatal(err)
		}
		sm := engine.StorageManager()
		for _, name := range tpch.TableNames() {
			table, err := sm.GetTable(name)
			if err != nil {
				t.Fatal(err)
			}
			for ci, c := range table.Chunks() {
				for col := 0; col < c.ColumnCount(); col++ {
					if got, _ := encoding.SpecOf(c.GetSegment(types.ColumnID(col))); got != want {
						t.Errorf("%s: %s chunk %d column %d is %s", want, name, ci, col, got)
					}
				}
			}
		}
		if n, _ := sm.SealStats(); n != 0 {
			t.Errorf("%s: the engine's Sealer ran on %d loaded chunks, want 0", want, n)
		}
		engine.Close()
	}
}
