package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
)

// selfcheck runs the timed pass `runs` times per workload, each time with
// another seed, and that `sets` times over; it prints per set the median,
// quartiles and relative spread of every metric of the timed pass, and fails
// if an end-to-end metric's later median is worse than the first set's by
// more than its bound in BENCHMARK.json, or if its spread — setup_s excepted —
// exceeds the bound: what the driver does with two sets. The timing metrics
// carry no bound; their rows show what a bound would have to absorb.
func selfcheck(root string, args []string) int {
	fs := flag.NewFlagSet("bench selfcheck", flag.ExitOnError)
	sets := fs.Int("sets", 2, "sets of runs to compare")
	runs := fs.Int("runs", 10, "runs per workload in a set, each with another seed")
	seconds := fs.Int("seconds", 0, "run length (default: run_seconds of BENCHMARK.json)")
	scale := fs.String("scale", "full", "full or tiny")
	_ = fs.Parse(args)

	o := options{root: root, scale: *scale}
	c, err := readContract(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench selfcheck:", err)
		return 2
	}
	o.seconds = *seconds
	if o.seconds == 0 {
		o.seconds = c.RunSeconds
	}
	if err := prepare(&o); err != nil {
		fmt.Fprintln(os.Stderr, "bench selfcheck:", err)
		return 2
	}

	metrics := slices.Clone(c.EndToEnd)
	for _, n := range slices.Sorted(maps.Keys(timingUnits)) {
		better := "lower"
		if n == "ops_per_s" {
			better = "higher"
		}
		metrics = append(metrics, metricDef{Name: n, Unit: timingUnits[n], Better: better})
	}

	// values[workload][metric][set] = the runs' values
	values := map[string]map[string][][]float64{}
	for set := 0; set < *sets; set++ {
		for _, name := range workloadNames {
			if values[name] == nil {
				values[name] = map[string][][]float64{}
			}
			for r := 0; r < *runs; r++ {
				ro := o
				ro.workload = name
				ro.seed = int64(set*1000 + r + 1)
				out, err := runIsolated(ro)
				if err != nil || !out.Correct {
					fmt.Fprintf(os.Stderr, "bench selfcheck: %s seed %d: err=%v outcome=%+v\n", name, ro.seed, err, out)
					return 1
				}
				for _, m := range metrics {
					per := values[name][m.Name]
					if len(per) <= set {
						per = append(per, nil)
					}
					per[set] = append(per[set], out.Metrics[m.Name])
					values[name][m.Name] = per
				}
			}
		}
	}

	failed := false
	for _, name := range workloadNames {
		fmt.Printf("\n### %s\n\n", name)
		fmt.Println("| metric | unit | bound | set | median | Q1 | Q3 | spread (Q3-Q1)/median | median vs set 1 |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|")
		for _, m := range metrics {
			first := median(values[name][m.Name][0])
			for set, vals := range values[name][m.Name] {
				med := median(vals)
				q1, q3 := quartiles(vals)
				worse := (med - first) / first
				if m.Better == "higher" {
					worse = -worse
				}
				spread := relSpread(vals)
				bound, verdict := "none", ""
				if m.Bound > 0 {
					bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
					if worse > m.Bound {
						verdict = " **FAIL: median**"
						failed = true
					}
					if spread > m.Bound && m.Name != "setup_s" {
						verdict += " **FAIL: spread**"
						failed = true
					}
				}
				fmt.Printf("| %s | %s | %s | %d | %.4f | %.4f | %.4f | %.2f%% | %+.2f%%%s |\n",
					m.Name, m.Unit, bound, set+1, med, q1, q3, 100*spread, 100*worse, verdict)
			}
		}
	}
	if failed {
		fmt.Println("\nselfcheck: FAIL — a set's median is worse than the first set's by more than the bound, or a spread exceeds it")
		return 1
	}
	fmt.Println("\nselfcheck: ok")
	return 0
}
