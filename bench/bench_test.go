package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func tinyOptions(t *testing.T, workload string, seed int64, trace bool) options {
	t.Helper()
	dir := t.TempDir()
	o := options{
		workload: workload, seed: seed, seconds: referenceSeconds, trace: trace, scale: "tiny",
		root: "..", scratch: dir, spans: filepath.Join(dir, "spans.jsonl"),
	}
	if err := prepare(&o); err != nil {
		t.Fatal(err)
	}
	return o
}

func runTiny(t *testing.T, workload string, seed int64, trace bool) (*outcome, options) {
	t.Helper()
	o := tinyOptions(t, workload, seed, trace)
	out, err := runWorkload(o)
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Fatalf("%s seed %d: correct=%v attempted=%d failed=%d: %s",
			workload, seed, out.Correct, out.Attempted, out.Failed, out.Error)
	}
	return out, o
}

// TestContract checks BENCHMARK.json against the limits of the benchmark
// contract and against what the program emits.
func TestContract(t *testing.T) {
	c, err := readContract("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Paths) != 1 || c.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", c.Paths)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", c.RunSeconds)
	}
	if len(c.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(c.Workloads), len(workloadNames))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range c.Workloads {
		unique(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}

	if len(c.EndToEnd) != len(endToEndUnits) {
		t.Errorf("%d end-to-end metrics, program emits %d", len(c.EndToEnd), len(endToEndUnits))
	}
	var setupBound, maxBound float64
	for _, m := range c.EndToEnd {
		unique(m.Name)
		if unit, ok := endToEndUnits[m.Name]; !ok || unit != m.Unit {
			t.Errorf("end-to-end metric %q [%s]: program emits unit %q (known: %v)", m.Name, m.Unit, unit, ok)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v: bad unit or direction", m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better: %+v", m)
			}
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must be the largest (max %v)", setupBound, maxBound)
	}

	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, program emits %d", len(c.PerLayer), len(perLayer))
	}
	for i, m := range c.PerLayer {
		unique(m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %q [%s], program emits %q [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v: bad unit, direction or a bound", m)
		}
	}
}

// TestTimedPass runs every workload at tiny scale: all end-to-end and timing
// metrics are present and non-zero, the same seed repeats the statement
// stream and data_mb exactly, and another seed changes the inputs.
func TestTimedPass(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			first, _ := runTiny(t, name, 1, false)
			for _, units := range []map[string]string{endToEndUnits, timingUnits} {
				for metric := range units {
					if v, ok := first.Metrics[metric]; !ok || v <= 0 {
						t.Errorf("%s = %v (present %v), want > 0", metric, v, ok)
					}
				}
			}
			if want := len(endToEndUnits) + len(timingUnits); len(first.Metrics) != want {
				t.Errorf("timed pass emitted %d metrics, want %d", len(first.Metrics), want)
			}
			again, _ := runTiny(t, name, 1, false)
			if again.StreamHash != first.StreamHash {
				t.Errorf("same seed, statement stream %s then %s", first.StreamHash, again.StreamHash)
			}
			if again.Metrics["data_mb"] != first.Metrics["data_mb"] {
				t.Errorf("same seed, data_mb %v then %v", first.Metrics["data_mb"], again.Metrics["data_mb"])
			}
			other, _ := runTiny(t, name, 2, false)
			if other.StreamHash == first.StreamHash {
				t.Errorf("seeds 1 and 2 generated the same inputs (%s)", first.StreamHash)
			}
		})
	}
}

// TestTracedPass checks that the traced pass emits every per-layer metric
// and a well-formed span file: every span's parent exists and encloses it.
func TestTracedPass(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			out, o := runTiny(t, name, 1, true)
			for _, l := range perLayer {
				if _, ok := out.Metrics[l.name]; !ok {
					t.Errorf("per-layer metric %s missing", l.name)
				}
			}
			if len(out.Metrics) != len(perLayer) {
				t.Errorf("traced pass emitted %d metrics, want %d", len(out.Metrics), len(perLayer))
			}
			for metric := range timingUnits {
				if out.Metrics[metric] <= 0 {
					t.Errorf("%s = %v, want > 0", metric, out.Metrics[metric])
				}
			}

			f, err := os.Open(o.spans)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			type rec struct {
				ID, Parent, Req int64
				Name            string
				Start           int64 `json:"start_ns"`
				End             int64 `json:"end_ns"`
			}
			spans := map[int64]rec{}
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var r rec
				if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
					t.Fatalf("span line %q: %v", sc.Text(), err)
				}
				if r.ID == 0 || r.Name == "" || r.End < r.Start || spans[r.ID].ID != 0 {
					t.Fatalf("malformed or duplicate span %+v", r)
				}
				spans[r.ID] = r
			}
			if len(spans) == 0 {
				t.Fatal("no spans recorded")
			}
			roots := 0
			for _, s := range spans {
				if s.Parent == 0 {
					roots++
					if s.Req != s.ID {
						t.Errorf("root span %+v: request id differs from its id", s)
					}
					continue
				}
				p, ok := spans[s.Parent]
				switch {
				case !ok:
					t.Errorf("span %+v: parent missing", s)
				case p.Req != s.Req:
					t.Errorf("span %+v: parent belongs to request %d", s, p.Req)
				case s.Start < p.Start || s.End > p.End:
					t.Errorf("span %+v lies outside its parent %+v", s, p)
				}
			}
			if roots == 0 {
				t.Error("no request roots")
			}
		})
	}
}

// TestGoldenUnreadable checks that a golden file that exists but cannot be
// parsed fails the set-up, while a missing file or seed only means no golden.
func TestGoldenUnreadable(t *testing.T) {
	o := tinyOptions(t, "tpch_power", 1, false)
	o.root = t.TempDir()
	if d, err := goldenFor(o); d != nil || err != nil {
		t.Errorf("missing golden file: digests %v, err %v; want none", d, err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath(o)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(o), []byte(`{"truncated`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := goldenFor(o); err == nil {
		t.Error("corrupt golden file: no error")
	}
	if err := os.WriteFile(goldenPath(o), []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if d, err := goldenFor(o); d != nil || err != nil {
		t.Errorf("golden file without this seed: digests %v, err %v; want none", d, err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}
