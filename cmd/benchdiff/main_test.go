package main

import (
	"strings"
	"testing"
)

const sampleOutput = `
goos: linux
goarch: amd64
pkg: hyrise/internal/benchmark
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkMicroJoin/serial-8         	       1	 177213572 ns/op	 1024 B/op	      12 allocs/op
BenchmarkMicroJoin/serial-8         	       1	 160000000 ns/op	 1024 B/op	      11 allocs/op
BenchmarkMicroJoin/radix-8          	       1	 158546540 ns/op
BenchmarkMicroAggregate/serial-8    	       2	 130107697 ns/op
PASS
ok  	hyrise/internal/benchmark	1.777s
`

func TestParseBenchKeepsMinimum(t *testing.T) {
	snap, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(snap.Benchmarks))
	}
	serial := snap.Benchmarks["BenchmarkMicroJoin/serial"]
	if serial.NsPerOp != 160000000 {
		t.Errorf("min ns/op = %v, want 160000000", serial.NsPerOp)
	}
	if serial.Runs != 2 {
		t.Errorf("runs = %d, want 2", serial.Runs)
	}
	if serial.AllocsPerOp != 11 {
		t.Errorf("min allocs/op = %v, want 11", serial.AllocsPerOp)
	}
	radix := snap.Benchmarks["BenchmarkMicroJoin/radix"]
	if radix.NsPerOp != 158546540 || radix.Runs != 1 {
		t.Errorf("radix = %+v", radix)
	}
}

func TestParseBenchStripsGOMAXPROCSSuffix(t *testing.T) {
	snap, err := parseBench(strings.NewReader("BenchmarkX-16   10   500 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Benchmarks["BenchmarkX"]; !ok {
		t.Fatalf("suffix not stripped: %v", snap.Benchmarks)
	}
}

func speedupSnap(ns map[string]float64) *Snapshot {
	s := &Snapshot{Benchmarks: map[string]Result{}}
	for name, v := range ns {
		s.Benchmarks[name] = Result{NsPerOp: v, Runs: 1}
	}
	return s
}

func TestSpeedupPairDetection(t *testing.T) {
	snap := speedupSnap(map[string]float64{
		"BenchmarkMicroSort/serial":      300,
		"BenchmarkMicroSort/parallel":    100,
		"BenchmarkMicroJoin/serial":      200,
		"BenchmarkMicroJoin/radix":       100, // radix is the parallel sibling
		"BenchmarkMicroScanDict/encoded": 50,  // no serial sibling: not a pair
	})
	pairs := detectSpeedupPairs(snap)
	if len(pairs) != 2 {
		t.Fatalf("detected %d pairs, want 2: %v", len(pairs), pairs)
	}
	if p := pairs["BenchmarkMicroSort"]; p.variant != "parallel" || p.serialNS != 300 || p.parallelNS != 100 {
		t.Errorf("sort pair = %+v", p)
	}
	if p := pairs["BenchmarkMicroJoin"]; p.variant != "radix" {
		t.Errorf("join pair should fall back to radix, got %+v", p)
	}
}

func TestSpeedupGates(t *testing.T) {
	snap := speedupSnap(map[string]float64{
		"BenchmarkMicroSort/serial":   300,
		"BenchmarkMicroSort/parallel": 100, // 3.0x
		"BenchmarkMicroScan/serial":   110,
		"BenchmarkMicroScan/parallel": 100, // 1.1x
	})
	var out strings.Builder

	// Passing gate.
	if failed := runSpeedup(snap, 0, []requirement{{Name: "BenchmarkMicroSort", Min: 1.3}}, &out); failed != 0 {
		t.Fatalf("3.0x speedup failed a 1.3x gate: %d\n%s", failed, out.String())
	}
	// Failing gate: 1.1x < 1.3x.
	if failed := runSpeedup(snap, 0, []requirement{{Name: "BenchmarkMicroScan", Min: 1.3}}, &out); failed != 1 {
		t.Fatalf("1.1x speedup passed a 1.3x gate: %d", failed)
	}
	// A required pair missing from the snapshot must fail loudly — a renamed
	// benchmark must not silently stop gating.
	if failed := runSpeedup(snap, 0, []requirement{{Name: "BenchmarkGone", Min: 1.3}}, &out); failed != 1 {
		t.Fatalf("missing required pair did not fail: %d", failed)
	}
	// Without requirements or -min, everything is report-only.
	if failed := runSpeedup(snap, 0, nil, &out); failed != 0 {
		t.Fatalf("report-only run failed: %d", failed)
	}
	// -min applies to all detected pairs.
	if failed := runSpeedup(snap, 1.2, nil, &out); failed != 1 {
		t.Fatalf("global min 1.2 should fail only the 1.1x pair: %d", failed)
	}
}

func TestRequireFlagParsing(t *testing.T) {
	var r requireFlags
	if err := r.Set("BenchmarkMicroSort=1.3"); err != nil {
		t.Fatal(err)
	}
	if len(r) != 1 || r[0].Name != "BenchmarkMicroSort" || r[0].Min != 1.3 {
		t.Fatalf("parsed %+v", r)
	}
	for _, bad := range []string{"NoEquals", "=1.3", "Name=", "Name=0", "Name=-1", "Name=x"} {
		if err := r.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
}

// TestCompareGatesAllocs injects regressions into a copy of a baseline: time,
// allocations and bytes each trip the one threshold on their own, growth within
// it passes, and a snapshot without -benchmem numbers is gated on time alone.
func TestCompareGatesAllocs(t *testing.T) {
	base := &Snapshot{Benchmarks: map[string]Result{
		"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 4096, Runs: 5},
		"BenchmarkB": {NsPerOp: 1000, AllocsPerOp: 100, Runs: 5},
		"BenchmarkC": {NsPerOp: 1000, Runs: 5}, // recorded without -benchmem
	}}
	cases := []struct {
		name   string
		cur    map[string]Result
		failed int
		want   string
	}{
		{"unchanged", map[string]Result{
			"BenchmarkA": base.Benchmarks["BenchmarkA"], "BenchmarkB": base.Benchmarks["BenchmarkB"], "BenchmarkC": base.Benchmarks["BenchmarkC"],
		}, 0, "ok        BenchmarkA"},
		{"allocs within threshold", map[string]Result{
			"BenchmarkA": {NsPerOp: 1100, AllocsPerOp: 125}, "BenchmarkB": {NsPerOp: 900, AllocsPerOp: 50}, "BenchmarkC": {NsPerOp: 1000, AllocsPerOp: 7},
		}, 0, "(+25.0%)"},
		{"allocs regressed, time flat", map[string]Result{
			"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 150}, "BenchmarkB": {NsPerOp: 1000, AllocsPerOp: 100}, "BenchmarkC": {NsPerOp: 1000},
		}, 1, "REGRESSED BenchmarkA"},
		{"bytes regressed, time and allocs flat", map[string]Result{
			"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 8192}, "BenchmarkB": {NsPerOp: 1000, BytesPerOp: 1 << 20}, "BenchmarkC": {NsPerOp: 1000},
		}, 1, "4096 ->       8192 B/op  (+100.0%)"},
		{"bytes within threshold", map[string]Result{
			"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 5120}, "BenchmarkB": {NsPerOp: 1000}, "BenchmarkC": {NsPerOp: 1000},
		}, 0, "B/op  (+25.0%)"},
		{"time regressed, allocs flat", map[string]Result{
			"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 100}, "BenchmarkB": {NsPerOp: 1500, AllocsPerOp: 100}, "BenchmarkC": {NsPerOp: 1000},
		}, 1, "REGRESSED BenchmarkB"},
		{"both regressed counts once", map[string]Result{
			"BenchmarkA": {NsPerOp: 2000, AllocsPerOp: 200}, "BenchmarkB": {NsPerOp: 1000, AllocsPerOp: 100}, "BenchmarkC": {NsPerOp: 1000},
		}, 1, "REGRESSED BenchmarkA"},
	}
	for _, tc := range cases {
		var out strings.Builder
		got := runCompare(base, &Snapshot{Benchmarks: tc.cur}, 25, &out)
		if got != tc.failed {
			t.Errorf("%s: %d regressions, want %d\n%s", tc.name, got, tc.failed, out.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: output lacks %q\n%s", tc.name, tc.want, out.String())
		}
	}
}
