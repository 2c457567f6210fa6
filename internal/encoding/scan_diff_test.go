package encoding

import (
	"fmt"
	"math"
	"testing"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Differential encoding-correctness harness: every encoded scan path must
// return bit-for-bit the same offsets as an independent row-at-a-time
// reference evaluator over the decoded values. The reference below shares no
// code with ScanEncoded or ScanValues on purpose — it is the spec.

// refScan is the independent materializing reference: evaluate the predicate
// row by row on the plain values/null slices.
func refScan[T types.Ordered](op ScanOp, probe, lo, hi T, values []T, nulls []bool) []types.ChunkOffset {
	out := []types.ChunkOffset{}
	for i, v := range values {
		null := nulls != nil && nulls[i]
		keep := false
		switch op {
		case ScanIsNull:
			keep = null
		case ScanIsNotNull:
			keep = !null
		default:
			if null {
				break
			}
			switch op {
			case ScanEq:
				keep = v == probe
			case ScanNe:
				keep = v != probe
			case ScanLt:
				keep = v < probe
			case ScanLe:
				keep = v <= probe
			case ScanGt:
				keep = v > probe
			case ScanGe:
				keep = v >= probe
			case ScanBetween:
				keep = v >= lo && v <= hi
			}
		}
		if keep {
			out = append(out, types.ChunkOffset(i))
		}
	}
	return out
}

// buildScannables encodes one logical column every way the type supports.
func buildScannables[T types.Ordered](values []T, nulls []bool) map[string]ScannableSegment {
	segs := map[string]ScannableSegment{
		"Dictionary-FSBA":  EncodeDictionary(values, nulls, FixedSizeByteAligned),
		"Dictionary-BP128": EncodeDictionary(values, nulls, BitPacked128),
		"RunLength":        EncodeRunLength(values, nulls),
	}
	if iv, ok := any(values).([]int64); ok {
		segs["FoR-FSBA"] = EncodeFrameOfReference(iv, nulls, FixedSizeByteAligned)
		segs["FoR-BP128"] = EncodeFrameOfReference(iv, nulls, BitPacked128)
	}
	if fv, ok := any(values).([]float64); ok {
		if d, ok := EncodeDecimal(fv, nulls, FixedSizeByteAligned); ok {
			segs["Decimal-FSBA"] = d
		}
		if d, ok := EncodeDecimal(fv, nulls, BitPacked128); ok {
			segs["Decimal-BP128"] = d
		}
	}
	return segs
}

// diffPredicates builds the full predicate grid for a probe set: every
// comparison op per probe, BETWEEN over ordered and inverted pairs, and the
// null checks.
type diffPred[T types.Ordered] struct {
	name          string
	op            ScanOp
	probe, lo, hi T
}

func diffPredicates[T types.Ordered](probes []T) []diffPred[T] {
	var out []diffPred[T]
	ops := []ScanOp{ScanEq, ScanNe, ScanLt, ScanLe, ScanGt, ScanGe}
	for _, p := range probes {
		for _, op := range ops {
			out = append(out, diffPred[T]{name: fmt.Sprintf("%s %v", op, p), op: op, probe: p})
		}
	}
	// BETWEEN pairs: adjacent, equal, full span, and inverted (empty).
	for i := 0; i+1 < len(probes); i++ {
		lo, hi := probes[i], probes[i+1]
		out = append(out, diffPred[T]{name: fmt.Sprintf("BETWEEN %v AND %v", lo, hi), op: ScanBetween, lo: lo, hi: hi})
	}
	if len(probes) > 0 {
		first, last := probes[0], probes[len(probes)-1]
		out = append(out,
			diffPred[T]{name: fmt.Sprintf("BETWEEN %v AND %v", first, first), op: ScanBetween, lo: first, hi: first},
			diffPred[T]{name: fmt.Sprintf("BETWEEN %v AND %v", first, last), op: ScanBetween, lo: first, hi: last},
			diffPred[T]{name: fmt.Sprintf("BETWEEN %v AND %v (inverted)", last, first), op: ScanBetween, lo: last, hi: first},
		)
	}
	out = append(out,
		diffPred[T]{name: "IS NULL", op: ScanIsNull},
		diffPred[T]{name: "IS NOT NULL", op: ScanIsNotNull},
	)
	return out
}

func (d diffPred[T]) scanPredicate() ScanPredicate {
	switch d.op {
	case ScanBetween:
		return ScanPredicate{Op: ScanBetween, Lo: types.FromNative(d.lo), Hi: types.FromNative(d.hi)}
	case ScanIsNull, ScanIsNotNull:
		return ScanPredicate{Op: d.op}
	default:
		return ScanPredicate{Op: d.op, Value: types.FromNative(d.probe)}
	}
}

func equalOffsets(a, b []types.ChunkOffset) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runScanDiff drives one dataset through every encoding x predicate pair.
func runScanDiff[T types.Ordered](t *testing.T, values []T, nulls []bool, probes []T) {
	t.Helper()
	preds := diffPredicates(probes)
	segs := buildScannables(values, nulls)
	for segName, seg := range segs {
		if seg.Len() != len(values) {
			t.Fatalf("%s: encoded length %d, want %d", segName, seg.Len(), len(values))
		}
		for _, d := range preds {
			want := refScan(d.op, d.probe, d.lo, d.hi, values, nulls)
			got, _, ok := seg.ScanEncoded(d.scanPredicate(), nil)
			if !ok {
				t.Errorf("%s: %s: encoded scan refused a supported predicate", segName, d.name)
				continue
			}
			if got == nil {
				got = []types.ChunkOffset{}
			}
			if !equalOffsets(got, want) {
				t.Errorf("%s: %s: encoded scan returned %d offsets, reference %d (got %v, want %v)",
					segName, d.name, len(got), len(want), clip(got), clip(want))
			}
		}
		// The zone must be the one a pass over the rows finds.
		checkZone(t, segName, seg, values, nulls)
	}
	// The typed unencoded path must agree with the same reference.
	for _, d := range preds {
		want := refScan(d.op, d.probe, d.lo, d.hi, values, nulls)
		got, ok := ScanValues(d.scanPredicate(), values, nulls, nil)
		if !ok {
			t.Errorf("ScanValues: %s: refused a supported predicate", d.name)
			continue
		}
		if got == nil {
			got = []types.ChunkOffset{}
		}
		if !equalOffsets(got, want) {
			t.Errorf("ScanValues: %s: got %v, want %v", d.name, clip(got), clip(want))
		}
	}
}

func clip(o []types.ChunkOffset) []types.ChunkOffset {
	if len(o) > 12 {
		return o[:12]
	}
	return o
}

func checkZone[T types.Ordered](t *testing.T, segName string, seg ScannableSegment, values []T, nulls []bool) {
	t.Helper()
	zoned, ok := seg.(storage.ZonedSegment)
	if !ok {
		t.Fatalf("%s: encoded segment does not tell its zone", segName)
	}
	// The spec, row by row: bounds over the comparable values, and the run
	// ends at the first NULL, NaN or descent.
	var want storage.Zone
	var lo, hi T
	seen, run := false, true
	for i, v := range values {
		if (nulls != nil && nulls[i]) || v != v {
			run = false
			continue
		}
		if run && i > 0 && v < values[i-1] {
			run = false
		}
		if run {
			want.Ascending = i + 1
		}
		if !seen || v < lo {
			lo = v
		}
		if !seen || v > hi {
			hi = v
		}
		seen = true
	}
	if seen {
		want.Min, want.Max = types.FromNative(lo), types.FromNative(hi)
	}
	got := zoned.Zone()
	same := func(a, b types.Value) bool {
		c, ok := types.Compare(a, b)
		return a.Type == b.Type && (a.IsNull() || (ok && c == 0)) // -0 and +0 are one bound
	}
	if got.Ascending != want.Ascending || !same(got.Min, want.Min) || !same(got.Max, want.Max) {
		t.Errorf("%s: zone %v..%v ascending %d, want %v..%v ascending %d",
			segName, got.Min, got.Max, got.Ascending, want.Min, want.Max, want.Ascending)
	}
}

// --- datasets ------------------------------------------------------------

// lcg is a deterministic generator so failures reproduce.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

func TestScanDiffInt64(t *testing.T) {
	type ds struct {
		name   string
		values []int64
		nulls  []bool
		probes []int64
	}
	var sets []ds

	sets = append(sets, ds{name: "empty", probes: []int64{0}})

	allNull := make([]int64, 100)
	allNullMask := make([]bool, 100)
	for i := range allNullMask {
		allNullMask[i] = true
	}
	sets = append(sets, ds{name: "all-null", values: allNull, nulls: allNullMask, probes: []int64{0, 1}})

	singleRun := make([]int64, 5000) // spans multiple FoR blocks
	for i := range singleRun {
		singleRun[i] = 42
	}
	sets = append(sets, ds{name: "single-run", values: singleRun, probes: []int64{41, 42, 43}})

	domain := []int64{-12345, -50, -7, 0, 1, 2, 3, 5, 8, 9, 10, 11, 13, 100, 1000, 7777}
	dup := make([]int64, 10000)
	dupNulls := make([]bool, 10000)
	r := lcg(1)
	for i := range dup {
		dup[i] = domain[r.next()%uint64(len(domain))]
		dupNulls[i] = r.next()%7 == 0
	}
	sets = append(sets, ds{name: "duplicate-heavy",
		values: dup, nulls: dupNulls,
		probes: []int64{-99999, -12345, -8, 0, 4, 13, 7777, 8000}})

	// Adversarial FoR block boundaries: 2*2048+3 rows, a different frame per
	// block, nulls planted exactly on the block seams.
	bb := make([]int64, 2*2048+3)
	bbNulls := make([]bool, len(bb))
	for i := range bb {
		block := int64(i / 2048)
		bb[i] = block*1_000_000 - 500 + int64(i%2048)
	}
	for _, pos := range []int{0, 2047, 2048, 4095, 4096, len(bb) - 1} {
		bbNulls[pos] = true
	}
	sets = append(sets, ds{name: "for-block-boundary",
		values: bb, nulls: bbNulls,
		probes: []int64{-500, -499, 1547, 999_500, 1_000_000, 1_999_502, 2_000_000, 3_000_000}})

	extremes := make([]int64, 100)
	pattern := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}
	for i := range extremes {
		extremes[i] = pattern[i%len(pattern)]
	}
	sets = append(sets, ds{name: "int64-extremes",
		values: extremes,
		probes: []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}})

	random := make([]int64, 3000)
	randomNulls := make([]bool, 3000)
	for i := range random {
		random[i] = int64(r.next()%2_000_000_001) - 1_000_000_000
		randomNulls[i] = r.next()%10 == 0
	}
	sets = append(sets, ds{name: "random",
		values: random, nulls: randomNulls,
		probes: []int64{-1_000_000_000, random[17], random[1234], 0, random[2999], 1_000_000_000}})

	for _, s := range sets {
		t.Run(s.name, func(t *testing.T) { runScanDiff(t, s.values, s.nulls, s.probes) })
	}
}

func TestScanDiffFloat64(t *testing.T) {
	type ds struct {
		name   string
		values []float64
		nulls  []bool
		probes []float64
	}
	var sets []ds

	sets = append(sets, ds{name: "empty", probes: []float64{0}})

	allNull := make([]float64, 64)
	allNullMask := make([]bool, 64)
	for i := range allNullMask {
		allNullMask[i] = true
	}
	sets = append(sets, ds{name: "all-null", values: allNull, nulls: allNullMask, probes: []float64{0, 0.5}})

	singleRun := make([]float64, 4096)
	for i := range singleRun {
		singleRun[i] = 3.5
	}
	sets = append(sets, ds{name: "single-run", values: singleRun, probes: []float64{3.4, 3.5, 3.6}})

	domain := []float64{-273.15, -0.5, 0, 0.25, 1, 2.5, 3.14159, 8, 99.99, 1e6}
	dup := make([]float64, 8000)
	dupNulls := make([]bool, 8000)
	r := lcg(7)
	for i := range dup {
		dup[i] = domain[r.next()%uint64(len(domain))]
		dupNulls[i] = r.next()%9 == 0
	}
	sets = append(sets, ds{name: "duplicate-heavy",
		values: dup, nulls: dupNulls,
		probes: []float64{-300, -273.15, -0.25, 0.25, 3.14159, 3.5, 1e6, 2e6}})

	// Columns whose zone has something to say: an ascending one through the
	// values comparisons treat specially, one whose run ends at a NaN, and one
	// that holds nothing comparable at all.
	sets = append(sets,
		ds{name: "ascending-specials",
			values: []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 0, 2.5, 2.5, math.Inf(1)},
			probes: []float64{math.Inf(-1), -1, 0, 2.5, 3, math.Inf(1), math.NaN()}},
		ds{name: "run-ends-at-nan",
			values: []float64{1, 2, 3, math.NaN(), 0, 4}, nulls: []bool{false, false, false, false, false, true},
			probes: []float64{0, 2, 3.5, math.NaN()}},
		ds{name: "all-nan", values: []float64{math.NaN(), math.NaN()}, probes: []float64{0, math.NaN()}})

	for _, s := range sets {
		t.Run(s.name, func(t *testing.T) { runScanDiff(t, s.values, s.nulls, s.probes) })
	}
}

func TestScanDiffString(t *testing.T) {
	type ds struct {
		name   string
		values []string
		nulls  []bool
		probes []string
	}
	var sets []ds

	sets = append(sets, ds{name: "empty", probes: []string{""}})

	allNull := make([]string, 64)
	allNullMask := make([]bool, 64)
	for i := range allNullMask {
		allNullMask[i] = true
	}
	sets = append(sets, ds{name: "all-null", values: allNull, nulls: allNullMask, probes: []string{"", "a"}})

	singleRun := make([]string, 3000)
	for i := range singleRun {
		singleRun[i] = "pineapple"
	}
	sets = append(sets, ds{name: "single-run", values: singleRun, probes: []string{"", "pineapple", "pineapplf", "zzz"}})

	domain := []string{"", "AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	dup := make([]string, 6000)
	dupNulls := make([]bool, 6000)
	r := lcg(11)
	for i := range dup {
		dup[i] = domain[r.next()%uint64(len(domain))]
		dupNulls[i] = r.next()%8 == 0
	}
	sets = append(sets, ds{name: "duplicate-heavy",
		values: dup, nulls: dupNulls,
		probes: []string{"", "AIR", "BOAT", "RAIL", "SHIP", "TRUCKZ"}})

	for _, s := range sets {
		t.Run(s.name, func(t *testing.T) { runScanDiff(t, s.values, s.nulls, s.probes) })
	}
}

// TestScanDiffProbeConversions pins the cross-type probe semantics: integral
// float probes against an int64 column convert exactly; non-integral ones
// must refuse (ok=false) so the caller falls back to the evaluator, which is
// the only path that can honor float comparison semantics there.
func TestScanDiffProbeConversions(t *testing.T) {
	values := []int64{1, 2, 3, 4, 5, 5, 5, 6}
	for name, seg := range buildScannables(values, nil) {
		got, _, ok := seg.ScanEncoded(ScanPredicate{Op: ScanEq, Value: types.Float(5)}, nil)
		if !ok || len(got) != 3 {
			t.Errorf("%s: integral float probe: ok=%v matches=%d, want ok=true matches=3", name, ok, len(got))
		}
		if _, _, ok := seg.ScanEncoded(ScanPredicate{Op: ScanEq, Value: types.Float(4.5)}, nil); ok {
			t.Errorf("%s: non-integral float probe on int64 column must fall back", name)
		}
		if _, _, ok := seg.ScanEncoded(ScanPredicate{Op: ScanEq, Value: types.Str("5")}, nil); ok {
			t.Errorf("%s: string probe on int64 column must fall back", name)
		}
	}
	fvalues := []float64{0.5, 1, 1.5, 2}
	for name, seg := range buildScannables(fvalues, nil) {
		got, _, ok := seg.ScanEncoded(ScanPredicate{Op: ScanGe, Value: types.Int(1)}, nil)
		if !ok || len(got) != 3 {
			t.Errorf("%s: int probe on float64 column: ok=%v matches=%d, want ok=true matches=3", name, ok, len(got))
		}
	}
}

// TestScanDiffAppendsToDst pins the append contract: matches are appended to
// dst, preserving what the caller already had.
func TestScanDiffAppendsToDst(t *testing.T) {
	values := []int64{7, 8, 7}
	for name, seg := range buildScannables(values, nil) {
		dst := []types.ChunkOffset{999}
		got, _, ok := seg.ScanEncoded(ScanPredicate{Op: ScanEq, Value: types.Int(7)}, dst)
		if !ok {
			t.Fatalf("%s: scan refused", name)
		}
		want := []types.ChunkOffset{999, 0, 2}
		if !equalOffsets(got, want) {
			t.Errorf("%s: got %v, want %v", name, got, want)
		}
	}
}
