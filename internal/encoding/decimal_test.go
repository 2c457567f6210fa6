package encoding

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// TestDiffDecimalFrameOfReference holds a decimal segment against the same
// column left unencoded: every ScanOp, ScanSorted, Gather and Materialize give
// the same offsets and bits, and Zone, SummarizeRows and a snapshot round trip
// the same values — for probes that are exact decimals, between two codes,
// NaN, ±Inf, -0, ints and past ±2^53. A column holding a value that no
// exponent makes exact is refused by the encoder, the size model and an
// explicit FrameOfReference spec.
func TestDiffDecimalFrameOfReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const n = 5000
	top := float64(maxDecimal)
	for _, c := range []struct {
		name   string
		values []float64
		nulls  []bool
		exp    uint8
	}{
		{"cents", generate(n, func(int) float64 { return float64(rng.Intn(100_000)) / 100 }), nil, 2},
		{"mills with NULLs", generate(n, func(i int) float64 { return float64(i*7919%100_000) / 1000 }), nullsEvery(n, 11), 3},
		{"negative cents", generate(n, func(int) float64 { return float64(rng.Intn(100_000)-50_000) / 100 }), nil, 2},
		{"integers", generate(n, func(int) float64 { return float64(rng.Intn(1000) - 500) }), nil, 0},
		{"ascending cents", generate(n, func(i int) float64 { return float64(i) / 100 }), nil, 2},
		{"±2^53 / 10^3", []float64{top / 1000, -top / 1000, (top - 1) / 1000, 0.001, 0, -1.5}, nil, 3},
		{"all NULL", make([]float64, 100), nullsEvery(100, 1), 0},
		{"one row", []float64{12.5}, nil, 1},
	} {
		plain := storage.ValueSegmentFromSlice(c.values, c.nulls)
		probes := []float64{math.Inf(-1), -1e300, -top, -top / 1000, -50.5, math.Copysign(0, -1), 0, 0.005, pointThree,
			12.5, 499.99, top / 1000, top, 1e300, math.Inf(1), math.NaN()}
		for _, i := range []int{0, len(c.values) / 2, len(c.values) - 1} {
			v := c.values[i]
			probes = append(probes, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
		}
		var smallest int64 // the segment's bytes over the vector that needs fewer
		for _, comp := range []VectorCompressionType{FixedSizeByteAligned, BitPacked128} {
			name := c.name + "/" + comp.String()
			sealed, _ := Seal(plain, false, &Spec{Encoding: FrameOfReference, Compression: comp})
			dec, ok := sealed.(*DecimalSegment)
			if want := fmt.Sprintf("decimal(%d)", c.exp); !ok || ValueCompression(sealed) != want {
				t.Fatalf("%s: sealed as %T %s, want %s", name, sealed, ValueCompression(sealed), want)
			}
			if smallest == 0 || dec.MemoryUsage() < smallest {
				smallest = dec.MemoryUsage()
			}
			buf, err := AppendSegment(nil, dec)
			if err != nil {
				t.Fatal(err)
			}
			restored := roundTrip(t, dec)
			if again, _ := AppendSegment(nil, restored); !bytes.Equal(again, buf) {
				t.Errorf("%s: the restored segment serializes differently", name)
			}
			diffDecimal(t, name, dec, plain, probes)
			diffDecimal(t, name+" restored", restored, plain, probes)
		}
		if predicted, _ := SizesOf(plain); predicted[FrameOfReference] != smallest {
			t.Errorf("%s: the size model predicts %d bytes, the smaller segment uses %d", c.name, predicted[FrameOfReference], smallest)
		}
	}
	for name, v := range map[string]float64{"0.1+0.2": pointThree, "-0": math.Copysign(0, -1), "NaN": math.NaN(),
		"+Inf": math.Inf(1), "-Inf": math.Inf(-1), "subnormal": math.SmallestNonzeroFloat64, "past 2^53": top + 2} {
		plain := storage.ValueSegmentFromSlice([]float64{1.25, v, 2.5}, nil)
		sizes, _ := SizesOf(plain)
		if _, ok := EncodeDecimal(plain.Values(), nil, FixedSizeByteAligned); ok || sizes[FrameOfReference] != 0 {
			t.Errorf("%s: taken for an exact decimal", name)
		}
		if sealed, _ := Seal(plain, false, &Spec{Encoding: FrameOfReference}); !isDictionary(sealed) {
			t.Errorf("%s: FrameOfReference sealed %T, want the Dictionary it falls back to", name, sealed)
		}
	}
}

// pointThree is 0.1 + 0.2 in float64 arithmetic (Go folds the constant
// expression exactly to 0.3): no exponent makes it an exact decimal.
var pointThree = math.Nextafter(0.3, 1)

func isDictionary(seg storage.Segment) bool {
	_, ok := seg.(*DictionarySegment[float64])
	return ok
}

// diffDecimal compares seg, a decimal segment, with plain, the column it holds.
func diffDecimal(t *testing.T, name string, seg storage.Segment, plain *storage.ValueSegment[float64], probes []float64) {
	t.Helper()
	values, nulls := plain.Values(), plain.Nulls()
	var preds []ScanPredicate
	for _, d := range diffPredicates(probes) {
		preds = append(preds, d.scanPredicate())
	}
	for _, x := range []int64{0, 12, -500, maxDecimal + 1, -maxDecimal - 1, math.MaxInt64, math.MinInt64} {
		for _, op := range []ScanOp{ScanEq, ScanNe, ScanLt, ScanLe, ScanGt, ScanGe} {
			preds = append(preds, ScanPredicate{Op: op, Value: types.Int(x)})
		}
	}
	ascends := true
	for i, v := range values {
		ascends = ascends && (nulls == nil || !nulls[i]) && (i == 0 || v >= values[i-1])
	}
	for _, p := range preds {
		want, _ := ScanValues(p, values, nulls, nil)
		got, path, ok := seg.(ScannableSegment).ScanEncoded(p, nil)
		if !ok || path != PathFrameOfReference || !slices.Equal(got, want) {
			t.Fatalf("%s: %v %v [%v, %v]: ok %v path %s, %d offsets, unencoded %d (got %v, want %v)",
				name, p.Op, p.Value, p.Lo, p.Hi, ok, path, len(got), len(want), clip(got), clip(want))
		}
		if !ascends {
			continue
		}
		f1, l1, ok1 := ScanSorted(seg, p)
		f2, l2, ok2 := ScanSorted(plain, p)
		if ok1 != ok2 || l1-f1 != l2-f2 || (l1 > f1 && f1 != f2) { // the same rows; an empty range may sit anywhere
			t.Fatalf("%s: ScanSorted %v %v [%v, %v] = [%d, %d) %v, unencoded [%d, %d) %v", name, p.Op, p.Value, p.Lo, p.Hi, f1, l1, ok1, f2, l2, ok2)
		}
	}

	sameRows := func(what string, got []float64, gotNulls []bool, want []float64, wantNulls []bool) {
		t.Helper()
		for i := range want {
			null, gotNull := wantNulls != nil && wantNulls[i], gotNulls != nil && gotNulls[i]
			if gotNull != null || (!null && math.Float64bits(got[i]) != math.Float64bits(want[i])) {
				t.Fatalf("%s: %s row %d = %v (NULL %v), want %v (NULL %v)", name, what, i, got[i], gotNull, want[i], null)
			}
		}
	}
	pos, slots := make([]types.ChunkOffset, len(values)), make([]int32, len(values))
	for i := range pos {
		pos[i], slots[i] = types.ChunkOffset(len(values)-1-i), int32(len(values)-1-i)
	}
	got, gotNulls := MaterializePositions[float64](seg, pos)
	want, wantNulls := MaterializePositions[float64](plain, pos)
	sameRows("Gather", got, gotNulls, want, wantNulls)
	got, gotNulls = make([]float64, len(values)), make([]bool, len(values))
	gather(seg, pos, slots, got, gotNulls)
	sameRows("Gather into slots", got, gotNulls, values, nulls)
	got, gotNulls = Materialize[float64](seg)
	sameRows("Materialize", got, gotNulls, values, nulls)

	checkZone(t, name, seg.(ScannableSegment), values, nulls)
	z, lo, hi := seg.(storage.ZonedSegment).Zone(), math.Inf(1), math.Inf(-1)
	for i, v := range values {
		if nulls == nil || !nulls[i] {
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	if !z.Min.IsNull() && (math.Float64bits(z.Min.F) != math.Float64bits(lo) || math.Float64bits(z.Max.F) != math.Float64bits(hi)) {
		t.Errorf("%s: zone %v..%v, the rows' bounds %v..%v", name, z.Min.F, z.Max.F, lo, hi)
	}
	for _, r := range [][2]int{{0, len(values)}, {len(values) / 3, 2 * len(values) / 3}} {
		if !sameSummary(SummarizeRows[float64](seg, r[0], r[1]), SummarizeRows[float64](plain, r[0], r[1])) {
			t.Errorf("%s: the summary of rows %v differs from the unencoded column's", name, r)
		}
	}
}
