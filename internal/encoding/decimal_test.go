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
// NaN, ±Inf, -0, ints and past ±2^53. A value that no exponent makes exact is
// a patch; a column whose patches cost as much as its plain array is refused
// by the encoder, the size model and an explicit FrameOfReference spec.
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
	for name, v := range map[string]float64{"1001 steps past 0.3": step(0.3, 1001), "-0": math.Copysign(0, -1), "NaN": math.NaN(),
		"+Inf": math.Inf(1), "-Inf": math.Inf(-1), "subnormal": math.SmallestNonzeroFloat64, "past 2^53": top + 2} {
		if seg, ok := EncodeDecimal([]float64{1.25, v, 2.5}, nil, FixedSizeByteAligned); !ok || ValueCompression(seg) != "decimal(2)+1" {
			t.Errorf("%s: beside two exact decimals, not one patch", name)
		}
		plain := storage.ValueSegmentFromSlice([]float64{v, 1.25, v}, nil) // 24 B of patches, 24 B of floats
		sizes, _ := SizesOf(plain)
		if _, ok := EncodeDecimal(plain.Values(), nil, FixedSizeByteAligned); ok || sizes[FrameOfReference] != 0 {
			t.Errorf("%s: taken for a decimal column", name)
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

// TestDiffPatchedDecimal holds decimal segments with patches against the same
// column left unencoded, bit for bit: Get, ValueAt, DecodeAll, Gather (in any
// order, twice over, into slots), every ScanOp, ScanSorted, Zone and SummarizeRows, over
// either code vector and after a snapshot round trip. The columns hold NaN
// (two payloads), ±Inf, -0, subnormals, ±(2^53-1) and ±(2^53+2) among cents
// and NULLs; none, one patch per 2048-row block, or all rows but one patched.
// A value one step past its cents that only a few rows hold stays a patch: a
// correction width would cost every row its bits.
func TestDiffPatchedDecimal(t *testing.T) {
	const n = 5000
	top := float64(maxDecimal)
	cents := func(i int) float64 { return float64(i*7919%100_000-20_000) / 100 }
	awkward := []float64{math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0001), math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 0x1p-1030,
		top - 1, -(top - 1), top + 2, -(top + 2), pointThree, 1e300}
	for _, c := range []struct {
		name    string
		values  []float64
		nulls   []bool
		patches int  // the encoder's, -1 where it refuses the column
		force   bool // patch every inexact row at exponent 2, whatever the price
	}{
		{"no patches", generate(n, cents), nullsEvery(n, 11), 0, false},
		{"awkward values", generate(n, func(i int) float64 {
			if i%97 == 3 {
				return awkward[i/97%len(awkward)]
			}
			return cents(i)
		}), nullsEvery(n, 13), 48, false},
		{"one patch per block", generate(n, func(i int) float64 {
			if i%forBlockSize == 7 {
				return math.Nextafter(float64(i/forBlockSize+1), math.Inf(1))
			}
			return cents(i)
		}), nil, 3, false},
		{"ascending with patches", generate(n, func(i int) float64 {
			if v := float64(i) / 100; i%500 != 499 {
				return v
			}
			return math.Nextafter(float64(i)/100, math.Inf(1))
		}), nil, 10, false},
		{"all rows but one patched", generate(n, func(i int) float64 {
			if i == n/2 {
				return 12.5
			}
			return step(float64(i+1), 1000) // past any correction
		}), nullsEvery(n, 7), -1, true},
	} {
		plain := storage.ValueSegmentFromSlice(c.values, c.nulls)
		probes := append([]float64{-1e300, -200, -0.5, 0, 12.5, 12.49, 199.99, 800}, awkward...)
		for _, i := range []int{0, 487, 499, 1499, 2047, 2048, 2055, 2999, 3337, 4103, 4999} {
			probes = append(probes, c.values[i], math.Nextafter(c.values[i], math.Inf(1)), math.Nextafter(c.values[i], math.Inf(-1)))
		}
		for _, comp := range []VectorCompressionType{FixedSizeByteAligned, BitPacked128} {
			name := c.name + "/" + comp.String()
			seg, ok := EncodeDecimal(c.values, c.nulls, comp)
			if ok != (c.patches >= 0) || ok && len(seg.patches.rows) != c.patches {
				t.Fatalf("%s: encoded %v with %d patches, want %d", name, ok, func() int {
					if seg == nil {
						return -1
					}
					return len(seg.patches.rows)
				}(), c.patches)
			}
			if c.force {
				d := decimalsAt(c.values, c.nulls, 2, 0)
				seg = &DecimalSegment{ints: EncodeFrameOfReference(d.ints, c.nulls, comp), exp: 2, patches: d.patches}
			}
			if want := fmt.Sprintf("decimal(%d)+%d", seg.exp, len(seg.patches.rows)); len(seg.patches.rows) == 0 && ValueCompression(seg) != fmt.Sprintf("decimal(%d)", seg.exp) ||
				len(seg.patches.rows) > 0 && ValueCompression(seg) != want {
				t.Errorf("%s: value compression %s", name, ValueCompression(seg))
			}
			buf, _ := AppendSegment(nil, seg)
			if tag := buf[0]; (tag == segDecimalPatched) != (len(seg.patches.rows) > 0) || (tag != segDecimal && tag != segDecimalPatched) {
				t.Errorf("%s: written under tag %d", name, tag)
			}
			restored := roundTrip(t, seg)
			if again, _ := AppendSegment(nil, restored); !bytes.Equal(again, buf) {
				t.Errorf("%s: the restored segment serializes differently", name)
			}
			diffPatched(t, name, seg, plain, probes)
			diffPatched(t, name+" restored", restored.(*DecimalSegment), plain, probes)
		}
	}
}

// diffPatched compares seg with plain, the column it holds, on every read.
func diffPatched(t *testing.T, name string, seg *DecimalSegment, plain *storage.ValueSegment[float64], probes []float64) {
	t.Helper()
	values, nulls := plain.Values(), plain.Nulls()
	same := func(what string, i int, got float64, gotNull bool) {
		t.Helper()
		if null := nulls != nil && nulls[i]; gotNull != null || (!null && math.Float64bits(got) != math.Float64bits(values[i])) {
			t.Fatalf("%s: %s row %d = %v (NULL %v), want %v (NULL %v)", name, what, i, got, gotNull, values[i], null)
		}
	}
	for i := range values {
		v, null := seg.Get(types.ChunkOffset(i))
		same("Get", i, v, null)
		x := seg.ValueAt(types.ChunkOffset(i))
		same("ValueAt", i, x.F, x.IsNull())
		if seg.IsNullAt(types.ChunkOffset(i)) != null {
			t.Fatalf("%s: IsNullAt row %d", name, i)
		}
	}
	all, allNulls := seg.DecodeAll()
	for i := range values {
		same("DecodeAll", i, all[i], allNulls != nil && allNulls[i])
	}
	rng := rand.New(rand.NewSource(int64(len(values))))
	twice := make([]types.ChunkOffset, 0, 2*len(values)) // ascending, each row two times
	for i := range values {
		twice = append(twice, types.ChunkOffset(i), types.ChunkOffset(i))
	}
	for _, pos := range [][]types.ChunkOffset{reversed(len(values)), sample(rng, len(values), 3), sample(rng, len(values), len(values)), twice} {
		out, outNulls := MaterializePositions[float64](seg, pos)
		slots := make([]int32, len(pos))
		for i := range slots {
			slots[i] = int32(len(pos) - 1 - i)
		}
		into, intoNulls := make([]float64, len(pos)), make([]bool, len(pos))
		gather(seg, pos, slots, into, intoNulls)
		for i, p := range pos {
			same("Gather", int(p), out[i], outNulls[i])
			same("Gather into slots", int(p), into[slots[i]], intoNulls[slots[i]])
		}
	}

	ascends := true
	for i, v := range values {
		ascends = ascends && (nulls == nil || !nulls[i]) && v == v && (i == 0 || v >= values[i-1])
	}
	for _, d := range diffPredicates(probes) {
		p := d.scanPredicate()
		want, _ := ScanValues(p, values, nulls, nil)
		got, path, ok := seg.ScanEncoded(p, nil)
		if !ok || path != PathFrameOfReference || !slices.Equal(got, want) {
			t.Fatalf("%s: %s: ok %v path %s, %d offsets, unencoded %d (got %v, want %v)", name, d.name, ok, path, len(got), len(want), clip(got), clip(want))
		}
		if f1, l1, ok1 := ScanSorted(seg, p); ascends {
			f2, l2, ok2 := ScanSorted(plain, p)
			if ok1 != ok2 || l1-f1 != l2-f2 || (l1 > f1 && f1 != f2) {
				t.Fatalf("%s: ScanSorted %s = [%d, %d) %v, unencoded [%d, %d) %v", name, d.name, f1, l1, ok1, f2, l2, ok2)
			}
		}
	}
	checkZone(t, name, seg, values, nulls)
	for _, r := range [][2]int{{0, len(values)}, {len(values) / 3, 2 * len(values) / 3}} {
		if !sameSummary(SummarizeRows[float64](seg, r[0], r[1]), SummarizeRows[float64](plain, r[0], r[1])) {
			t.Errorf("%s: the summary of rows %v differs from the unencoded column's", name, r)
		}
	}
}

// reversed is the offsets n-1 down to 0.
func reversed(n int) []types.ChunkOffset {
	pos := make([]types.ChunkOffset, n)
	for i := range pos {
		pos[i] = types.ChunkOffset(n - 1 - i)
	}
	return pos
}

// sample is k offsets below n: ascending with gaps when k < n, else shuffled.
func sample(rng *rand.Rand, n, k int) []types.ChunkOffset {
	var pos []types.ChunkOffset
	if k < n {
		for i := 0; i < n; i += k {
			pos = append(pos, types.ChunkOffset(i+rng.Intn(k)%(n-i)))
		}
		return pos
	}
	for _, p := range rng.Perm(n) {
		pos = append(pos, types.ChunkOffset(p))
	}
	return pos
}

// TestDiffCorrectedDecimal holds decimal segments whose values lie a few ULP
// steps off their decimals — as a price times a quantity does — against the
// same column left unencoded, bit for bit, on every read diffPatched makes,
// over either code vector, sealed by the size model and after a snapshot round
// trip under the corrected tag. The columns take correction widths 1 to 3,
// negative values, values up to the magnitude where a width keeps the
// integers ordered and past it (the wider steps become patches), a value whose
// decimal lies in the binade above it, where the width no longer does, steps
// across zero (-0 and subnormals stay patches), NULLs, and patches (NaN, ±Inf,
// -0, values 1000 steps off) mixed in.
func TestDiffCorrectedDecimal(t *testing.T) {
	const n = 5000
	rng := rand.New(rand.NewSource(74))
	cents := func(i int) float64 { return float64(i*7919%100_000-20_000) / 100 }
	guard := float64(1 << 50) // integers are 4 steps apart here: width 1 keeps order, up to 2^51
	for _, c := range []struct {
		name   string
		values []float64
		nulls  []bool
		want   string // the value compression
	}{
		{"width 1", generate(n, func(i int) float64 { return step(cents(i), -int64(i%2)) }), nullsEvery(n, 11), "decimal(2)~1"},
		{"width 2, every value a step up", generate(n, func(i int) float64 { return step(cents(i), 1) }), nil, "decimal(2)~2"},
		{"width 2, negative", generate(n, func(i int) float64 { return step(-float64(i*7919%100_000+1)/100, int64(i%4-2)) }), nil, "decimal(2)~2"},
		{"width 3", generate(n, func(i int) float64 { return step(float64(i*7919%100_000-20_000)/1000, int64(i%8-4)) }), nullsEvery(n, 5), "decimal(3)~3"},
		{"prices", generate(n, func(int) float64 { return float64(rng.Intn(200_000)+90_000) / 100 * float64(rng.Intn(50)+1) }), nil, "decimal(2)~2"},
		{"at the ordering guard", generate(n, func(i int) float64 {
			return step(guard+float64(i*7919%100_000), int64(2*(i%10/9)-i%2)) // a tenth a step up: width 2
		}), nil, "decimal(0)~1+500"},
		{"below 2^51", generate(n, func(i int) float64 {
			if i == 0 {
				return step(2*guard, -1) // its decimal, 2^51, lies where width 1 does not keep order
			}
			return step(2*guard-float64(i*7919%100_000+1), -int64(i%10/9))
		}), nil, "decimal(0)+501"},
		{"past the ordering guard", generate(n, func(i int) float64 {
			return step(guard*float64(1+i%3/2)+float64(i*7919%100_000), -int64(i%20/19)) // a third at 2^51
		}), nil, "decimal(0)+250"},
		{"across zero", generate(n, func(i int) float64 {
			switch i % 50 {
			case 7:
				return step(0, -1) // -0
			case 8:
				return step(0, int64(i%5+1)) // a subnormal
			case 9:
				return step(0, -int64(i%5+2)) // a negative subnormal
			}
			return step(float64(i*7919%4000-2000)/100, int64(i%3-1))
		}), nullsEvery(n, 13), "decimal(2)~2+279"},
		{"with patches", generate(n, func(i int) float64 {
			switch i % 89 {
			case 1:
				return math.NaN()
			case 2:
				return math.Inf(i%2*2 - 1)
			case 3:
				return math.Copysign(0, -1)
			case 4:
				return step(cents(i), 1000)
			}
			return step(cents(i), int64(i%3-1))
		}), nullsEvery(n, 17), "decimal(2)~2+215"},
	} {
		plain := storage.ValueSegmentFromSlice(c.values, c.nulls)
		probes := []float64{math.Inf(-1), -1e300, -200, -0.5, math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 12.5, 199.99, 800,
			guard, 2 * guard, 1e300, math.Inf(1), math.NaN()}
		for _, i := range []int{0, 1, 2, 3, 7, 8, 9, 487, 2047, 2048, 3337, 4999} {
			v := c.values[i]
			probes = append(probes, v, step(v, 1), step(v, -1), step(v, 4), step(v, -5))
		}
		sealed, _ := Seal(plain, false, nil)
		if ValueCompression(sealed) != c.want {
			t.Errorf("%s: the size model sealed %T %s, want %s", c.name, sealed, ValueCompression(sealed), c.want)
		}
		for _, comp := range []VectorCompressionType{FixedSizeByteAligned, BitPacked128} {
			name := c.name + "/" + comp.String()
			seg, ok := EncodeDecimal(c.values, c.nulls, comp)
			if !ok {
				t.Fatalf("%s: not encoded, want %s", name, c.want)
			}
			if ValueCompression(seg) != c.want {
				t.Errorf("%s: encoded as %s, want %s", name, ValueCompression(seg), c.want)
			}
			buf, _ := AppendSegment(nil, seg)
			if (buf[0] == segDecimalCorrected) != (seg.bits > 0) {
				t.Errorf("%s: written under tag %d", name, buf[0])
			}
			restored := roundTrip(t, seg)
			if again, _ := AppendSegment(nil, restored); !bytes.Equal(again, buf) {
				t.Errorf("%s: the restored segment serializes differently", name)
			}
			diffPatched(t, name, seg, plain, probes)
			diffPatched(t, name+" restored", restored.(*DecimalSegment), plain, probes)
		}
	}
}
