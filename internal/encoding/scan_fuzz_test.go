package encoding

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hyrise/internal/types"
)

// FuzzEncodedScan fuzzes every encoded scan path against the independent
// row-at-a-time reference from the differential harness. The raw bytes are
// the column: each byte carries a small signed value (lots of duplicates and
// runs, the shapes encodings exploit) and a null marker; stride widens the
// domain up to int64 overflow territory to stress the frame-of-reference
// offset arithmetic. The predicate is decoded from (opByte, probe, lo, hi).
// The same integers divided by 100 are the column again, as cents, the rows
// whose byte has bit 4 set nudged by steps ULPs, and so is the probe: a decimal
// segment, its nudged values corrected or patches, scanned against the float
// reference.
func FuzzEncodedScan(f *testing.F) {
	// Seeds follow TPC-H column shapes: l_quantity (1..50, duplicate-heavy),
	// l_shipdate (dense day numbers), l_orderkey (sparse, wide stride),
	// l_discount scaled (constant-ish runs), and an adversarial near-overflow
	// stride with extreme probes. Each is 64 bytes at most: the fuzzer
	// minimizes every input that adds coverage byte by byte, and for a column
	// of a few hundred bytes that outlasts a 10 s smoke run.
	quantity := make([]byte, 64)
	for i := range quantity {
		quantity[i] = byte(1 + (i*7)%50)
	}
	f.Add(quantity, uint8(0), int64(25), int64(10), int64(40), int64(1), int8(0))
	shipdate := make([]byte, 64)
	for i := range shipdate {
		shipdate[i] = byte(100 + (i/4)%28)
	}
	f.Add(shipdate, uint8(6), int64(110), int64(104), int64(118), int64(1), int8(0))
	orderkey := make([]byte, 64)
	for i := range orderkey {
		orderkey[i] = byte(i)
	}
	f.Add(orderkey, uint8(4), int64(32_000), int64(0), int64(64_000), int64(1000), int8(0))
	discount := make([]byte, 64)
	for i := range discount {
		discount[i] = byte(5 + (i/16)%3)
	}
	f.Add(discount, uint8(1), int64(6), int64(5), int64(7), int64(1), int8(0))
	f.Add([]byte{0x80, 0x7F, 0x00, 0xFF, 0x0F, 0x80, 0x7F}, uint8(3),
		int64(-9_223_372_036_854_775_808), int64(-1), int64(9_223_372_036_854_775_807),
		int64(72_057_594_037_927_936), int8(0)) // stride 2^56: values straddle the int64 extremes
	prices := make([]byte, 64)
	for i := range prices {
		prices[i] = byte(i * 37)
	}
	f.Add(prices, uint8(6), int64(4_000), int64(-2_000), int64(2_000), int64(1999), int8(0)) // as cents: a decimal segment
	// ±(2^53+1) beside 0, probed at ±2^53: as floats, which the evaluator
	// compares through float64, where 2^53+1 is 2^53.
	past53 := []byte{1, 0xFF, 0, 1, 0, 0xFF, 1}
	f.Add(past53, uint8(0), int64(1<<53), int64(-(1 << 53)), int64(1<<53), int64(1<<53+1), int8(0))
	f.Add(past53, uint8(3), int64(1<<53), int64(-(1 << 53)), int64(1<<53), int64(1<<53+1), int8(0))
	f.Add(past53, uint8(1), int64(-(1 << 53)), int64(-(1 << 53)), int64(1<<53), int64(1<<53+1), int8(0))
	// As cents, small multiples of 2^47 are exact decimals and every 37th
	// value, 126·2^47 / 100, is a patch: a decimal segment with patches.
	patched := make([]byte, 64)
	for i := range patched {
		patched[i] = byte(i % 5)
		if i%37 == 3 {
			patched[i] = 126
		}
	}
	f.Add(patched, uint8(6), int64(0), int64(1<<48), int64(127<<47), int64(1<<47), int8(0))
	f.Add(patched, uint8(1), int64(126<<47), int64(0), int64(0), int64(1<<47), int8(0))
	// Prices a step or three off their cents: corrected decimals.
	f.Add(prices, uint8(0), int64(4_070), int64(-2_000), int64(2_000), int64(1999), int8(1))
	f.Add(prices, uint8(5), int64(4_070), int64(-2_000), int64(2_000), int64(1999), int8(-3))

	f.Fuzz(func(t *testing.T, data []byte, opByte uint8, probe, lo, hi, stride int64, steps int8) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		values := make([]int64, len(data))
		var nulls []bool
		for i, b := range data {
			values[i] = int64(int8(b)) * stride // wrapping on purpose
			if b&0x0F == 0x0F {
				if nulls == nil {
					nulls = make([]bool, len(data))
				}
				nulls[i] = true
			}
		}
		op := ScanOp(opByte % 9)
		pred := ScanPredicate{Op: op}
		switch op {
		case ScanBetween:
			pred.Lo, pred.Hi = types.Int(lo), types.Int(hi)
		case ScanIsNull, ScanIsNotNull:
		default:
			pred.Value = types.Int(probe)
		}
		want := refScan(op, probe, lo, hi, values, nulls)
		for name, seg := range buildScannables(values, nulls) {
			got, _, ok := seg.ScanEncoded(pred, nil)
			if !ok {
				t.Fatalf("%s: refused int predicate %v on int64 column", name, op)
			}
			if got == nil {
				got = []types.ChunkOffset{}
			}
			if !equalOffsets(got, want) {
				t.Fatalf("%s: op=%v probe=%d lo=%d hi=%d stride=%d: got %d offsets, reference %d (got %v, want %v)",
					name, op, probe, lo, hi, stride, len(got), len(want), clip(got), clip(want))
			}
		}
		if got, ok := ScanValues(pred, values, nulls, nil); !ok {
			t.Fatalf("ScanValues refused int predicate %v", op)
		} else {
			if got == nil {
				got = []types.ChunkOffset{}
			}
			if !equalOffsets(got, want) {
				t.Fatalf("ScanValues: op=%v: got %v, want %v", op, clip(got), clip(want))
			}
		}

		// The probes as floats: an int path refuses them or answers as the
		// evaluator does, comparing the ints through float64.
		floats := make([]float64, len(values))
		for i, v := range values {
			floats[i] = float64(v)
		}
		fprobe, flo, fhi := float64(probe), float64(lo), float64(hi)
		fpred := ScanPredicate{Op: op, Value: types.Float(fprobe)}
		if op == ScanBetween {
			fpred = ScanPredicate{Op: op, Lo: types.Float(flo), Hi: types.Float(fhi)}
		}
		fwant := refScan(op, fprobe, flo, fhi, floats, nulls)
		for name, seg := range buildScannables(values, nulls) {
			if got, _, ok := seg.ScanEncoded(fpred, nil); ok && !equalOffsets(got, fwant) {
				t.Fatalf("%s: op=%v float probe=%v lo=%v hi=%v: got %v, want %v", name, op, fprobe, flo, fhi, clip(got), clip(fwant))
			}
		}
		if got, ok := ScanValues(fpred, values, nulls, nil); ok && !equalOffsets(got, fwant) {
			t.Fatalf("ScanValues: op=%v float probe=%v: got %v, want %v", op, fprobe, clip(got), clip(fwant))
		}

		// The same integers as cents: a decimal segment unless its patches cost as
		// much as the floats.
		cents := make([]float64, len(values))
		for i, v := range values {
			if cents[i] = float64(v) / 100; data[i]&0x10 != 0 {
				cents[i] = step(cents[i], int64(steps))
			}
		}
		fprobe, flo, fhi = step(float64(probe)/100, int64(steps)), float64(lo)/100, float64(hi)/100
		fpred = ScanPredicate{Op: op, Value: types.Float(fprobe)}
		if op == ScanBetween {
			fpred = ScanPredicate{Op: op, Lo: types.Float(flo), Hi: types.Float(fhi)}
		}
		fwant = refScan(op, fprobe, flo, fhi, cents, nulls)
		for _, comp := range []VectorCompressionType{FixedSizeByteAligned, BitPacked128} {
			seg, ok := EncodeDecimal(cents, nulls, comp)
			if !ok {
				break
			}
			if got, _, ok := seg.ScanEncoded(fpred, nil); !ok || !equalOffsets(got, fwant) {
				t.Fatalf("Decimal-%s: op=%v probe=%v lo=%v hi=%v: ok %v, got %v, want %v", comp, op, fprobe, flo, fhi, ok, clip(got), clip(fwant))
			}
		}
	})
}

// FuzzEncodedScanStrings fuzzes the string dictionary, its codes and its ends
// in either code vector, against a plain []string read row at a time: every
// ScanOp, Gather, DecodeAll, Zone and the snapshot round trip. data is the
// column: values separated by 0xFF, a value that starts with 0xFE is NULL —
// everything else, "", NUL bytes and invalid UTF-8 included, is a value.
func FuzzEncodedScanStrings(f *testing.F) {
	column := func(values ...string) []byte { return []byte(strings.Join(values, "\xff")) }
	var dates, flags, comments []string
	for i := range 40 { // small: the fuzzer minimizes what it finds byte by byte
		dates = append(dates, fmt.Sprintf("199%d-%02d-%02d", 2+i/15, 1+i/3%12, 1+i*11%28))
		flags = append(flags, []string{"A", "N", "R", "\xfe"}[i*7%4])
		comments = append(comments, fmt.Sprintf("final deposits %d haggle", i*7919%100))
	}
	f.Add(column(dates...), "1994-01-01", "1993-06-01", "1995-01-01")
	f.Add(column(flags...), "N", "A", "R")
	f.Add(column(comments...), "final deposits 5", "b", "final z")
	f.Add(column("", "a\x00b", "\x00", "", "\xc3\x28", "\xfe", "a", "a\x00"), "a\x00", "", "\xc3")
	f.Add(column(), "", "", "")

	f.Fuzz(func(t *testing.T, data []byte, probe, lo, hi string) {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		values := strings.Split(string(data), "\xff")
		n := len(values)
		nulls, anyNull := make([]bool, n), false
		for i, v := range values {
			nulls[i] = strings.HasPrefix(v, "\xfe")
			anyNull = anyNull || nulls[i]
		}
		if !anyNull {
			nulls = nil
		}
		for layout := range 4 {
			comp, ends := VectorCompressionType(layout%2), VectorCompressionType(layout/2)
			name, seg := fmt.Sprintf("%s codes, %s ends", comp, ends), withEnds(EncodeDictionary(values, nulls, comp), ends)
			for op := ScanEq; op <= ScanIsNotNull; op++ {
				pred := ScanPredicate{Op: op, Value: types.Str(probe)}
				if op == ScanBetween {
					pred = ScanPredicate{Op: op, Lo: types.Str(lo), Hi: types.Str(hi)}
				}
				got, _, ok := seg.ScanEncoded(pred, nil)
				if want := refScan(op, probe, lo, hi, values, nulls); !ok || !equalOffsets(got, want) {
					t.Fatalf("%s: %v: got %v (ok %v), want %v", name, op, clip(got), ok, clip(want))
				}
			}
			pos := make([]types.ChunkOffset, n)
			for i := range pos {
				pos[i] = types.ChunkOffset(n - 1 - i)
			}
			gathered, gatheredNulls := make([]string, n), make([]bool, n)
			seg.Gather(pos, nil, gathered, gatheredNulls)
			decoded, decodedNulls := seg.DecodeAll()
			for i, v := range values {
				null := nulls != nil && nulls[i]
				if g, gNull := gathered[n-1-i], gatheredNulls[n-1-i]; gNull != null || (!null && g != v) {
					t.Fatalf("%s: Gather row %d = %q (null %v), want %q (null %v)", name, i, g, gNull, v, null)
				}
				if d, dNull := decoded[i], decodedNulls != nil && decodedNulls[i]; dNull != null || (!null && d != v) {
					t.Fatalf("%s: DecodeAll row %d = %q (null %v), want %q (null %v)", name, i, d, dNull, v, null)
				}
			}
			checkZone(t, name, seg, values, nulls)
			buf, err := AppendSegment(nil, seg)
			if err != nil {
				t.Fatal(err)
			}
			restored, _, err := DecodeSegment(buf)
			if err != nil {
				t.Fatalf("%s: a snapshot of the segment does not decode: %v", name, err)
			}
			assertSameValues(t, restored, seg)
			// Restore packs the values where that saves bytes; from there on a
			// round trip is the identity.
			if ValueCompression(restored) == "none" {
				if again, _ := AppendSegment(nil, restored); !bytes.Equal(again, buf) {
					t.Fatalf("%s: the restored segment serializes differently", name)
				}
			}
		}
	})
}
