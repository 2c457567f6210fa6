package benchmark

import (
	"math/rand"
	"testing"

	"hyrise/internal/encoding"
	"hyrise/internal/types"
)

// Microbenchmarks for the encoded scan paths: each compares evaluating a
// predicate directly on the encoded representation against the old
// decode-then-scan approach (materialize the segment, then scan the typed
// slices). Row count is fixed at 1M so the committed BENCH_BASELINE.json
// numbers are comparable across machines of the same class; like every
// BenchmarkMicro* benchmark these sit behind the CI benchdiff gate, so a
// change that slows a path >25% fails the bench job. When a legitimate
// change shifts the numbers, refresh the baseline as described in README.

const scanBenchRows = 1_000_000

// BenchmarkMicroScanDict scans a duplicate-heavy dictionary-encoded column
// (16 distinct values) with an equality predicate: one binary search over
// the dictionary, then value-id comparison — no decoding. Both physical
// compressions are measured; byte-aligned value ids scan as a plain byte
// slice, bit-packed ones pay block-wise unpacking.
func BenchmarkMicroScanDict(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	domain := []int64{3, 7, 11, 19, 23, 31, 42, 55, 71, 89, 101, 127, 163, 211, 255, 312}
	values := make([]int64, scanBenchRows)
	for i := range values {
		values[i] = domain[rng.Intn(len(domain))]
	}
	pred := encoding.ScanPredicate{Op: encoding.ScanEq, Value: types.Int(42)}
	var dst []types.ChunkOffset

	for _, c := range []struct {
		name        string
		compression encoding.VectorCompressionType
	}{
		{"", encoding.FixedSizeByteAligned},
		{"-bp128", encoding.BitPacked128},
	} {
		seg := encoding.EncodeDictionary(values, nil, c.compression)
		b.Run("encoded"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var ok bool
				dst, _, ok = seg.ScanEncoded(pred, dst[:0])
				if !ok || len(dst) == 0 {
					b.Fatal("encoded dictionary scan failed")
				}
			}
		})
		b.Run("materialized"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vals, nulls := seg.DecodeAll()
				var ok bool
				dst, ok = encoding.ScanValues(pred, vals, nulls, dst[:0])
				if !ok || len(dst) == 0 {
					b.Fatal("materialized scan failed")
				}
			}
		})
	}
}

// BenchmarkMicroScanFoR runs a range predicate over a frame-of-reference
// column of dense integers: the bounds are rewritten into the offset domain
// once, and whole blocks short-circuit on their min/max. encoded-bp128 is the
// same column over bit-packed offsets (12 bits where byte-aligned ones take
// 16), whose straddling blocks compare 64 codes at a time as they unpack.
// decimal is the same column as cents, a float64 column of exact decimals: its
// float bounds become an interval of its integers once, then the same blocks
// run.
func BenchmarkMicroScanFoR(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	values := make([]int64, scanBenchRows)
	for i := range values {
		values[i] = 1_000_000 + int64(i) + int64(rng.Intn(64))
	}
	seg := encoding.EncodeFrameOfReference(values, nil, encoding.FixedSizeByteAligned)
	pred := encoding.ScanPredicate{
		Op: encoding.ScanBetween,
		Lo: types.Int(1_200_000),
		Hi: types.Int(1_300_000),
	}
	var dst []types.ChunkOffset

	b.Run("encoded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var ok bool
			dst, _, ok = seg.ScanEncoded(pred, dst[:0])
			if !ok || len(dst) == 0 {
				b.Fatal("encoded FoR scan failed")
			}
		}
	})
	packed := encoding.EncodeFrameOfReference(values, nil, encoding.BitPacked128)
	b.Run("encoded-bp128", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var ok bool
			dst, _, ok = packed.ScanEncoded(pred, dst[:0])
			if !ok || len(dst) == 0 {
				b.Fatal("encoded FoR scan failed")
			}
		}
	})
	b.Run("materialized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vals, nulls := seg.DecodeAll()
			var ok bool
			dst, ok = encoding.ScanValues(pred, vals, nulls, dst[:0])
			if !ok || len(dst) == 0 {
				b.Fatal("materialized scan failed")
			}
		}
	})
	cents := make([]float64, len(values))
	for i, v := range values {
		cents[i] = float64(v) / 100
	}
	dec, exact := encoding.EncodeDecimal(cents, nil, encoding.FixedSizeByteAligned)
	if !exact {
		b.Fatal("cents are no exact decimals")
	}
	centsPred := encoding.ScanPredicate{Op: encoding.ScanBetween, Lo: types.Float(12_000), Hi: types.Float(13_000)}
	b.Run("decimal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var ok bool
			dst, _, ok = dec.ScanEncoded(centsPred, dst[:0])
			if !ok || len(dst) == 0 {
				b.Fatal("encoded decimal scan failed")
			}
		}
	})
}

// BenchmarkMicroScanRLE scans a run-length column of long runs with an
// equality predicate: whole runs are accepted or rejected with one
// comparison each.
func BenchmarkMicroScanRLE(b *testing.B) {
	values := make([]int64, scanBenchRows)
	for i := range values {
		values[i] = int64(i / 10_000) // 100 runs of 10k rows
	}
	seg := encoding.EncodeRunLength(values, nil)
	pred := encoding.ScanPredicate{Op: encoding.ScanEq, Value: types.Int(37)}
	var dst []types.ChunkOffset

	b.Run("encoded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var ok bool
			dst, _, ok = seg.ScanEncoded(pred, dst[:0])
			if !ok || len(dst) == 0 {
				b.Fatal("encoded RLE scan failed")
			}
		}
	})
	b.Run("materialized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vals, nulls := seg.DecodeAll()
			var ok bool
			dst, ok = encoding.ScanValues(pred, vals, nulls, dst[:0])
			if !ok || len(dst) == 0 {
				b.Fatal("materialized scan failed")
			}
		}
	})
}
