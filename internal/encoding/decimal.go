package encoding

import (
	"math"
	"unsafe"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// pow10 holds the powers of ten an exponent names, each exact as a float64.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18}

// maxDecimal bounds a decimal column's integers: up to 2^53 each is exact.
const maxDecimal = 1 << 53

// DecimalSegment is a float64 column whose every non-NULL value is an exact
// decimal (ALP's test): v == float64(n) / 10^exp bit for bit, for one exponent
// and integers |n| ≤ 2^53. It is frame-of-reference over the n: the frames,
// offsets, block statistics and scan kernels are the integers', a read decodes
// with that same division, and a float predicate becomes an interval of n.
type DecimalSegment struct {
	ints *FrameOfReferenceSegment
	exp  uint8
}

// EncodeDecimal builds a decimal segment; ok is false when some non-NULL value
// is no exact decimal. nulls may be nil.
func EncodeDecimal(values []float64, nulls []bool, compression VectorCompressionType) (*DecimalSegment, bool) {
	ints, exp := decimalsOf(values, nulls)
	if ints == nil {
		return nil, false
	}
	return &DecimalSegment{ints: EncodeFrameOfReference(ints, nulls, compression), exp: exp}, true
}

// decimal is the value of n at exponent e. It divides: n * 10^-e is inexact.
func decimal(n int64, e int) float64 { return float64(n) / pow10[e] }

// decimalOf returns the integer n whose decimal(n, e) is v bit for bit, if one
// with |n| ≤ 2^53 exists (-0, NaN, ±Inf and subnormals have none). The rounded
// product v·10^e is at most 2 off such an n, so five candidates settle it, and
// the first that fits is the one integer v is stored and probed as.
func decimalOf(v float64, e int) (int64, bool) {
	guess := math.RoundToEven(v * pow10[e])
	for _, n := range [...]float64{guess, guess - 1, guess + 1, guess - 2, guess + 2} {
		if math.Abs(n) <= maxDecimal && math.Float64bits(decimal(int64(n), e)) == math.Float64bits(v) {
			return int64(n), true
		}
	}
	return 0, false
}

// decimalsOf returns the integers of a float64 column at the smallest exponent
// that makes every non-NULL value an exact decimal (0 at NULL rows), or nil.
// One pass finds the exponent — raising it keeps the earlier values exact, as
// 10n / 10^(e+1) is the real number n / 10^e — and allocates nothing, so a
// column that fails costs only the values up to the first that no exponent
// makes exact. A second pass converts every value at that exponent, where its
// integer must still fit 2^53.
func decimalsOf(values []float64, nulls []bool) ([]int64, uint8) {
	e := 0
	for i, v := range values {
		if nulls != nil && nulls[i] {
			continue
		}
		for _, ok := decimalOf(v, e); !ok; _, ok = decimalOf(v, e) {
			if e++; e == len(pow10) {
				return nil, 0
			}
		}
	}
	ints := make([]int64, len(values))
	for i, v := range values {
		if nulls != nil && nulls[i] {
			continue
		}
		n, ok := decimalOf(v, e)
		if !ok {
			return nil, 0
		}
		ints[i] = n
	}
	return ints, uint8(e)
}

// forInts is what FrameOfReference encodes of a column: an int64 column's
// values, a decimal float64 column's integers and exponent, else nil.
func forInts[T types.Ordered](values []T, nulls []bool) ([]int64, uint8) {
	switch vs := any(values).(type) {
	case []int64:
		return vs, 0
	case []float64:
		return decimalsOf(vs, nulls)
	}
	return nil, 0
}

func (s *DecimalSegment) value(n int64) float64 { return decimal(n, int(s.exp)) }

// Get returns the value and null flag at offset i.
func (s *DecimalSegment) Get(i types.ChunkOffset) (float64, bool) {
	n, null := s.ints.Get(i) // 0 at a NULL row
	return s.value(n), null
}

// DecodeAll materializes all values and null flags, each value decoded in the
// memory that held its integer.
func (s *DecimalSegment) DecodeAll() ([]float64, []bool) {
	ints, nulls := s.ints.DecodeAll()
	out := unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(ints))), len(ints))
	for i, n := range ints {
		out[i] = s.value(n)
	}
	return out, nulls
}

// Gather fills out/nulls (at slotOf) with the values at the given positions:
// the frame-of-reference gather writes each integer where its value goes, and
// one pass decodes them there.
func (s *DecimalSegment) Gather(pos []types.ChunkOffset, slots []int32, out []float64, nulls []bool) {
	ints := unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(out))), len(out))
	s.ints.Gather(pos, slots, ints, nulls)
	for i := range pos {
		if i = slotOf(slots, i); !nulls[i] {
			out[i] = s.value(ints[i])
		}
	}
}

// DataType implements storage.Segment.
func (s *DecimalSegment) DataType() types.DataType { return types.TypeFloat64 }

// Len implements storage.Segment.
func (s *DecimalSegment) Len() int { return s.ints.n }

// ValueAt implements storage.Segment (dynamic path).
func (s *DecimalSegment) ValueAt(i types.ChunkOffset) types.Value {
	v, null := s.Get(i)
	if null {
		return types.NullValue
	}
	return types.Float(v)
}

// IsNullAt implements storage.Segment.
func (s *DecimalSegment) IsNullAt(i types.ChunkOffset) bool { return s.ints.IsNullAt(i) }

// MemoryUsage implements storage.Segment: the integers' segment.
func (s *DecimalSegment) MemoryUsage() int64 { return s.ints.MemoryUsage() }

// Zone implements storage.ZonedSegment: the integers' zone with its bounds
// decoded. A value's integer is a function of the value, increasing in it, so
// the integers ascend exactly as far as the values do.
func (s *DecimalSegment) Zone() storage.Zone {
	z := s.ints.Zone()
	if !z.Min.IsNull() {
		z.Min, z.Max = types.Float(s.value(z.Min.I)), types.Float(s.value(z.Max.I))
	}
	return z
}

// ScanEncoded implements ScannableSegment: the predicate becomes the closed
// interval of the integers whose values satisfy it, or for <> the probe's one
// integer, and the frame-of-reference kernels scan the offsets.
func (s *DecimalSegment) ScanEncoded(p ScanPredicate, dst []types.ChunkOffset) ([]types.ChunkOffset, ScanPath, bool) {
	if p.Op == ScanIsNull || p.Op == ScanIsNotNull {
		return s.ints.ScanEncoded(p, dst)
	}
	rng, ne, isNe, ok := scanBounds[float64](p)
	switch {
	case !ok:
		return dst, PathFrameOfReference, false
	case isNe:
		// Every row that holds the probe stores its integer; -0 is +0.
		if n, exact := decimalOf(ne+0, int(s.exp)); exact {
			return s.ints.scanInterval(n+1, n-1, dst), PathFrameOfReference, true
		}
		return s.ints.scanInterval(math.MinInt64, math.MaxInt64, dst), PathFrameOfReference, true
	}
	if lo, hi := s.codes(rng); lo <= hi {
		dst = s.ints.scanInterval(lo, hi, dst)
	}
	return dst, PathFrameOfReference, true
}

// codes translates an interval of values into the closed interval [lo, hi] of
// the integers whose values lie in it, empty when lo > hi (a NaN bound holds
// for no value).
func (s *DecimalSegment) codes(rng scanRange[float64]) (lo, hi int64) {
	if (rng.hasLo && rng.lo != rng.lo) || (rng.hasHi && rng.hi != rng.hi) {
		return 1, 0
	}
	lo, hi = -maxDecimal, maxDecimal
	if rng.hasLo {
		lo = s.first(rng.lo, func(v float64) bool { return v > rng.lo || (rng.loInc && v == rng.lo) })
	}
	if rng.hasHi {
		hi = s.first(rng.hi, func(v float64) bool { return !(v < rng.hi || (rng.hiInc && v == rng.hi)) }) - 1
	}
	return lo, hi
}

// first returns the smallest integer in [-2^53, 2^53] whose value satisfies
// above, 2^53+1 if none does; above is false up to some value and true from
// there on, and values do not decrease with n. The product c·10^exp only
// starts the search, which steps by decoded values to the end.
func (s *DecimalSegment) first(c float64, above func(float64) bool) int64 {
	n := int64(-maxDecimal)
	if guess := math.RoundToEven(c * pow10[s.exp]); guess > -maxDecimal {
		n = int64(min(guess, maxDecimal))
	}
	for n > -maxDecimal && above(s.value(n-1)) {
		n--
	}
	for n <= maxDecimal && !above(s.value(n)) {
		n++
	}
	return n
}

var (
	_ ScannableSegment     = (*DecimalSegment)(nil)
	_ storage.ZonedSegment = (*DecimalSegment)(nil)
)
