package encoding

import (
	"math"
	"slices"
	"unsafe"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// pow10 holds the powers of ten an exponent names, each exact as a float64.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18}

// maxDecimal bounds a decimal column's integers: up to 2^53 each is exact.
const maxDecimal = 1 << 53

// patchBytes is what a patch costs: its offset and its value's bits.
const patchBytes = 4 + 8

// DecimalSegment is a float64 column stored as decimals (ALP): each non-NULL
// value is v == float64(n) / 10^exp bit for bit, for one exponent and integers
// |n| ≤ 2^53, or a patch, a row whose value that exponent does not make exact
// (−0, NaN and ±Inf included), kept as its offset and bits. It is
// frame-of-reference over the n: the frames, offsets, block statistics and scan
// kernels are the integers', a read decodes with that same division and takes
// a patched row's value from its patch, and a float predicate becomes an
// interval of n whose patched rows are tested by their values. A patched row
// stores its block's least integer, so it widens no block's codes.
type DecimalSegment struct {
	ints    *FrameOfReferenceSegment
	exp     uint8
	patches patches
}

// patches are a decimal segment's inexact rows: ascending offsets and their
// values.
type patches struct {
	rows []types.ChunkOffset
	vals []float64
}

// EncodeDecimal builds a decimal segment; ok is false when its patches would
// cost as much as the plain array (decimalsOf). nulls may be nil.
func EncodeDecimal(values []float64, nulls []bool, compression VectorCompressionType) (*DecimalSegment, bool) {
	ints, exp, p := decimalsOf(values, nulls)
	if ints == nil {
		return nil, false
	}
	return &DecimalSegment{ints: EncodeFrameOfReference(ints, nulls, compression), exp: exp, patches: p}, true
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

// exponentOf returns the smallest exponent that makes v an exact decimal,
// len(pow10) if none does. v is exact from there on, as 10n / 10^(e+1) is the
// real number n / 10^e, while its integer fits 2^53: so at hint each trailing
// zero of v's integer is one exponent less, else the exponents are tried from
// 0 until the product outgrows 2^53.
func exponentOf(v float64, hint int) int {
	if n, ok := decimalOf(v, hint); ok {
		for ; hint > 0 && n%10 == 0; n /= 10 {
			hint--
		}
		return hint
	}
	for e := 0; e < len(pow10) && math.Abs(v)*pow10[e] <= maxDecimal+2; e++ { // NaN and ±Inf fit nowhere
		if _, ok := decimalOf(v, e); ok {
			return e
		}
	}
	return len(pow10)
}

// decimalsOf returns the integers of a float64 column (0 at NULL rows), the
// exponent they are stored at and the patches, or nil integers when the
// patches would cost as much as the plain array. One pass counts the rows by
// the smallest exponent that makes each exact, searched from the most common
// so far, and bounds the exact values; the exponent is the cheapest of those
// counts. A column that is no cheaper than its plain array after any 2048 rows
// is given up there.
func decimalsOf(values []float64, nulls []bool) ([]int64, uint8, patches) {
	var rows [len(pow10) + 1]int // by exponent; the last: none
	lo, hi, mode := math.Inf(1), math.Inf(-1), 0
	for i, v := range values {
		if nulls == nil || !nulls[i] {
			e := exponentOf(v, mode)
			if rows[e]++; e < len(pow10) {
				lo, hi = min(lo, v), max(hi, v)
				if rows[e] > rows[mode] {
					mode = e
				}
			}
		}
		if (i+1)%forBlockSize == 0 || i+1 == len(values) {
			if _, ok := cheapest(&rows, lo, hi, i+1); !ok {
				return nil, 0, patches{}
			}
		}
	}
	exp, _ := cheapest(&rows, lo, hi, len(values))
	ints, p := decimalsAt(values, nulls, exp)
	return ints, uint8(exp), p
}

// cheapest returns the exponent that prices n rows, counted by exponent, least
// — each row at the bits of the exact values' span [lo, hi] at it, each row of
// a larger exponent or none at patchBytes (ALP, too, picks its exponent by
// size) — the smallest of equal ones. A value that needs a larger exponent is
// a patch only where 12 B beats the digits the larger exponent adds to every
// row. ok is false when that price has patches and is no less than the plain
// array's.
func cheapest(rows *[len(pow10) + 1]int, lo, hi float64, n int) (exp int, ok bool) {
	span := max(hi-lo, 0) // 0 without an exact value
	price, patched, above := math.Inf(1), 0, rows[len(pow10)]
	for e := len(pow10) - 1; e >= 0; e-- {
		if p := float64(n)*math.Log2(span*pow10[e]+1)/8 + patchBytes*float64(above); p <= price {
			exp, price, patched = e, p, above
		}
		above += rows[e]
	}
	return exp, patched == 0 || price < 8*float64(n)
}

// decimalsAt converts a column at exponent e: the values it makes exact become
// their integers, the others patches, and a patched row takes its block's
// least integer (0 in a block without one).
func decimalsAt(values []float64, nulls []bool, e int) ([]int64, patches) {
	ints := make([]int64, len(values))
	least := slices.Repeat([]int64{math.MaxInt64}, (len(values)+forBlockSize-1)/forBlockSize) // by block
	var p patches
	for i, v := range values {
		if nulls != nil && nulls[i] {
			continue
		}
		if n, ok := decimalOf(v, e); ok {
			ints[i], least[i/forBlockSize] = n, min(least[i/forBlockSize], n)
		} else {
			p.rows, p.vals = append(p.rows, types.ChunkOffset(i)), append(p.vals, v)
		}
	}
	for _, r := range p.rows {
		if n := least[int(r)/forBlockSize]; n != math.MaxInt64 {
			ints[r] = n
		}
	}
	return ints, p
}

// forInts is what FrameOfReference encodes of a column: an int64 column's
// values, a decimal float64 column's integers, exponent and patches, else nil.
func forInts[T types.Ordered](values []T, nulls []bool) ([]int64, uint8, patches) {
	switch vs := any(values).(type) {
	case []int64:
		return vs, 0, patches{}
	case []float64:
		return decimalsOf(vs, nulls)
	}
	return nil, 0, patches{}
}

func (s *DecimalSegment) value(n int64) float64 { return decimal(n, int(s.exp)) }

// Get returns the value and null flag at offset i.
func (s *DecimalSegment) Get(i types.ChunkOffset) (float64, bool) {
	if j, ok := slices.BinarySearch(s.patches.rows, i); ok {
		return s.patches.vals[j], false
	}
	n, null := s.ints.Get(i) // 0 at a NULL row
	return s.value(n), null
}

// DecodeAll materializes all values and null flags, each value decoded in the
// memory that held its integer, then the patches.
func (s *DecimalSegment) DecodeAll() ([]float64, []bool) {
	ints, nulls := s.ints.DecodeAll()
	out := unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(ints))), len(ints))
	for i, n := range ints {
		out[i] = s.value(n)
	}
	for j, r := range s.patches.rows {
		out[r] = s.patches.vals[j]
	}
	return out, nulls
}

// Gather fills out/nulls (at slotOf) with the values at the given positions:
// the frame-of-reference gather writes each integer where its value goes, one
// pass decodes them there, and the patched positions take their patches: by
// one merge when the positions ascend, as a scan's do, else by search.
func (s *DecimalSegment) Gather(pos []types.ChunkOffset, slots []int32, out []float64, nulls []bool) {
	ints := unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(out))), len(out))
	s.ints.Gather(pos, slots, ints, nulls)
	for i := range pos {
		if i = slotOf(slots, i); !nulls[i] {
			out[i] = s.value(ints[i])
		}
	}
	rows := s.patches.rows
	if len(rows) == 0 {
		return
	}
	if !slices.IsSorted(pos) {
		for i, p := range pos {
			if j, ok := slices.BinarySearch(rows, p); ok {
				out[slotOf(slots, i)] = s.patches.vals[j]
			}
		}
		return
	}
	i := 0 // ascending positions: one merge with the patches
	for j, r := range rows {
		for i < len(pos) && pos[i] < r {
			i++
		}
		for ; i < len(pos) && pos[i] == r; i++ {
			out[slotOf(slots, i)] = s.patches.vals[j]
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

// MemoryUsage implements storage.Segment: the integers' segment and the
// patches.
func (s *DecimalSegment) MemoryUsage() int64 {
	return s.ints.MemoryUsage() + patchBytes*int64(len(s.patches.rows))
}

// Zone implements storage.ZonedSegment: the integers' zone with its bounds
// decoded. A value's integer is a function of the value, increasing in it, so
// the integers ascend exactly as far as the values do. The placeholders of
// patched rows neither bound nor ascend: with patches the rows are decoded.
func (s *DecimalSegment) Zone() storage.Zone {
	if len(s.patches.rows) > 0 {
		return storage.ZoneOf(s.DecodeAll())
	}
	z := s.ints.Zone()
	if !z.Min.IsNull() {
		z.Min, z.Max = types.Float(s.value(z.Min.I)), types.Float(s.value(z.Max.I))
	}
	return z
}

// ScanEncoded implements ScannableSegment: the predicate becomes the closed
// interval of the integers whose values satisfy it, or for <> the probe's one
// integer, the frame-of-reference kernels scan the offsets, and the patched
// rows are tested by their values.
func (s *DecimalSegment) ScanEncoded(p ScanPredicate, dst []types.ChunkOffset) ([]types.ChunkOffset, ScanPath, bool) {
	if p.Op == ScanIsNull || p.Op == ScanIsNotNull {
		return s.ints.ScanEncoded(p, dst)
	}
	rng, ne, isNe, ok := scanBounds[float64](p)
	if !ok {
		return dst, PathFrameOfReference, false
	}
	from := len(dst)
	switch {
	case isNe:
		// Every row that holds the probe stores its integer; -0 is +0.
		if n, exact := decimalOf(ne+0, int(s.exp)); exact {
			dst = s.ints.scanInterval(n+1, n-1, dst)
		} else {
			dst = s.ints.scanInterval(math.MinInt64, math.MaxInt64, dst)
		}
		return s.patch(dst, from, func(v float64) bool { return v != ne }), PathFrameOfReference, true
	}
	if lo, hi := s.codes(rng); lo <= hi {
		dst = s.ints.scanInterval(lo, hi, dst)
	}
	return s.patch(dst, from, rng.match), PathFrameOfReference, true
}

// patch replaces the patched rows among the offsets dst[from:], which the
// kernel read by their placeholders, with those whose values match: one merge
// of the two ascending lists, written past the end and moved back.
func (s *DecimalSegment) patch(dst []types.ChunkOffset, from int, match func(float64) bool) []types.ChunkOffset {
	rows := s.patches.rows
	if len(rows) == 0 {
		return dst
	}
	end := len(dst)
	start, _ := slices.BinarySearch(dst[from:end], rows[0])
	start += from
	for i, j := start, 0; i < end || j < len(rows); {
		if j == len(rows) || (i < end && dst[i] < rows[j]) {
			dst = append(dst, dst[i])
			i++
			continue
		}
		if i < end && dst[i] == rows[j] {
			i++
		}
		if match(s.patches.vals[j]) {
			dst = append(dst, rows[j])
		}
		j++
	}
	return append(dst[:start], dst[end:]...)
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
