package encoding

import (
	"math"
	"math/bits"
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

// maxCorrection bounds a decimal segment's correction width.
const maxCorrection = 4

// DecimalSegment is a float64 column stored as decimals (ALP): each non-NULL
// value is k ULP steps from decimal(n, exp) = float64(n) / 10^exp, for one
// exponent, integers |n| ≤ 2^53 and, at correction width bits, k in
// [-2^(bits-1), 2^(bits-1)) — at width 0 the value is the decimal bit for bit —
// or a patch, a row whose value that exponent and width do not reach (−0, NaN
// and ±Inf included), kept as its offset and bits. A value is stored as the
// integer m = n<<bits | (k + 2^(bits-1)), and steps count toward +Inf, so m
// orders like the value wherever consecutive decimals lie 2^bits steps apart
// (ordered). The segment is frame-of-reference over the m: the frames,
// offsets, block statistics and scan kernels are the integers', a read decodes
// each m (value) and takes a patched row's value from its patch, and a float
// predicate becomes an interval of m whose patched rows are tested by their
// values. A patched row stores its block's least integer, so it widens no
// block's codes. A float computed from decimals, as a price times a quantity,
// lies a step or two off its decimal: a few bits of it per row, not a patch.
type DecimalSegment struct {
	ints    *FrameOfReferenceSegment
	exp     uint8
	bits    uint8 // the correction width
	patches patches
}

// patches are a decimal segment's inexact rows: ascending offsets and their
// values.
type patches struct {
	rows []types.ChunkOffset
	vals []float64
}

// decimals is a float64 column as a DecimalSegment stores it: the integers (0
// at NULL and, until decimalsAt places them, patched rows), exponent,
// correction width and patches.
type decimals struct {
	ints      []int64
	exp, bits uint8
	patches   patches
}

// EncodeDecimal builds a decimal segment; ok is false when its patches would
// cost as much as the plain array (decimalsOf). nulls may be nil.
func EncodeDecimal(values []float64, nulls []bool, compression VectorCompressionType) (*DecimalSegment, bool) {
	d := decimalsOf(values, nulls)
	if d.ints == nil {
		return nil, false
	}
	return &DecimalSegment{ints: EncodeFrameOfReference(d.ints, nulls, compression), exp: d.exp, bits: d.bits, patches: d.patches}, true
}

// decimal is the value of n at exponent e. It divides: n * 10^-e is inexact.
func decimal(n int64, e int) float64 { return float64(n) / pow10[e] }

// key is x's place in the order of the float64s, one step per float64: its
// bits, the sign's and the others' flipped for negatives. It is its own inverse
// on the bits, which step uses.
func key(x float64) int64 {
	k := int64(math.Float64bits(x))
	return k ^ (k >> 63 & math.MaxInt64)
}

// step is x moved k ULP steps toward +Inf, toward -Inf for k < 0.
func step(x float64, k int64) float64 {
	o := key(x) + k
	return math.Float64frombits(uint64(o ^ (o >> 63 & math.MaxInt64)))
}

// decimalOf returns the integer n whose decimal(n, e) is v bit for bit, if one
// with |n| ≤ 2^53 exists (-0, NaN, ±Inf and subnormals have none). The rounded
// product v·10^e is at most 2 off such an n, so five candidates settle it, and
// the first that fits is the one integer v is stored and probed as. Its two
// roundings put the product within |n|·2^-52 of n, so below 2^50 the first
// candidate is the only one.
func decimalOf(v float64, e int) (int64, bool) {
	guess := math.RoundToEven(v * pow10[e])
	for _, n := range [...]float64{guess, guess - 1, guess + 1, guess - 2, guess + 2} {
		if math.Abs(n) <= maxDecimal && math.Float64bits(decimal(int64(n), e)) == math.Float64bits(v) {
			return int64(n), true
		}
		if math.Abs(guess) < 1<<50 {
			break
		}
	}
	return 0, false
}

// nearest returns n, the rounded product v·10^e, and the steps k from
// decimal(n, e) to v, where n is not 0 and |n| ≤ 2^53: then the decimal has
// v's sign and v is step(decimal(n, e), k).
func nearest(v float64, e int) (n, k int64, ok bool) {
	guess := math.RoundToEven(v * pow10[e])
	if !(math.Abs(guess) <= maxDecimal) || guess == 0 { // NaN fails the first
		return 0, 0, false
	}
	return int64(guess), key(v) - key(decimal(int64(guess), e)), true
}

// widthOf is the least correction width whose range holds k.
func widthOf(k int64) int {
	if k == 0 {
		return 0
	}
	return bits.Len64(uint64(k^k>>63)) + 1
}

// encodeAt returns the integer v is stored as at exponent e and correction
// width b: its decimal's, or its nearest decimal's with the steps to v.
func encodeAt(v float64, e, b int) (int64, bool) {
	bias := int64(1) << b >> 1
	if n, ok := decimalOf(v, e); ok {
		return n<<b | bias, true
	}
	if n, k, ok := nearest(v, e); ok && b > 0 && widthOf(k) <= b {
		return n<<b | (k + bias), true
	}
	return 0, false
}

// ordered reports that the integers lo..hi decode in their own order at
// exponent e and correction width b: consecutive decimals up to their largest
// magnitude lie 2^b steps apart, so no two values' steps cross. Rounded to
// float64, two decimals 10^-e apart are at least 10^-e less one ULP apart, and
// the ULP of the largest is the largest, so 10^-e ≥ (2^b+1) ULPs is enough.
func ordered(e, b uint8, lo, hi int64) bool {
	return b == 0 || lo > hi || spaced(int(e), int(b), decimal(max(lo>>b, -(lo>>b), hi>>b, -(hi>>b)), int(e)))
}

// spaced is ordered for values up to the magnitude top.
func spaced(e, b int, top float64) bool {
	return float64(int64(1)<<b+1)*(math.Nextafter(top, math.Inf(1))-top)*pow10[e] <= 1
}

// exponentOf returns the smallest exponent that makes v an exact decimal,
// len(pow10) if none does. v is exact from there on, as 10n / 10^(e+1) is the
// real number n / 10^e, while its integer fits 2^53: so at hint each trailing
// zero of v's integer is one exponent less, else the exponents are tried from
// 0 until the product outgrows 2^53.
func exponentOf(v float64, hint int) int {
	if n, ok := decimalOf(v, hint); ok {
		return hint - trailingZeros(n, hint)
	}
	for e := 0; e < len(pow10) && math.Abs(v)*pow10[e] <= maxDecimal+2; e++ { // NaN and ±Inf fit nowhere
		if _, ok := decimalOf(v, e); ok {
			return e
		}
	}
	return len(pow10)
}

// trailingZeros counts n's trailing decimal zeros, at most e.
func trailingZeros(n int64, e int) int {
	z := 0
	for ; z < e && n%10 == 0; n /= 10 {
		z++
	}
	return z
}

// correctionOf returns the smallest exponent whose nearest decimal is at most
// maxCorrection wide off v and that width (0 where it is v), len(pow10) if
// there is none. At hint the same holds as in exponentOf.
func correctionOf(v float64, hint int) (int, int) {
	if n, k, ok := nearest(v, hint); ok && widthOf(k) <= maxCorrection {
		return hint - trailingZeros(n, hint), widthOf(k)
	}
	for e := 0; e < len(pow10) && math.Abs(v)*pow10[e] <= maxDecimal+2; e++ {
		if _, k, ok := nearest(v, e); ok && widthOf(k) <= maxCorrection {
			return e, widthOf(k)
		}
	}
	return len(pow10), 0
}

// census counts the non-NULL rows of a float64 column by the exponent and
// width that first reach them: a row at rows[e][w] is reached from exponent e
// on at width w and wider, width 0 being exact (the last exponent is none). A
// row that an exponent below its exact one corrects (correctionOf) counts at
// that exponent and width, and moves to width 0 at its exact one: +1 there, -1
// at its width. lo and hi bound the exact values, clo and chi these and the
// corrected ones.
type census struct {
	rows             [len(pow10) + 1][maxCorrection + 1]int
	lo, hi, clo, chi float64
}

// decimalsOf returns the decimals of a float64 column, or nil integers when
// the patches would cost as much as the plain array. One pass takes the census
// of the rows, each exponent searched from the most common so far (a
// correction only for a row the most common exponent does not make exact); the
// exponent and width are the cheapest by it. A column that is no cheaper than
// its plain array after any 2048 rows is given up there.
func decimalsOf(values []float64, nulls []bool) decimals {
	c := census{lo: math.Inf(1), hi: math.Inf(-1), clo: math.Inf(1), chi: math.Inf(-1)}
	mode, near := 0, 0
	for i, v := range values {
		if nulls == nil || !nulls[i] {
			x := exponentOf(v, mode)
			if x > mode {
				if e, w := correctionOf(v, near); w > 0 && e < x {
					c.rows[e][w]++
					c.rows[x][w]--
					c.clo, c.chi, near = min(c.clo, v), max(c.chi, v), e
				}
			}
			if c.rows[x][0]++; x < len(pow10) {
				c.lo, c.hi, c.clo, c.chi = min(c.lo, v), max(c.hi, v), min(c.clo, v), max(c.chi, v)
				if c.rows[x][0] > c.rows[mode][0] {
					mode = x
				}
			}
		}
		if (i+1)%forBlockSize == 0 || i+1 == len(values) {
			if _, _, ok := c.cheapest(i + 1); !ok {
				return decimals{}
			}
		}
	}
	exp, bits, _ := c.cheapest(len(values))
	return decimalsAt(values, nulls, exp, bits)
}

// cheapest returns the exponent and correction width that price n rows,
// counted by the census, least — each row at the bits of the span [lo, hi] at
// the exponent, plus the width, each row the pair does not reach at patchBytes
// (ALP, too, picks its exponent by size) — the smallest of equal ones. A width
// is priced only where the decimals stay ordered up to the census's largest
// magnitude stepped as far as the width reaches, which bounds every decimal
// the width stores, so the integers always pass ordered. A value that needs a
// larger exponent is a patch only where 12 B beats the digits the larger
// exponent adds to every row. ok is false when that price has patches and is
// no less than the plain array's.
func (c *census) cheapest(n int) (exp, bits int, ok bool) {
	var covered [maxCorrection + 1]int // rows an exponent so far reaches, by width
	rows := 0
	for e := range c.rows {
		for _, r := range c.rows[e] {
			rows += r
		}
	}
	price, patched := math.Inf(1), 0
	for e := range pow10 {
		reached := 0
		for b := range maxCorrection + 1 {
			covered[b] += c.rows[e][b]
			reached += covered[b]
			lo, hi := c.lo, c.hi
			if b > 0 {
				lo, hi = c.clo, c.chi
				if !spaced(e, b, step(max(-lo, hi), 1<<b>>1)) { // a decimal lies up to 2^(b-1) steps past its value
					continue
				}
			}
			if p := float64(n)*(math.Log2(max(hi-lo, 0)*pow10[e]+1)+float64(b))/8 + patchBytes*float64(rows-reached); p < price {
				exp, bits, price, patched = e, b, p, rows-reached
			}
		}
	}
	return exp, bits, patched == 0 || price < 8*float64(n)
}

// decimalsAt converts a column at exponent e and correction width b: the
// values they reach become their integers (encodeAt), the others patches, and
// a patched row takes its block's least integer (0 in a block without one).
func decimalsAt(values []float64, nulls []bool, e, b int) decimals {
	d := decimals{ints: make([]int64, len(values)), exp: uint8(e), bits: uint8(b)}
	least := slices.Repeat([]int64{math.MaxInt64}, (len(values)+forBlockSize-1)/forBlockSize) // by block
	for i, v := range values {
		if nulls != nil && nulls[i] {
			continue
		}
		if m, ok := encodeAt(v, e, b); ok {
			d.ints[i], least[i/forBlockSize] = m, min(least[i/forBlockSize], m)
		} else {
			d.patches.rows, d.patches.vals = append(d.patches.rows, types.ChunkOffset(i)), append(d.patches.vals, v)
		}
	}
	for _, r := range d.patches.rows {
		if n := least[int(r)/forBlockSize]; n != math.MaxInt64 {
			d.ints[r] = n
		}
	}
	return d
}

// forInts is what FrameOfReference encodes of a column: an int64 column's
// values, a decimal float64 column's decimals, else nil integers.
func forInts[T types.Ordered](values []T, nulls []bool) decimals {
	switch vs := any(values).(type) {
	case []int64:
		return decimals{ints: vs}
	case []float64:
		return decimalsOf(vs, nulls)
	}
	return decimals{}
}

// value decodes an integer (decode).
func (s *DecimalSegment) value(m int64) float64 { return decode(m, pow10[s.exp], s.bits) }

// decode is the value of the integer m at correction width b, div = 10^exp:
// the decimal of m>>b, stepped by the low b bits less their bias. The loops
// that decode a segment hold div and b in registers.
func decode(m int64, div float64, b uint8) float64 {
	x := float64(m>>(b&63)) / div
	if b == 0 {
		return x
	}
	return step(x, m&(1<<b-1)-1<<b>>1)
}

// Get returns the value and null flag at offset i.
func (s *DecimalSegment) Get(i types.ChunkOffset) (float64, bool) {
	if j, ok := slices.BinarySearch(s.patches.rows, i); ok {
		return s.patches.vals[j], false
	}
	if m, null := s.ints.Get(i); !null {
		return s.value(m), false
	}
	return 0, true
}

// DecodeAll materializes all values and null flags, each value decoded in the
// memory that held its integer (a NULL row's 0 reads +0), then the patches.
func (s *DecimalSegment) DecodeAll() ([]float64, []bool) {
	ints, nulls := s.ints.DecodeAll()
	out := unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(ints))), len(ints))
	div, b := pow10[s.exp], s.bits
	for i, m := range ints {
		out[i] = decode(m, div, b)
	}
	for i, null := range nulls {
		if null {
			out[i] = 0
		}
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
	div, b := pow10[s.exp], s.bits
	for i := range pos {
		if i = slotOf(slots, i); !nulls[i] {
			out[i] = decode(ints[i], div, b)
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
		if m, ok := encodeAt(ne+0, int(s.exp), int(s.bits)); ok {
			dst = s.ints.scanInterval(m+1, m-1, dst)
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
// kernel read by their placeholders, with those whose values match: the
// patched rows are dropped in place, dst grows once by the matching patches,
// and the two ascending lists merge from the back.
func (s *DecimalSegment) patch(dst []types.ChunkOffset, from int, match func(float64) bool) []types.ChunkOffset {
	rows, vals := s.patches.rows, s.patches.vals
	if len(rows) == 0 {
		return dst
	}
	start, _ := slices.BinarySearch(dst[from:], rows[0])
	start += from
	kept, j := start, 0
	for _, o := range dst[start:] {
		for j < len(rows) && rows[j] < o {
			j++
		}
		if j == len(rows) || rows[j] != o {
			dst[kept] = o
			kept++
		}
	}
	matched := 0
	for _, v := range vals {
		if match(v) {
			matched++
		}
	}
	dst = slices.Grow(dst[:kept], matched)[:kept+matched]
	i, w := kept-1, kept+matched-1
	for j := len(rows) - 1; j >= 0; j-- {
		if !match(vals[j]) {
			continue
		}
		for ; i >= start && dst[i] > rows[j]; i-- {
			dst[w] = dst[i]
			w--
		}
		dst[w] = rows[j]
		w--
	}
	return dst
}

// codes translates an interval of values into the closed interval [lo, hi] of
// the stored integers whose values lie in it, empty when lo > hi (a NaN bound
// holds for no value).
func (s *DecimalSegment) codes(rng scanRange[float64]) (lo, hi int64) {
	if (rng.hasLo && rng.lo != rng.lo) || (rng.hasHi && rng.hi != rng.hi) {
		return 1, 0
	}
	lo, hi = s.ints.bounds()
	if rng.hasLo {
		lo = s.first(rng.lo, func(v float64) bool { return v > rng.lo || (rng.loInc && v == rng.lo) })
	}
	if rng.hasHi {
		hi = s.first(rng.hi, func(v float64) bool { return !(v < rng.hi || (rng.hiInc && v == rng.hi)) }) - 1
	}
	return lo, hi
}

// first returns the smallest integer between the stored ones' least and
// largest whose value satisfies above, one past the largest if none does;
// above is false up to some value and true from there on, and values ascend
// with the integers there (ordered). The product c·10^exp only starts the
// search, which steps by decoded values to the end.
func (s *DecimalSegment) first(c float64, above func(float64) bool) int64 {
	lo, hi := s.ints.bounds()
	m := lo
	if guess := math.RoundToEven(c * pow10[s.exp]); guess > float64(lo>>s.bits) {
		m = min(int64(min(guess, maxDecimal))<<s.bits, hi+1)
	}
	for m > lo && above(s.value(m-1)) {
		m--
	}
	for m <= hi && !above(s.value(m)) {
		m++
	}
	return m
}

var (
	_ ScannableSegment     = (*DecimalSegment)(nil)
	_ storage.ZonedSegment = (*DecimalSegment)(nil)
)
