package encoding

import (
	"math"
	"slices"
	"unsafe"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Sizes is the size model a chunk is sealed by (DESIGN.md §2 "Chunk
// lifecycle"): the exact MemoryUsage() a segment has under each candidate
// representation, indexed by EncodingType, codes in the vector that needs
// fewer bytes (codeBytes), a string Dictionary FSST-packed where Seal packs it.
// A candidate that does not apply (FrameOfReference off int64 and decimal
// float64 columns, forInts) is 0.
type Sizes [FrameOfReference + 1]int64

// Vectors is the code vector each candidate of a Sizes is priced in, indexed
// like it: FixedSizeByteAligned where a candidate keeps no codes.
type Vectors [FrameOfReference + 1]VectorCompressionType

// dictionarySlackPct: Dictionary wins when it is within this share of the
// smallest candidate and still saves bytes — it answers the widest set of
// predicates on codes.
const dictionarySlackPct = 10

// Choose picks the representation: the smallest candidate, Dictionary when it
// is close to it, Unencoded when no candidate needs fewer bytes.
func (s Sizes) Choose() EncodingType {
	best := Dictionary
	for _, e := range []EncodingType{RunLength, FrameOfReference} {
		if s[e] > 0 && s[e] < s[best] {
			best = e
		}
	}
	switch {
	case !s.Saves(best):
		return Unencoded
	case s.Saves(Dictionary) && s[Dictionary]*100 <= s[best]*(100+dictionarySlackPct):
		return Dictionary
	}
	return best
}

// Saves reports that e applies to the segment and needs fewer bytes than the
// plain array.
func (s Sizes) Saves(e EncodingType) bool {
	return s[e] > 0 && s[e] < s[Unencoded]
}

// layout is what the sizes of the order-dependent encodings are read from:
// the runs RunLength would store, one pass over the rows, and the largest
// offset FrameOfReference would store in each 128-row block of codes.
type layout struct {
	runs     int
	runBytes int64 // bytes of string data the runs' values hold
	anyNull  bool
	maxes    []uint64 // FrameOfReference: the largest offset of each 128-row block
	decimals          // what FrameOfReference encodes (forInts); nil ints where it does not apply
}

func layoutOf[T types.Ordered](values []T, nulls []bool) layout {
	var l layout
	l.decimals = forInts(values, nulls)
	strs, _ := any(values).([]string)
	prevNull := false
	for i, v := range values {
		null := nulls != nil && nulls[i]
		l.anyNull = l.anyNull || null
		if i == 0 || v != values[i-1] || null != prevNull {
			l.runs++
			if strs != nil {
				l.runBytes += int64(len(strs[i]))
			}
		}
		prevNull = null
	}
	if l.ints != nil {
		l.maxes = offsetMaxima(l.ints, nulls)
	}
	return l
}

// offsetMaxima is the largest offset of each 128-row block of a
// frame-of-reference segment over ints: a non-NULL value less its 2048-row
// block's least non-NULL value, the frame; NULL rows store 0. One pass reads
// each 128 rows' least and largest value, the frames come off the least.
func offsetMaxima(ints []int64, nulls []bool) []uint64 {
	blocks := (len(ints) + bp128BlockSize - 1) / bp128BlockSize
	lows, highs := make([]int64, blocks), make([]int64, blocks)
	for b := range blocks {
		first, rows := b*bp128BlockSize, ints[b*bp128BlockSize:min((b+1)*bp128BlockSize, len(ints))]
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64) // no value
		for i, x := range rows {
			if nulls == nil || !nulls[first+i] {
				lo, hi = min(lo, x), max(hi, x)
			}
		}
		lows[b], highs[b] = lo, hi
	}
	maxes := make([]uint64, blocks)
	for f := 0; f < blocks; f += forBlockSize / bp128BlockSize {
		last := min(f+forBlockSize/bp128BlockSize, blocks)
		frame := slices.Min(lows[f:last])
		for b := f; b < last; b++ {
			maxes[b] = uint64(max(highs[b], frame) - frame) // 0 for a block without a value
		}
	}
	return maxes
}

// SizesOf is the size model of a segment in whatever representation it is in,
// and the vectors it prices the candidates in.
func SizesOf(seg storage.Segment) (Sizes, Vectors) {
	switch seg.DataType() {
	case types.TypeInt64:
		return sizesOf[int64](seg)
	case types.TypeFloat64:
		return sizesOf[float64](seg)
	}
	return sizesOf[string](seg)
}

func sizesOf[T types.Ordered](seg storage.Segment) (Sizes, Vectors) {
	values, nulls := Materialize[T](seg)
	s, v := layoutSizes(values, layoutOf(values, nulls))
	codes := make([]uint64, len(values))
	sum := groupValues(values, nulls, codes)
	s[Dictionary], v[Dictionary] = dictionaryBytes(sum, len(codes), blockMaxima(codes))
	if strs, ok := any(sum.Values).([]string); ok && s.Choose() == Dictionary {
		raw := packStrings(strs) // what Seal packs once Dictionary has won
		s[Dictionary] += raw.pack().bytes() - raw.bytes()
	}
	return s, v
}

// unencodedOf is the rows as a sealed chunk keeps them unencoded (Clipped): an
// unencoded seg's own arrays, else values and nulls laid out anew — strings
// always in a StringSegment.
func unencodedOf[T types.Ordered](seg storage.Segment, values []T, nulls []bool) storage.Segment {
	if s, ok := seg.(*storage.StringSegment); ok {
		return s.Clipped()
	}
	if strs, ok := any(values).([]string); ok {
		return storage.StringSegmentOf(strs, nulls)
	}
	if s, ok := seg.(*storage.ValueSegment[T]); ok {
		return s.Clipped()
	}
	return storage.ValueSegmentFromSlice(values, nulls).Clipped()
}

// layoutSizes fills in everything but Dictionary, which needs the distinct
// values. Unencoded is what seal keeps of the rows unencoded (unencodedOf):
// 8 bytes a number, a string's entry and its 4-byte offset, and a NULL flag a
// row only if some row is NULL.
func layoutSizes[T types.Ordered](values []T, l layout) (Sizes, Vectors) {
	var zero T
	n := int64(len(values))
	var s Sizes
	var v Vectors
	s[Unencoded] = 8 * n
	if strs, ok := any(values).([]string); ok {
		s[Unencoded] = 4 * n
		for _, str := range strs {
			s[Unencoded] += int64(storage.StringEntrySize(len(str)))
		}
	}
	if l.anyNull {
		s[Unencoded] += n
	}
	s[RunLength] = int64(l.runs)*(int64(unsafe.Sizeof(zero))+4) + l.runBytes
	if l.anyNull {
		s[RunLength] += int64(l.runs)
	}
	if l.ints != nil {
		frames := (n + forBlockSize - 1) / forBlockSize
		codes, vector := codeBytes(int(n), l.maxes)
		s[FrameOfReference], v[FrameOfReference] = frames*8+codes+patchBytes*int64(len(l.patches.rows)), vector
		if l.anyNull {
			s[FrameOfReference] += n
		}
	}
	return s, v
}

// dictionaryBytes is what a Dictionary of sum's values and n rows' value ids,
// maxes the largest of each 128 (blockMaxima), costs, and the vector its codes
// take. Strings cost their bytes and their ends, priced as packStrings packs
// them (stringEnds).
func dictionaryBytes[T types.Ordered](sum Summary[T], n int, maxes []uint64) (int64, VectorCompressionType) {
	bytes, vector := codeBytes(n, maxes)
	if strs, ok := any(sum.Values).([]string); ok {
		_, lasts := stringEnds(strs, false)
		strBytes, _ := codeBytes(len(strs), lasts) // the ends
		if len(lasts) > 0 {
			strBytes += int64(lasts[len(lasts)-1]) // the blob
		}
		return strBytes + bytes, vector
	}
	var zero T
	return int64(len(sum.Values))*int64(unsafe.Sizeof(zero)) + bytes, vector
}

// Seal gives a column of an immutable chunk the representation it keeps — the
// size model's pick for a nil spec, else the spec's (FrameOfReference falls back
// to Dictionary off int64 and decimal float64 columns; Unencoded keeps a value
// segment itself; encoded input is decoded first) — and returns it with the
// column's Summary, a Summary[T] of its data type, which the caller derives the
// range filter's bins from. The Summary is built once and is the dictionary if
// Dictionary wins; it costs no hashing and no sort when the column ascends over
// the whole chunk (its zone says so), and is read off the runs when the spec or
// the run count alone settles on RunLength. A string dictionary the size model
// picks keeps its values FSST-packed when that needs fewer bytes
// (packedStrings.pack); a spec's keeps the plain blob.
func Seal(seg storage.Segment, ascending bool, spec *Spec) (storage.Segment, any) {
	switch seg.DataType() {
	case types.TypeInt64:
		return seal[int64](seg, ascending, spec)
	case types.TypeFloat64:
		return seal[float64](seg, ascending, spec)
	}
	return seal[string](seg, ascending, spec)
}

func seal[T types.Ordered](seg storage.Segment, ascending bool, spec *Spec) (storage.Segment, Summary[T]) {
	values, nulls := Materialize[T](seg)
	want, sizes, vectors, l := Spec{Compression: FixedSizeByteAligned}, Sizes{}, Vectors{}, layout{}
	if spec != nil {
		if want = *spec; want.Encoding == FrameOfReference {
			l.decimals = forInts(values, nulls)
		}
	} else {
		l = layoutOf(values, nulls)
		sizes, vectors = layoutSizes(values, l)
		sizes[Dictionary], _ = codeBytes(len(values), nil) // a lower bound: no values, every code 0
		want.Encoding = sizes.Choose()
	}
	if want.Encoding == RunLength {
		rl := EncodeRunLength(values, nulls)
		return rl, rl.summary()
	}
	codes := make([]uint64, len(values))
	var sum Summary[T]
	if ascending {
		sum = groupRows(values, nulls, orderedRows(values, nulls, true), codes)
	} else {
		sum = groupValues(values, nulls, codes)
	}
	// The vector the model priced the winner in, packed by the block maxima
	// it priced it by (nil for a spec: read off the codes).
	var maxes []uint64
	if spec == nil {
		maxes = blockMaxima(codes)
		sizes[Dictionary], vectors[Dictionary] = dictionaryBytes(sum, len(codes), maxes)
		want.Encoding = sizes.Choose()
		want.Compression = vectors[want.Encoding]
	}
	switch _, isFloat := any(values).([]float64); {
	case want.Encoding == FrameOfReference && l.ints != nil && isFloat:
		return &DecimalSegment{ints: encodeFrameOfReference(l.ints, nulls, want.Compression, l.maxes), exp: l.exp, bits: l.bits, patches: l.patches}, sum
	case want.Encoding == FrameOfReference && l.ints != nil:
		return encodeFrameOfReference(l.ints, nulls, want.Compression, l.maxes), sum
	case want.Encoding == RunLength:
		return EncodeRunLength(values, nulls), sum
	case want.Encoding == Unencoded:
		return unencodedOf(seg, values, nulls), sum
	}
	d := newDictionary(sum.Values, packCodes(codes, want.Compression, maxes))
	if spec == nil {
		d.strs = d.strs.pack()
	}
	return d, sum
}
