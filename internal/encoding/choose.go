package encoding

import (
	"slices"
	"unsafe"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Sizes is the size model a chunk is sealed by (DESIGN.md §2 "Chunk
// lifecycle"): the exact MemoryUsage() a segment has under each candidate
// representation, indexed by EncodingType, code vectors fixed-size
// byte-aligned, a string Dictionary FSST-packed where Seal packs it. A candidate
// that does not apply (FrameOfReference off int64 and decimal float64 columns,
// forInts) is 0.
type Sizes [FrameOfReference + 1]int64

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

// layout is what the sizes of the order-dependent encodings are read from,
// one pass over the rows: the runs RunLength would store and the widest
// in-block offset FrameOfReference would.
type layout struct {
	runs     int
	runBytes int64 // bytes of string data the runs' values hold
	anyNull  bool
	maxCode  uint64  // FrameOfReference: largest offset from a block's frame
	ints     []int64 // what FrameOfReference encodes (forInts); nil where it does not apply
	exp      uint8   // the exponent of a decimal column's ints
}

func layoutOf[T types.Ordered](values []T, nulls []bool) layout {
	var l layout
	l.ints, l.exp = forInts(values, nulls)
	strs, _ := any(values).([]string)
	var lo, hi int64 // bounds of the non-NULL values of the current block
	inBlock, prevNull := false, false
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
		if i%forBlockSize == 0 {
			inBlock = false
		}
		if l.ints == nil || null {
			continue
		}
		if x := l.ints[i]; !inBlock {
			lo, hi, inBlock = x, x, true
		} else if x < lo {
			lo = x
		} else if x > hi {
			hi = x
		}
		l.maxCode = max(l.maxCode, uint64(hi-lo))
	}
	return l
}

// SizesOf is the size model of a segment in whatever representation it is in.
func SizesOf(seg storage.Segment) Sizes {
	switch seg.DataType() {
	case types.TypeInt64:
		return sizesOf[int64](seg)
	case types.TypeFloat64:
		return sizesOf[float64](seg)
	}
	return sizesOf[string](seg)
}

func sizesOf[T types.Ordered](seg storage.Segment) Sizes {
	plain := plainOf[T](seg)
	s := layoutSizes(plain, layoutOf(plain.Values(), plain.Nulls()))
	sum := Summarize[T](seg)
	s[Dictionary] = dictionaryBytes(sum, plain.Len())
	if strs, ok := any(sum.Values).([]string); ok && s.Choose() == Dictionary {
		raw := packStrings(strs) // what Seal packs once Dictionary has won
		s[Dictionary] += raw.pack().bytes() - raw.bytes()
	}
	return s
}

// plainOf is seg as a value segment: itself, or its rows decoded.
func plainOf[T types.Ordered](seg storage.Segment) *storage.ValueSegment[T] {
	if plain, ok := seg.(*storage.ValueSegment[T]); ok {
		return plain
	}
	return storage.ValueSegmentFromSlice[T](Materialize[T](seg))
}

// layoutSizes fills in everything but Dictionary, which needs the distinct
// values. Unencoded is the bytes of the rows alone, NULL flags only if some row
// is NULL: what seal keeps of a value segment (Clipped).
func layoutSizes[T types.Ordered](seg *storage.ValueSegment[T], l layout) Sizes {
	var zero T
	n := int64(seg.Len())
	var s Sizes
	var nulls []bool
	if l.anyNull {
		nulls = slices.Clip(seg.Nulls())
	}
	s[Unencoded] = storage.ValueSegmentFromSlice(slices.Clip(seg.Values()), nulls).MemoryUsage()
	s[RunLength] = int64(l.runs)*(int64(unsafe.Sizeof(zero))+4) + l.runBytes
	if l.anyNull {
		s[RunLength] += int64(l.runs)
	}
	if l.ints != nil {
		frames := (n + forBlockSize - 1) / forBlockSize
		s[FrameOfReference] = frames*8 + n*codeWidth(l.maxCode)
		if l.anyNull {
			s[FrameOfReference] += n
		}
	}
	return s
}

func dictionaryBytes[T types.Ordered](sum Summary[T], n int) int64 {
	var strBytes int64
	if strs, ok := any(sum.Values).([]string); ok {
		for _, v := range strs {
			strBytes += int64(len(v))
		}
	}
	maxCode := uint64(len(sum.Values)) // the NULL id
	if sum.Nulls == 0 && maxCode > 0 {
		maxCode--
	}
	return valuesBytes[T](len(sum.Values), strBytes) + int64(n)*codeWidth(maxCode)
}

// Seal gives a column of an immutable chunk the representation it keeps — the
// size model's pick for a nil spec, else the spec's (FrameOfReference falls back
// to Dictionary off int64 and decimal float64 columns; Unencoded keeps a value
// segment itself; encoded input is decoded first) — and returns it with the
// column's Summary, a Summary[T] of its data type, which the caller builds the
// pruning filter from. The Summary is built once and is the dictionary if
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
	plain := plainOf[T](seg)
	values, nulls := plain.Values(), plain.Nulls()
	want, sizes, l := Spec{Compression: FixedSizeByteAligned}, Sizes{}, layout{}
	if spec != nil {
		if want = *spec; want.Encoding == FrameOfReference {
			l.ints, l.exp = forInts(values, nulls)
		}
	} else {
		l = layoutOf(values, nulls)
		sizes = layoutSizes(plain, l)
		sizes[Dictionary] = int64(len(values)) // a lower bound: one byte of code per row
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
	if spec == nil {
		sizes[Dictionary] = dictionaryBytes(sum, len(values))
		want.Encoding = sizes.Choose()
	}
	switch _, isFloat := any(values).([]float64); {
	case want.Encoding == FrameOfReference && l.ints != nil && isFloat:
		return &DecimalSegment{ints: EncodeFrameOfReference(l.ints, nulls, want.Compression), exp: l.exp}, sum
	case want.Encoding == FrameOfReference && l.ints != nil:
		return EncodeFrameOfReference(l.ints, nulls, want.Compression), sum
	case want.Encoding == RunLength:
		return EncodeRunLength(values, nulls), sum
	case want.Encoding == Unencoded:
		return plain.Clipped(), sum
	}
	d := newDictionary(sum.Values, codes, want.Compression)
	if spec == nil {
		d.strs = d.strs.pack()
	}
	return d, sum
}
