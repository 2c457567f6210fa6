package encoding

import (
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"unsafe"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// ValueID is an index into a segment-local dictionary.
type ValueID uint64

// DictionarySegment stores an order-preserving, sorted, duplicate-free
// dictionary plus an attribute vector of value ids. NULL is encoded as the
// value id one past the dictionary (the "null value id"), so attribute
// vectors need no separate null bitmap.
//
// Because the dictionary is order-preserving, range predicates translate to
// value-id ranges via LowerBound/UpperBound, letting scans compare integer
// codes instead of decoded values (paper §2.3: "scans on dictionary-encoded
// columns should search for the integer value id, without having to
// decompress the data").
//
// A numeric dictionary is a slice of its values; a string dictionary is
// packedStrings, one blob and one code vector however many values it holds.
type DictionarySegment[T types.Ordered] struct {
	dict   []T           // the values of a numeric dictionary
	strs   packedStrings // the values of a string dictionary
	av     UintVector
	nullID ValueID // also the number of values
}

// packedStrings holds strings back to back in one string: value i is
// blob[ends[i-1]:ends[i]], a substring, so reading it allocates nothing. The
// ends ascend and are a code vector like the rows' codes (packEnds). With a
// table the blob holds the values FSST-compressed (fsst.go), and a read
// decodes.
type packedStrings struct {
	blob  string
	ends  UintVector
	table *fsstTable
}

// n is how many values p holds.
func (p packedStrings) n() int {
	if p.ends == nil {
		return 0
	}
	return p.ends.Len()
}

// span is where value id lies in the blob.
func (p packedStrings) span(id uint64) (from, to int) {
	if id > 0 {
		from = int(p.ends.Get(int(id) - 1))
	}
	return from, int(p.ends.Get(int(id)))
}

// raw is what the blob holds of value id: the value, or its codes.
func (p packedStrings) raw(id uint64) string {
	from, to := p.span(id)
	return p.blob[from:to]
}

// at is value id: a substring of the blob, or decoded into a string of its own.
func (p packedStrings) at(id uint64) string {
	if p.table != nil {
		return stringOf(p.decodeTo(nil, id))
	}
	return p.raw(id)
}

// decodeTo appends value id of a packed p to dst.
func (p packedStrings) decodeTo(dst []byte, id uint64) []byte {
	v := p.raw(id)
	return p.table.decode(slices.Grow(dst, p.table.decodedLen(v)+8), v)
}

// flatStrings is a string dictionary with its ends decoded: the form a read of
// more rows than it has values indexes, each end once. Value i is
// blob[offsets[i]:offsets[i+1]]: offsets is 0, then the ends.
type flatStrings struct {
	blob    string
	offsets []uint64
}

// at is value id, a substring of the blob.
func (f flatStrings) at(id uint64) string { return f.blob[f.offsets[id]:f.offsets[id+1]] }

// spareEnds holds the buffer the last read of many plain values decoded their
// ends into, for the next one: at most one end per row of a chunk, plus one. A
// read beside it decodes into a buffer of its own; the last one given back is
// kept. Reading each span from the ends' vector instead made a dense gather
// 4-6x slower (2 vCPU x86-64); a sync.Pool empties every other GC, after which
// a gather allocates again, and under the race detector drops buffers at random.
var spareEnds atomic.Pointer[[]uint64]

// flat is p with its ends decoded: a plain p's into the spare buffer, which
// flat returns for putEnds, a packed p's into one allocation with its values
// decoded behind them, in the tail of the same pointer-free []uint64.
func (p packedStrings) flat() (flatStrings, *[]uint64) {
	if p.table == nil {
		buf := spareEnds.Swap(nil)
		if buf == nil {
			buf = new([]uint64)
		}
		if *buf = append(slices.Grow((*buf)[:0], p.n()+1), 0); p.ends != nil {
			*buf = p.ends.DecodeAll(*buf)
		}
		return flatStrings{blob: p.blob, offsets: *buf}, buf
	}
	n, size := p.n(), p.table.decodedLen(p.blob)+8
	words := make([]uint64, n+1+(size+7)/8)
	offsets := p.ends.DecodeAll(words[: 1 : n+1])
	arena := unsafe.Slice((*byte)(unsafe.Pointer(&words[n+1])), size)[:0]
	var from uint64
	for id, to := range offsets[1:] {
		arena = p.table.decode(arena, p.blob[from:to])
		offsets[id+1], from = uint64(len(arena)), to
	}
	return flatStrings{blob: stringOf(arena), offsets: offsets}, nil
}

// putEnds gives back the buffer flat took, if any.
func putEnds(buf *[]uint64) {
	if buf != nil {
		spareEnds.Store(buf)
	}
}

// values is every value in id order: substrings of the blob, or of one arena
// the packed values are decoded into.
func (p packedStrings) values() []string {
	f, buf := p.flat()
	defer putEnds(buf)
	out := make([]string, len(f.offsets)-1)
	for i := range out {
		out[i] = f.at(uint64(i))
	}
	return out
}

// bytes is what the values cost: the blob, its ends, and the table that
// decodes it.
func (p packedStrings) bytes() int64 {
	if p.ends == nil {
		return 0
	}
	if p.table == nil {
		return int64(len(p.blob)) + p.ends.MemoryUsage()
	}
	return int64(len(p.blob)) + p.ends.MemoryUsage() + fsstTableBytes
}

// bound is the first of the first n ids whose value is > v, or >= v unless
// past. A packed value is decoded into one buffer the search reuses.
func (p packedStrings) bound(v string, n int, past bool) ValueID {
	if p.table == nil {
		return ValueID(sort.Search(n, func(i int) bool {
			c := strings.Compare(p.raw(uint64(i)), v)
			return c > 0 || (!past && c == 0)
		}))
	}
	var stack [128]byte
	buf := stack[:0]
	return ValueID(sort.Search(n, func(i int) bool {
		buf = p.decodeTo(buf[:0], uint64(i))
		return string(buf) > v || (!past && string(buf) == v)
	}))
}

// EncodeDictionary builds a dictionary segment from raw values. nulls may
// be nil. The dictionary is the values' Summary, so it is sorted by that total
// order: a NaN, if any, is the last entry.
func EncodeDictionary[T types.Ordered](values []T, nulls []bool, compression VectorCompressionType) *DictionarySegment[T] {
	codes := make([]uint64, len(values))
	dict := groupValues(values, nulls, codes).Values
	return newDictionary(dict, CompressUints(codes, compression))
}

// newDictionary assembles a segment from a sorted dictionary and the rows'
// value ids (len(dict) for NULL); strings are copied into one blob.
func newDictionary[T types.Ordered](dict []T, av UintVector) *DictionarySegment[T] {
	s := &DictionarySegment[T]{av: av, nullID: ValueID(len(dict))}
	if strs, ok := any(dict).([]string); ok {
		s.strs = packStrings(strs)
	} else {
		s.dict = dict
	}
	return s
}

// packStrings lays the strings end to end: one allocation for their bytes,
// one for their ends before packEnds packs them.
func packStrings(strs []string) packedStrings {
	ends, lasts := stringEnds(strs, true)
	blob := strings.Join(strs, "")
	if len(strs) == 1 { // Join returns a lone string itself: it may lie in a tail's blob
		blob = strings.Clone(blob)
	}
	return packedStrings{blob: blob, ends: packEnds(ends, lasts)}
}

// stringEnds is where each of strs ends when they are laid end to end (nil
// unless all) and the last end of each 128: the block maxima of ascending
// ends, which both price their code vector (dictionaryBytes) and pack it.
func stringEnds(strs []string, all bool) (ends, lasts []uint64) {
	if all {
		ends = make([]uint64, len(strs))
	}
	lasts = make([]uint64, (len(strs)+bp128BlockSize-1)/bp128BlockSize)
	var total uint64
	for i, v := range strs {
		total += uint64(len(v))
		if lasts[i/bp128BlockSize] = total; all {
			ends[i] = total
		}
	}
	return ends, lasts
}

// packEnds stores ascending ends in the code vector that needs fewer bytes,
// lasts their block maxima.
func packEnds(ends, lasts []uint64) UintVector {
	_, vector := codeBytes(len(ends), lasts)
	return packCodes(ends, vector, lasts)
}

// value is the value with the given id, whatever the dictionary's type.
func (s *DictionarySegment[T]) value(id uint64) (v T) {
	if s.dict != nil {
		return s.dict[id]
	}
	*any(&v).(*string) = s.strs.at(id) // through a pointer: the string is never boxed
	return v
}

// AttributeVector exposes the compressed value-id vector.
func (s *DictionarySegment[T]) AttributeVector() UintVector { return s.av }

// UniqueValueCount returns the dictionary size.
func (s *DictionarySegment[T]) UniqueValueCount() int { return int(s.nullID) }

// ComparableCount returns how many leading dictionary entries a comparison can
// match: all of them but a NaN, which sorts last and compares with nothing.
// Value-id ranges of comparison predicates end here, not at the NULL id.
func (s *DictionarySegment[T]) ComparableCount() int {
	n := int(s.nullID)
	if n > 0 && s.dict != nil && s.dict[n-1] != s.dict[n-1] { // strings have no NaN
		n--
	}
	return n
}

// LowerBound returns the first value id whose value is >= v.
func (s *DictionarySegment[T]) LowerBound(v T) ValueID {
	if s.dict == nil {
		return s.strs.bound(*any(&v).(*string), s.ComparableCount(), false)
	}
	return ValueID(sort.Search(s.ComparableCount(), func(i int) bool { return s.dict[i] >= v }))
}

// UpperBound returns the first value id whose value is > v.
func (s *DictionarySegment[T]) UpperBound(v T) ValueID {
	if s.dict == nil {
		return s.strs.bound(*any(&v).(*string), s.ComparableCount(), true)
	}
	return ValueID(sort.Search(s.ComparableCount(), func(i int) bool { return s.dict[i] > v }))
}

// Find returns the first value id whose value is >= v and whether its value is
// v: one search, where LowerBound and UpperBound take two.
func (s *DictionarySegment[T]) Find(v T) (ValueID, bool) {
	id := s.LowerBound(v)
	switch {
	case int(id) == s.ComparableCount():
		return id, false
	case s.dict != nil:
		return id, s.dict[id] == v
	case s.strs.table == nil:
		return id, s.strs.raw(uint64(id)) == *any(&v).(*string)
	}
	var stack [128]byte
	return id, string(s.strs.decodeTo(stack[:0], uint64(id))) == *any(&v).(*string)
}

// Get returns the value and null flag at offset i (static path through the
// interface-typed attribute vector; Gather resolves the vector once for many
// positions).
func (s *DictionarySegment[T]) Get(i types.ChunkOffset) (T, bool) {
	id := s.av.Get(int(i))
	if ValueID(id) == s.nullID {
		var z T
		return z, true
	}
	return s.value(id), false
}

// DecodeAll materializes all values and null flags (Figure 3a "full
// materialization" path). The returned nulls slice is nil if the segment
// contains no NULLs.
func (s *DictionarySegment[T]) DecodeAll() ([]T, []bool) {
	codes := s.av.DecodeAll(make([]uint64, 0, s.av.Len()))
	out := make([]T, len(codes))
	strs, _ := any(out).([]string)
	var dict flatStrings // the ends decoded once, a packed dictionary's values too
	if strs != nil {
		var buf *[]uint64
		dict, buf = s.strs.flat()
		defer putEnds(buf)
	}
	var nulls []bool
	for i, id := range codes {
		switch {
		case ValueID(id) == s.nullID:
			if nulls == nil {
				nulls = make([]bool, len(codes))
			}
			nulls[i] = true
		case strs != nil:
			strs[i] = dict.at(id)
		default:
			out[i] = s.dict[id]
		}
	}
	return out, nulls
}

// DataType implements storage.Segment.
func (s *DictionarySegment[T]) DataType() types.DataType { return types.Native[T]() }

// Len implements storage.Segment.
func (s *DictionarySegment[T]) Len() int { return s.av.Len() }

// ValueAt implements storage.Segment (dynamic path).
func (s *DictionarySegment[T]) ValueAt(i types.ChunkOffset) types.Value {
	v, null := s.Get(i)
	if null {
		return types.NullValue
	}
	return types.FromNative(v)
}

// IsNullAt implements storage.Segment.
func (s *DictionarySegment[T]) IsNullAt(i types.ChunkOffset) bool {
	return ValueID(s.av.Get(int(i))) == s.nullID
}

// MemoryUsage implements storage.Segment.
func (s *DictionarySegment[T]) MemoryUsage() int64 {
	var zero T
	return int64(len(s.dict))*int64(unsafe.Sizeof(zero)) + s.strs.bytes() + s.av.MemoryUsage()
}

var _ storage.Segment = (*DictionarySegment[int64])(nil)
