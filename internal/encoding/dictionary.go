package encoding

import (
	"math"
	"slices"
	"sort"
	"strings"
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
// packedStrings, three pointers however many values it holds.
type DictionarySegment[T types.Ordered] struct {
	dict   []T           // the values of a numeric dictionary
	strs   packedStrings // the values of a string dictionary
	av     UintVector
	nullID ValueID // also the number of values
}

// packedStrings holds strings back to back in one string: value i is
// blob[ends[i-1]:ends[i]], a substring, so reading it allocates nothing. With a
// table the blob holds the values FSST-compressed (fsst.go), and a read
// decodes.
type packedStrings struct {
	blob  string
	ends  []uint32
	table *fsstTable
}

// span is where value id lies in the blob.
func (p packedStrings) span(id uint64) (from, to int) {
	if id > 0 {
		from = int(p.ends[id-1])
	}
	return from, int(p.ends[id])
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

// unpacked is p with its values decoded, as a plain packedStrings whose ends
// and bytes are one allocation: the ends first, the values behind them, in the
// tail of the same pointer-free []uint32.
func (p packedStrings) unpacked() packedStrings {
	if p.table == nil {
		return p
	}
	n, size := len(p.ends), p.table.decodedLen(p.blob)+8
	words := make([]uint32, n+(size+3)/4)
	arena := unsafe.Slice((*byte)(unsafe.Pointer(&words[n])), size)[:0]
	for id := range n {
		arena = p.table.decode(arena, p.raw(uint64(id)))
		words[id] = uint32(len(arena))
	}
	return packedStrings{blob: stringOf(arena), ends: words[:n:n]}
}

// values is every value in id order: substrings of the blob, or of one arena
// the packed values are decoded into.
func (p packedStrings) values() []string {
	p = p.unpacked()
	out := make([]string, len(p.ends))
	for i := range out {
		out[i] = p.raw(uint64(i))
	}
	return out
}

// bytes is what the values cost beside their ends: the blob, and the table
// that decodes it.
func (p packedStrings) bytes() int64 {
	if p.table == nil {
		return int64(len(p.blob))
	}
	return int64(len(p.blob)) + fsstTableBytes
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
// one for their ends.
func packStrings(strs []string) packedStrings {
	ends, total := make([]uint32, len(strs)), 0
	for i, v := range strs {
		total += len(v)
		ends[i] = uint32(total)
	}
	if total > math.MaxUint32 {
		panic("encoding: a string dictionary holds at most 4 GiB")
	}
	return packedStrings{blob: strings.Join(strs, ""), ends: ends}
}

// valuesBytes is what the values of a dictionary cost — n of them holding
// strBytes bytes of string data (packedStrings.bytes): 8 B per number, or a
// 4-byte end per string plus the string data. MemoryUsage and the size model
// both charge it.
func valuesBytes[T types.Ordered](n int, strBytes int64) int64 {
	var zero T
	if _, ok := any(zero).(string); ok {
		return 4*int64(n) + strBytes
	}
	return int64(n) * int64(unsafe.Sizeof(zero))
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
	dict := s.strs.unpacked() // a packed dictionary's values, each decoded once
	var nulls []bool
	for i, id := range codes {
		switch {
		case ValueID(id) == s.nullID:
			if nulls == nil {
				nulls = make([]bool, len(codes))
			}
			nulls[i] = true
		case strs != nil:
			strs[i] = dict.raw(id)
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
	return valuesBytes[T](int(s.nullID), s.strs.bytes()) + s.av.MemoryUsage()
}

var _ storage.Segment = (*DictionarySegment[int64])(nil)
