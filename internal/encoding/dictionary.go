package encoding

import (
	"math"
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
// packedStrings, two pointers however many values it holds.
type DictionarySegment[T types.Ordered] struct {
	dict   []T           // the values of a numeric dictionary
	strs   packedStrings // the values of a string dictionary
	av     UintVector
	nullID ValueID // also the number of values
}

// packedStrings holds strings back to back in one string: value i is
// blob[ends[i-1]:ends[i]], a substring, so reading it allocates nothing.
type packedStrings struct {
	blob string
	ends []uint32
}

func (p packedStrings) at(id uint64) string {
	var start uint32
	if id > 0 {
		start = p.ends[id-1]
	}
	return p.blob[start:p.ends[id]]
}

// EncodeDictionary builds a dictionary segment from raw values. nulls may
// be nil. The dictionary is the values' Summary, so it is sorted by that total
// order: a NaN, if any, is the last entry.
func EncodeDictionary[T types.Ordered](values []T, nulls []bool, compression VectorCompressionType) *DictionarySegment[T] {
	codes := make([]uint64, len(values))
	return newDictionary(groupValues(values, nulls, codes).Values, codes, compression)
}

// newDictionary assembles a segment from a sorted dictionary and the rows'
// value ids (len(dict) for NULL); strings are copied into one blob.
func newDictionary[T types.Ordered](dict []T, codes []uint64, compression VectorCompressionType) *DictionarySegment[T] {
	s := &DictionarySegment[T]{av: CompressUints(codes, compression), nullID: ValueID(len(dict))}
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
	return packedStrings{strings.Join(strs, ""), ends}
}

// valuesBytes is what the values of a dictionary cost — n of them holding
// strBytes bytes of string data: 8 B per number, or a 4-byte end per string
// plus the strings themselves. MemoryUsage and the size model both charge it.
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
	return ValueID(sort.Search(s.ComparableCount(), func(i int) bool { return s.value(uint64(i)) >= v }))
}

// UpperBound returns the first value id whose value is > v.
func (s *DictionarySegment[T]) UpperBound(v T) ValueID {
	return ValueID(sort.Search(s.ComparableCount(), func(i int) bool { return s.value(uint64(i)) > v }))
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
	var nulls []bool
	for i, id := range codes {
		switch {
		case ValueID(id) == s.nullID:
			if nulls == nil {
				nulls = make([]bool, len(codes))
			}
			nulls[i] = true
		case strs != nil:
			strs[i] = s.strs.at(id)
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
	return valuesBytes[T](int(s.nullID), int64(len(s.strs.blob))) + s.av.MemoryUsage()
}

var _ storage.Segment = (*DictionarySegment[int64])(nil)
