package encoding

import (
	"sort"

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
type DictionarySegment[T types.Ordered] struct {
	dict   []T
	av     UintVector
	nullID ValueID
}

// EncodeDictionary builds a dictionary segment from raw values. nulls may
// be nil. The dictionary is the values' Summary, so it is sorted by that total
// order: a NaN, if any, is the last entry.
func EncodeDictionary[T types.Ordered](values []T, nulls []bool, compression VectorCompressionType) *DictionarySegment[T] {
	codes := make([]uint64, len(values))
	return newDictionary(groupValues(values, nulls, codes).Values, codes, compression)
}

// newDictionary assembles a segment from a sorted dictionary and the rows'
// value ids (len(dict) for NULL).
func newDictionary[T types.Ordered](dict []T, codes []uint64, compression VectorCompressionType) *DictionarySegment[T] {
	return &DictionarySegment[T]{dict: dict, av: CompressUints(codes, compression), nullID: ValueID(len(dict))}
}

// Dictionary exposes the sorted dictionary (used by the group-key index).
func (s *DictionarySegment[T]) Dictionary() []T { return s.dict }

// AttributeVector exposes the compressed value-id vector.
func (s *DictionarySegment[T]) AttributeVector() UintVector { return s.av }

// UniqueValueCount returns the dictionary size.
func (s *DictionarySegment[T]) UniqueValueCount() int { return len(s.dict) }

// ComparableCount returns how many leading dictionary entries a comparison can
// match: all of them but a NaN, which sorts last and compares with nothing.
// Value-id ranges of comparison predicates end here, not at the NULL id.
func (s *DictionarySegment[T]) ComparableCount() int {
	n := len(s.dict)
	if n > 0 && s.dict[n-1] != s.dict[n-1] {
		n--
	}
	return n
}

// LowerBound returns the first value id whose value is >= v.
func (s *DictionarySegment[T]) LowerBound(v T) ValueID {
	return ValueID(sort.Search(s.ComparableCount(), func(i int) bool { return s.dict[i] >= v }))
}

// UpperBound returns the first value id whose value is > v.
func (s *DictionarySegment[T]) UpperBound(v T) ValueID {
	return ValueID(sort.Search(s.ComparableCount(), func(i int) bool { return s.dict[i] > v }))
}

// Get returns the value and null flag at offset i (static path through the
// interface-typed attribute vector; for fully devirtualized loops use
// DictAccessor).
func (s *DictionarySegment[T]) Get(i types.ChunkOffset) (T, bool) {
	id := s.av.Get(int(i))
	if ValueID(id) == s.nullID {
		var z T
		return z, true
	}
	return s.dict[id], false
}

// DecodeAll materializes all values and null flags (Figure 3a "full
// materialization" path). The returned nulls slice is nil if the segment
// contains no NULLs.
func (s *DictionarySegment[T]) DecodeAll() ([]T, []bool) {
	codes := s.av.DecodeAll(make([]uint64, 0, s.av.Len()))
	out := make([]T, len(codes))
	var nulls []bool
	for i, id := range codes {
		if ValueID(id) == s.nullID {
			if nulls == nil {
				nulls = make([]bool, len(codes))
			}
			nulls[i] = true
			continue
		}
		out[i] = s.dict[id]
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
	var dictBytes int64
	var z T
	switch any(z).(type) {
	case int64, float64:
		dictBytes = 8 * int64(len(s.dict))
	case string:
		dictBytes = 16 * int64(len(s.dict))
		for _, v := range s.dict {
			dictBytes += int64(len(any(v).(string)))
		}
	}
	return dictBytes + s.av.MemoryUsage()
}

var _ storage.Segment = (*DictionarySegment[int64])(nil)
