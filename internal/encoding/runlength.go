package encoding

import (
	"sort"
	"strings"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// RunLengthSegment stores consecutive equal values as (value, end offset)
// runs. NULL runs are flagged separately. Positional access binary-searches
// the run ends, so random access is O(log runs) — the paper's Figure 3a
// shows this is the one encoding where positional access can lose against
// full decoding for large position lists.
type RunLengthSegment[T types.Ordered] struct {
	values []T
	ends   []types.ChunkOffset // inclusive end offset of each run
	nulls  []bool              // nil when no NULLs exist
	n      int
}

// EncodeRunLength builds a run-length segment. nulls may be nil.
func EncodeRunLength[T types.Ordered](values []T, nulls []bool) *RunLengthSegment[T] {
	s := &RunLengthSegment[T]{n: len(values)}
	if len(values) == 0 {
		return s
	}
	var anyNull bool
	var runNulls []bool
	start := 0
	isNull := func(i int) bool { return nulls != nil && nulls[i] }
	for i := 1; i <= len(values); i++ {
		if i < len(values) && values[i] == values[start] && isNull(i) == isNull(start) {
			continue
		}
		s.values = append(s.values, values[start])
		s.ends = append(s.ends, types.ChunkOffset(i-1))
		runNulls = append(runNulls, isNull(start))
		if isNull(start) {
			anyNull = true
		}
		start = i
	}
	if anyNull {
		s.nulls = runNulls
	}
	if strs, ok := any(s.values).([]string); ok { // not substrings of the tail's blob
		for i, v := range strs {
			strs[i] = strings.Clone(v)
		}
	}
	return s
}

// runIndex locates the run containing offset i.
func (s *RunLengthSegment[T]) runIndex(i types.ChunkOffset) int {
	return sort.Search(len(s.ends), func(r int) bool { return s.ends[r] >= i })
}

// Get returns the value and null flag at offset i.
func (s *RunLengthSegment[T]) Get(i types.ChunkOffset) (T, bool) {
	r := s.runIndex(i)
	if s.nulls != nil && s.nulls[r] {
		var z T
		return z, true
	}
	return s.values[r], false
}

// DecodeAll materializes all values and null flags.
func (s *RunLengthSegment[T]) DecodeAll() ([]T, []bool) {
	out := make([]T, s.n)
	var nulls []bool
	if s.nulls != nil {
		nulls = make([]bool, s.n)
	}
	pos := 0
	for r, v := range s.values {
		end := int(s.ends[r])
		for ; pos <= end; pos++ {
			out[pos] = v
			if nulls != nil {
				nulls[pos] = s.nulls[r]
			}
		}
	}
	return out, nulls
}

// ForEachRun visits every run as (firstOffset, lastOffset, value, isNull).
// Scans use this to evaluate the predicate once per run.
func (s *RunLengthSegment[T]) ForEachRun(f func(first, last types.ChunkOffset, v T, null bool)) {
	var first types.ChunkOffset
	for r, v := range s.values {
		null := s.nulls != nil && s.nulls[r]
		f(first, s.ends[r], v, null)
		first = s.ends[r] + 1
	}
}

// DataType implements storage.Segment.
func (s *RunLengthSegment[T]) DataType() types.DataType { return types.Native[T]() }

// Len implements storage.Segment.
func (s *RunLengthSegment[T]) Len() int { return s.n }

// ValueAt implements storage.Segment (dynamic path).
func (s *RunLengthSegment[T]) ValueAt(i types.ChunkOffset) types.Value {
	v, null := s.Get(i)
	if null {
		return types.NullValue
	}
	return types.FromNative(v)
}

// IsNullAt implements storage.Segment.
func (s *RunLengthSegment[T]) IsNullAt(i types.ChunkOffset) bool {
	if s.nulls == nil {
		return false
	}
	return s.nulls[s.runIndex(i)]
}

// MemoryUsage implements storage.Segment.
func (s *RunLengthSegment[T]) MemoryUsage() int64 {
	var valBytes int64
	var z T
	switch any(z).(type) {
	case int64, float64:
		valBytes = 8 * int64(len(s.values))
	case string:
		valBytes = 16 * int64(len(s.values))
		for _, v := range s.values {
			valBytes += int64(len(any(v).(string)))
		}
	}
	valBytes += 4 * int64(len(s.ends))
	if s.nulls != nil {
		valBytes += int64(len(s.nulls))
	}
	return valBytes
}

var _ storage.Segment = (*RunLengthSegment[int64])(nil)
