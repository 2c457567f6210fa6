// Package storage implements Hyrise's storage layout (paper §2.2): tables
// are horizontally partitioned into fixed-capacity chunks; within a chunk,
// vertical partitions called segments hold the data of one column each.
// Chunks start mutable and append-only; once full they become immutable and
// may be encoded, indexed, and filtered asynchronously.
package storage

import (
	"fmt"
	"slices"

	"hyrise/internal/types"
)

// Segment is one column's worth of data within one chunk.
//
// The methods on this interface form the *dynamic* access path: one virtual
// call per value. Operators should prefer the static path — resolving the
// concrete segment type once (see encoding.Resolve*) and running a
// monomorphic loop — which is the Go analog of the paper's template-based
// iterator resolution. The dynamic path is retained both as a fallback for
// unspecialized operators and as the baseline of the Figure 3b experiment.
type Segment interface {
	// DataType returns the column type stored in this segment.
	DataType() types.DataType
	// Len returns the number of rows.
	Len() int
	// ValueAt returns the value at the offset (NullValue for NULL rows).
	ValueAt(i types.ChunkOffset) types.Value
	// IsNullAt reports whether the row is NULL.
	IsNullAt(i types.ChunkOffset) bool
	// MemoryUsage returns the estimated heap footprint in bytes.
	MemoryUsage() int64
}

// ValueSegment is the unencoded, mutable segment type backed by a plain
// slice. Freshly appended chunks consist of value segments (a string column
// of a StringSegment; a ValueSegment[string] only wraps an operator's output);
// encodings are applied only after the chunk becomes immutable.
type ValueSegment[T types.Ordered] struct {
	values []T
	flags
}

// flags are an unencoded segment's NULL flags: nil until a row is NULL, then
// one a row in an array that grows like the rows' (growTo).
type flags struct {
	nulls    []bool
	nullable bool
	limit    int // the rows Append grows toward (growTo); 0 leaves growth to append
}

// add appends a row's flag beside rows rows, in an array of room.
func (f *flags) add(null bool, rows, room int) {
	if null && !f.nullable {
		panic("storage: NULL appended to non-nullable segment")
	}
	if f.nulls == nil && null {
		f.nulls = make([]bool, rows, room)
	} else if f.nulls != nil && len(f.nulls) == cap(f.nulls) {
		f.nulls = growTo(f.nulls, f.limit)
	}
	if f.nulls != nil {
		f.nulls = append(f.nulls, null)
	}
}

// set writes row i's flag (into a copy when fresh); a NULL gives a column
// without flags its flags for rows rows, in an array of room.
func (f *flags) set(i types.ChunkOffset, null, fresh bool, rows, room int) {
	if fresh && f.nulls != nil {
		f.nulls = append(make([]bool, 0, cap(f.nulls)), f.nulls...)
	}
	if f.nulls == nil && null {
		f.nulls = make([]bool, rows, room)
	}
	if f.nulls != nil {
		f.nulls[i] = null
	}
}

// growLimit lets a restored tail grow toward the chunk size; flags that mark
// no NULL go, as a fresh chunk would not have them yet.
func (f *flags) growLimit(capacity int) {
	f.limit = capacity
	if !slices.Contains(f.nulls, true) {
		f.nulls = nil
	}
}

// clipped is what a sealed chunk keeps: flags only if some row is NULL, without
// spare capacity (the column stays Nullable).
func (f flags) clipped() flags {
	c := flags{nullable: f.nullable}
	if slices.Contains(f.nulls, true) {
		c.nulls = exact(f.nulls)
	}
	return c
}

// zeros reports that a snapshot writer (all) is given all-false flags: for a
// nullable column that was appended to (limit > 0, not clipped) and holds no
// NULL, the form in which a snapshot writes it.
func (f flags) zeros(all bool) bool { return all && f.nulls == nil && f.nullable && f.limit > 0 }

// viewOf is the flags of a view of the first size rows.
func (f flags) viewOf(size int, all bool) flags {
	v := flags{nullable: f.nullable}
	if f.nulls != nil {
		v.nulls = f.nulls[:size:size]
	} else if f.zeros(all) {
		v.nulls = make([]bool, size)
	}
	return v
}

// Nulls exposes the null flags (nil if no row is NULL).
func (f flags) Nulls() []bool { return f.nulls }

// Nullable reports whether the segment may contain NULLs.
func (f flags) Nullable() bool { return f.nullable }

// IsNullAt implements Segment.
func (f flags) IsNullAt(i types.ChunkOffset) bool { return f.nulls != nil && f.nulls[i] }

// NewValueSegment creates an empty value segment that will hold up to
// capacity rows. It allocates nothing: Append grows the arrays by two thirds
// (growTo), never past capacity, and a nullable column gets its NULL flags with
// its first NULL, so a chunk costs about the rows it has and a full one
// carries no slack.
func NewValueSegment[T types.Ordered](capacity int, nullable bool) *ValueSegment[T] {
	return &ValueSegment[T]{flags: flags{nullable: nullable, limit: capacity}}
}

// ValueSegmentFromSlice wraps an existing slice (not copied) in a segment.
// nulls may be nil for a NOT NULL column.
func ValueSegmentFromSlice[T types.Ordered](values []T, nulls []bool) *ValueSegment[T] {
	if nulls != nil && len(nulls) != len(values) {
		panic("storage: nulls length does not match values length")
	}
	return &ValueSegment[T]{values: values, flags: flags{nulls: nulls, nullable: nulls != nil}}
}

// Append adds a value to the end of the segment.
func (s *ValueSegment[T]) Append(v T, null bool) {
	if len(s.values) == cap(s.values) {
		s.values = growTo(s.values, s.limit)
	}
	s.add(null, len(s.values), cap(s.values))
	s.values = append(s.values, v)
}

// growTo returns xs with room for one more element when it is full below
// limit: below 256 twice the length (16 at first), from there two thirds more;
// never past limit, and exactly that much, so cap is what the heap holds.
func growTo[E any](xs []E, limit int) []E {
	n := len(xs)
	if n < cap(xs) || n >= limit {
		return xs
	}
	grown := max(16, 2*n)
	if n >= 256 {
		grown = n + 2*n/3
	}
	return append(make([]E, 0, min(limit, grown)), xs...)
}

// reserve gives an empty segment room for n rows up front: a bulk load that
// knows its size.
func (s *ValueSegment[T]) reserve(n, _ int) { s.values = make([]T, 0, n) }

// Clipped returns the segment as a sealed chunk keeps it: its rows without
// spare capacity, and NULL flags only if some row is NULL (it stays
// Nullable). An array without spare capacity is shared, not copied.
func (s *ValueSegment[T]) Clipped() *ValueSegment[T] {
	return &ValueSegment[T]{values: exact(s.values), flags: s.clipped()}
}

// exact is xs without spare capacity: xs itself, or a copy if it has some.
func exact[E any](xs []E) []E {
	if len(xs) == cap(xs) {
		return xs
	}
	return append(make([]E, 0, len(xs)), xs...)
}

// Values exposes the underlying data slice for tight loops and encoders.
func (s *ValueSegment[T]) Values() []T { return s.values }

// view returns a read-only view of the first size rows. The caller must hold
// the owning chunk's lock; the view stays valid even if later appends
// reallocate the underlying slices or give the column its first NULL flags.
// A sealed segment no longer changes and is its own view. A snapshot writer
// (all) gets a nullable tail's all-false flags (flags.zeros).
func (s *ValueSegment[T]) view(size int, sealed, all bool) Segment {
	if sealed && !s.zeros(all) {
		return s
	}
	size = min(size, len(s.values))
	return &ValueSegment[T]{values: s.values[:size:size], flags: s.viewOf(size, all)}
}

// Get returns the value and null flag at i (static access path).
func (s *ValueSegment[T]) Get(i types.ChunkOffset) (T, bool) {
	if s.IsNullAt(i) {
		var z T
		return z, true
	}
	return s.values[i], false
}

// DataType implements Segment.
func (s *ValueSegment[T]) DataType() types.DataType { return types.Native[T]() }

// Len implements Segment.
func (s *ValueSegment[T]) Len() int { return len(s.values) }

// ValueAt implements Segment (dynamic path).
func (s *ValueSegment[T]) ValueAt(i types.ChunkOffset) types.Value {
	if s.IsNullAt(i) {
		return types.NullValue
	}
	return types.FromNative(s.values[i])
}

// MemoryUsage implements Segment.
func (s *ValueSegment[T]) MemoryUsage() int64 {
	var elem int64
	var z T
	switch any(z).(type) {
	case int64, float64:
		elem = 8 * int64(cap(s.values))
	case string:
		elem = 16 * int64(cap(s.values)) // string headers
		for _, v := range s.values {
			elem += int64(len(any(v).(string)))
		}
	}
	if s.nulls != nil {
		elem += int64(cap(s.nulls))
	}
	return elem
}

// ReferenceSegment is a segment that does not store data but positions into
// a table that does. The reference segments an operator builds over the same
// rows share one Positions, so producing an N-column intermediate costs one
// position list, not N copies (paper §2.6, "avoids expensive
// materializations").
type ReferenceSegment struct {
	pos    *Positions
	column types.ColumnID
}

// NewReferenceSegment creates a reference segment over column of the table
// pos addresses.
func NewReferenceSegment(pos *Positions, column types.ColumnID) *ReferenceSegment {
	pos.users.Add(1)
	return &ReferenceSegment{pos: pos, column: column}
}

// ReferencedColumn returns the column id within the referenced table.
func (s *ReferenceSegment) ReferencedColumn() types.ColumnID { return s.column }

// Positions returns the shared position list; its Table stores the values.
func (s *ReferenceSegment) Positions() *Positions { return s.pos }

// DataType implements Segment.
func (s *ReferenceSegment) DataType() types.DataType { return s.pos.table.defs[s.column].Type }

// Len implements Segment.
func (s *ReferenceSegment) Len() int { return s.pos.n }

// ValueAt implements Segment by chasing the reference (dynamic path).
func (s *ReferenceSegment) ValueAt(i types.ChunkOffset) types.Value {
	rowID := s.pos.at(i)
	if rowID.IsNull() {
		return types.NullValue
	}
	return s.pos.table.GetChunk(rowID.Chunk).GetSegment(s.column).ValueAt(rowID.Offset)
}

// IsNullAt implements Segment.
func (s *ReferenceSegment) IsNullAt(i types.ChunkOffset) bool {
	rowID := s.pos.at(i)
	if rowID.IsNull() {
		return true
	}
	return s.pos.table.GetChunk(rowID.Chunk).GetSegment(s.column).IsNullAt(rowID.Offset)
}

// MemoryUsage implements Segment: an equal share of the position list (8
// bytes a row), so the segments over one list add up to the list, once.
func (s *ReferenceSegment) MemoryUsage() int64 {
	return 8 * int64(s.pos.n) / int64(s.pos.users.Load())
}

// with returns the segment with row i set to (v, null): s itself when fresh
// is false, else a copy over new backing arrays of the same capacity. A NULL
// gives a column without flags its flags.
func (s *ValueSegment[T]) with(i types.ChunkOffset, v T, null, fresh bool) *ValueSegment[T] {
	if fresh {
		s = &ValueSegment[T]{values: append(make([]T, 0, cap(s.values)), s.values...), flags: s.flags}
	}
	s.set(i, null, fresh, len(s.values), cap(s.values))
	s.values[i] = v
	return s
}

// valueSegmentWith is ValueSegment.with (StringSegment.with) for the dynamic
// value v.
func valueSegmentWith(seg Segment, i types.ChunkOffset, v types.Value, fresh bool) (Segment, error) {
	switch s := seg.(type) {
	case *ValueSegment[int64]:
		return s.with(i, v.AsInt(), v.IsNull(), fresh), nil
	case *ValueSegment[float64]:
		return s.with(i, v.AsFloat(), v.IsNull(), fresh), nil
	case *StringSegment:
		return s.with(i, v.S, v.IsNull(), fresh), nil
	default:
		return nil, fmt.Errorf("storage: cannot overwrite a row of segment type %T", seg)
	}
}

// NewValueSegmentOfType creates the empty unencoded segment a chunk of the
// dynamic type starts with: a value segment for numbers, a StringSegment for
// strings.
func NewValueSegmentOfType(t types.DataType, capacity int, nullable bool) Segment {
	switch t {
	case types.TypeInt64:
		return NewValueSegment[int64](capacity, nullable)
	case types.TypeFloat64:
		return NewValueSegment[float64](capacity, nullable)
	case types.TypeString:
		return NewStringSegment(capacity, nullable)
	default:
		panic(fmt.Sprintf("storage: no segment for type %s", t))
	}
}
