package encoding

import (
	"fmt"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// This file implements the two access paths the paper contrasts:
//
//   - The *static* path: the concrete segment type (and, nested inside, the
//     concrete attribute-vector type) is resolved once per segment; the
//     inner loops are monomorphic with devirtualized, inlinable accessor
//     calls. This is the Go analog of Hyrise's template-resolved iterables.
//
//   - The *dynamic* path: one interface call (Segment.ValueAt) plus one
//     Value box per element, the analog of Hyrise1's virtual method calls.
//
// Figure 3b compares the two; Figure 3a compares positional gathering
// (MaterializePositions) against full decoding (Materialize + gather).

// slotOf is where the value at pos[i] of a gather lands: row i of out, or row
// slots[i] when the request is one chunk's share of a longer position list
// (storage.PosRun) and its rows stand scattered in the output.
func slotOf(slots []int32, i int) int {
	if slots != nil {
		return int(slots[i])
	}
	return i
}

// Gather fills out/nulls (at slotOf) with the values at the given positions
// of a dictionary segment, resolving the attribute vector type once. Strings
// gathered at more rows than the dictionary has values read its ends decoded
// once (flat), fewer read each value's span where it lies.
func (s *DictionarySegment[T]) Gather(pos []types.ChunkOffset, slots []int32, out []T, nulls []bool) {
	strs, isString := any(out).([]string)
	var flat flatStrings
	switch {
	case s.strs.table != nil:
		s.gatherPacked(pos, slots, strs, nulls)
		return
	case isString && len(pos) > int(s.nullID):
		var buf *[]uint64
		flat, buf = s.strs.flat()
		defer putEnds(buf)
	}
	switch av := s.av.(type) {
	case *FixedWidthVector[uint8]:
		gatherDict(s, flat, av.data, pos, slots, out, nulls)
	case *FixedWidthVector[uint16]:
		gatherDict(s, flat, av.data, pos, slots, out, nulls)
	case *FixedWidthVector[uint32]:
		gatherDict(s, flat, av.data, pos, slots, out, nulls)
	case *FixedWidthVector[uint64]:
		gatherDict(s, flat, av.data, pos, slots, out, nulls)
	case *BP128Vector:
		runs, dict, nullID := av.runs(pos), s.dict, uint64(s.nullID)
		for from, run, first, ok := runs.next(); ok; from, run, first, ok = runs.next() {
			for j, p := range run {
				switch i, id := slotOf(slots, from+j), runs.codes[int(p)-first]; {
				case id == nullID:
					nulls[i] = true
				case dict != nil: // a number, read without a call
					out[i] = dict[id]
				case flat.offsets != nil:
					strs[i] = flat.at(id)
				default:
					strs[i] = s.strs.raw(id)
				}
			}
		}
	}
}

// gatherDict is Gather over byte-aligned codes, the loop chosen once by the
// dictionary's layout. Strings into the rows from 0 on (a scan's output, a
// join's probe side) off decoded ends are bounds-checked once, not per row:
// that pays for the substring, which costs more than copying a header did.
func gatherDict[T types.Ordered, W uint8 | uint16 | uint32 | uint64](s *DictionarySegment[T], flat flatStrings, data []W, pos []types.ChunkOffset, slots []int32, out []T, nulls []bool) {
	nullID := uint64(s.nullID)
	strs, isString := any(out).([]string)
	switch {
	case isString && slots == nil && flat.offsets != nil:
		strs, nulls := strs[:len(pos)], nulls[:len(pos)]
		blob, offsets := flat.blob, flat.offsets
		for i, p := range pos {
			if id := uint64(data[p]); id == nullID {
				nulls[i] = true
			} else {
				strs[i] = blob[offsets[id]:offsets[id+1]]
			}
		}
	case isString:
		for i, p := range pos {
			i = slotOf(slots, i)
			switch id := uint64(data[p]); {
			case id == nullID:
				nulls[i] = true
			case flat.offsets != nil:
				strs[i] = flat.at(id)
			default:
				strs[i] = s.strs.raw(id)
			}
		}
	default:
		dict := s.dict
		for i, p := range pos {
			i = slotOf(slots, i)
			if id := uint64(data[p]); id == nullID {
				nulls[i] = true
			} else {
				out[i] = dict[id]
			}
		}
	}
}

// gatherPacked is Gather over a packed dictionary, which allocates once and
// hands out substrings of that arena: for more rows than the dictionary has
// values, the dictionary decoded (flat); else one pass sizes the arena the
// rows' values are decoded into and a second decodes them.
func (s *DictionarySegment[T]) gatherPacked(pos []types.ChunkOffset, slots []int32, out []string, nulls []bool) {
	if len(pos) > int(s.nullID) { // fewer values than rows: decode each once
		dict, _ := s.strs.flat() // a packed dictionary's: no buffer to give back
		for i, p := range pos {
			i = slotOf(slots, i)
			if id := s.av.Get(int(p)); ValueID(id) == s.nullID {
				nulls[i] = true
			} else {
				out[i] = dict.at(id)
			}
		}
		return
	}
	t, total := s.strs.table, 0
	for _, p := range pos {
		if id := s.av.Get(int(p)); ValueID(id) != s.nullID {
			total += t.decodedLen(s.strs.raw(id))
		}
	}
	arena := make([]byte, 0, total+8)
	for i, p := range pos {
		i = slotOf(slots, i)
		id := s.av.Get(int(p))
		if ValueID(id) == s.nullID {
			nulls[i] = true
			continue
		}
		from := len(arena)
		arena = t.decode(arena, s.strs.raw(id))
		out[i] = stringOf(arena[from:])
	}
}

// Gather fills out/nulls (at slotOf) with the values at the given positions
// of a FOR segment, resolving the offset vector type once.
func (s *FrameOfReferenceSegment) Gather(pos []types.ChunkOffset, slots []int32, out []int64, nulls []bool) {
	switch ov := s.offsets.(type) {
	case *FixedWidthVector[uint8]:
		gatherFOR(s.frames, ov.data, s.nulls, pos, slots, out, nulls)
	case *FixedWidthVector[uint16]:
		gatherFOR(s.frames, ov.data, s.nulls, pos, slots, out, nulls)
	case *FixedWidthVector[uint32]:
		gatherFOR(s.frames, ov.data, s.nulls, pos, slots, out, nulls)
	case *FixedWidthVector[uint64]:
		gatherFOR(s.frames, ov.data, s.nulls, pos, slots, out, nulls)
	case *BP128Vector:
		runs, frames, segNulls := ov.runs(pos), s.frames, s.nulls
		for from, run, first, ok := runs.next(); ok; from, run, first, ok = runs.next() {
			for j, p := range run {
				if i := slotOf(slots, from+j); segNulls != nil && segNulls[p] {
					nulls[i] = true
				} else {
					out[i] = frames[int(p)/forBlockSize] + int64(runs.codes[int(p)-first])
				}
			}
		}
	}
}

func gatherFOR[W uint8 | uint16 | uint32 | uint64](frames []int64, data []W, segNulls []bool, pos []types.ChunkOffset, slots []int32, out []int64, nulls []bool) {
	for i, p := range pos {
		i = slotOf(slots, i)
		if segNulls != nil && segNulls[p] {
			nulls[i] = true
			continue
		}
		out[i] = frames[int(p)/forBlockSize] + int64(data[p])
	}
}

// Gather fills out/nulls (at slotOf) with the values at the given positions
// of a run-length segment: an inlined binary search over the run ends per
// position. Random access over runs is inherently logarithmic — Figure 3a
// shows run-length as the encoding where full decoding can beat positional
// access for large position lists.
func (s *RunLengthSegment[T]) Gather(pos []types.ChunkOffset, slots []int32, out []T, nulls []bool) {
	ends := s.ends
	for i, p := range pos {
		i = slotOf(slots, i)
		lo, hi := 0, len(ends)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if ends[mid] < p {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if s.nulls != nil && s.nulls[lo] {
			nulls[i] = true
			continue
		}
		out[i] = s.values[lo]
	}
}

// Materialize decodes a full segment into a typed slice plus null flags
// (nil when no NULLs). For unencoded segments this copies no value: a value
// segment's slices are returned themselves, a string segment's strings are
// substrings of its blob, its flags its own; none of it may be mutated. T must
// match the segment's data type.
func Materialize[T types.Ordered](seg storage.Segment) ([]T, []bool) {
	switch s := seg.(type) {
	case *storage.ValueSegment[T]:
		return s.Values(), s.Nulls()
	case *storage.StringSegment:
		return any(s.Strings(0, s.Len())).([]T), s.Nulls()
	case *DictionarySegment[T]:
		return s.DecodeAll()
	case *RunLengthSegment[T]:
		return s.DecodeAll()
	case *FrameOfReferenceSegment:
		vals, nulls := s.DecodeAll()
		return any(vals).([]T), nulls
	case *DecimalSegment:
		vals, nulls := s.DecodeAll()
		return any(vals).([]T), nulls
	case *storage.ReferenceSegment:
		out, nulls := make([]T, s.Len()), make([]bool, s.Len())
		gatherReference(s.Positions(), s.ReferencedColumn(), out, nulls)
		return out, nulls
	default:
		panic(fmt.Sprintf("encoding: cannot materialize %T as %s", seg, types.Native[T]()))
	}
}

// MaterializePositions gathers the values at the given offsets of a segment
// (the positional access path of Figure 3a). T must match the segment's
// data type.
func MaterializePositions[T types.Ordered](seg storage.Segment, pos []types.ChunkOffset) ([]T, []bool) {
	out := make([]T, len(pos))
	nulls := make([]bool, len(pos))
	if ref, ok := seg.(*storage.ReferenceSegment); ok {
		gatherReference(storage.Select(ref.Positions(), pos), ref.ReferencedColumn(), out, nulls)
	} else {
		gather(seg, pos, nil, out, nulls)
	}
	return out, nulls
}

// gather reads the values of a stored segment at pos into out/nulls, at the
// rows slotOf names.
func gather[T types.Ordered](seg storage.Segment, pos []types.ChunkOffset, slots []int32, out []T, nulls []bool) {
	switch s := seg.(type) {
	case *storage.ValueSegment[T]:
		vals, segNulls := s.Values(), s.Nulls()
		for i, p := range pos {
			i = slotOf(slots, i)
			if segNulls != nil && segNulls[p] {
				nulls[i] = true
				continue
			}
			out[i] = vals[p]
		}
	case *storage.StringSegment:
		strs, segNulls := any(out).([]string), s.Nulls()
		for i, p := range pos {
			i = slotOf(slots, i)
			if segNulls != nil && segNulls[p] {
				nulls[i] = true
				continue
			}
			strs[i] = s.At(int(p))
		}
	case *DictionarySegment[T]:
		s.Gather(pos, slots, out, nulls)
	case *RunLengthSegment[T]:
		s.Gather(pos, slots, out, nulls)
	case *FrameOfReferenceSegment:
		s.Gather(pos, slots, any(out).([]int64), nulls)
	case *DecimalSegment:
		s.Gather(pos, slots, any(out).([]float64), nulls)
	default:
		panic(fmt.Sprintf("encoding: cannot gather from %T as %s", seg, types.Native[T]()))
	}
}

// gatherReference reads column col of the table p addresses at p's rows: one
// gather per stored chunk of p's split — shared by every column read through
// p — straight into the rows of out each run names.
func gatherReference[T types.Ordered](p *storage.Positions, col types.ColumnID, out []T, nulls []bool) {
	runs, nullRows := p.Split()
	for _, r := range nullRows {
		nulls[r] = true
	}
	for _, run := range runs {
		seg := p.Table().GetChunk(run.Chunk).GetSegment(col)
		gather(seg, run.Offsets, run.Slots, out[run.Start:], nulls[run.Start:])
	}
}

// MaterializeDynamic gathers positions through the Segment interface — one
// virtual call and one Value box per element. It exists as the
// dynamic-polymorphism baseline of Figure 3b and as the fallback for
// operators without specializations.
func MaterializeDynamic[T types.Ordered](seg storage.Segment, pos []types.ChunkOffset) ([]T, []bool) {
	out := make([]T, len(pos))
	nulls := make([]bool, len(pos))
	for i, p := range pos {
		v := seg.ValueAt(p)
		if v.IsNull() {
			nulls[i] = true
			continue
		}
		out[i] = types.ToNative[T](v)
	}
	return out, nulls
}
