package encoding

import (
	"encoding/binary"
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
// of a dictionary segment, resolving the attribute vector type once.
func (s *DictionarySegment[T]) Gather(pos []types.ChunkOffset, slots []int32, out []T, nulls []bool) {
	if s.strs.table != nil {
		s.gatherPacked(pos, slots, any(out).([]string), nulls)
		return
	}
	switch av := s.av.(type) {
	case *FixedWidthVector[uint8]:
		gatherDict(s, av.data, pos, slots, out, nulls)
	case *FixedWidthVector[uint16]:
		gatherDict(s, av.data, pos, slots, out, nulls)
	case *FixedWidthVector[uint32]:
		gatherDict(s, av.data, pos, slots, out, nulls)
	case *FixedWidthVector[uint64]:
		gatherDict(s, av.data, pos, slots, out, nulls)
	case *BP128Vector:
		for i, p := range pos {
			i = slotOf(slots, i)
			id := av.GetFast(int(p))
			if id == uint64(s.nullID) {
				nulls[i] = true
				continue
			}
			out[i] = s.value(id)
		}
	default:
		for i, p := range pos {
			i = slotOf(slots, i)
			out[i], nulls[i] = s.Get(p)
		}
	}
}

// gatherDict is Gather over byte-aligned codes, the loop chosen once by the
// dictionary's layout. Strings into the rows from 0 on (a scan's output, a
// join's probe side) are bounds-checked once, not per row: that pays for the
// substring, which costs more than copying a header did.
func gatherDict[T types.Ordered, W uint8 | uint16 | uint32 | uint64](s *DictionarySegment[T], data []W, pos []types.ChunkOffset, slots []int32, out []T, nulls []bool) {
	nullID := uint64(s.nullID)
	strs, isString := any(out).([]string)
	switch {
	case isString && slots == nil:
		strs, nulls := strs[:len(pos)], nulls[:len(pos)]
		blob, ends := s.strs.blob, s.strs.ends
		for i, p := range pos {
			id := uint64(data[p])
			if id == nullID {
				nulls[i] = true
				continue
			}
			end, start := ends[id], uint32(0)
			if id > 0 {
				start = ends[id-1]
			}
			strs[i] = blob[start:end]
		}
	case isString:
		for i, p := range pos {
			i = int(slots[i])
			if id := uint64(data[p]); id == nullID {
				nulls[i] = true
			} else {
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
// values, the dictionary decoded; else one pass sizes the arena the rows'
// values are decoded into and a second decodes them.
func (s *DictionarySegment[T]) gatherPacked(pos []types.ChunkOffset, slots []int32, out []string, nulls []bool) {
	if len(pos) > int(s.nullID) { // fewer values than rows: decode each once
		dict := s.strs.unpacked()
		for i, p := range pos {
			i = slotOf(slots, i)
			if id := s.av.Get(int(p)); ValueID(id) == s.nullID {
				nulls[i] = true
			} else {
				out[i] = dict.raw(id)
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

// Matches appends to dst the chunk offsets whose value id lies in [lo, hi).
// This is the specialized dictionary scan: predicates are translated to a
// value-id range by the caller (via LowerBound/UpperBound) and the scan
// compares integer codes without decoding.
func (s *DictionarySegment[T]) Matches(lo, hi ValueID, dst []types.ChunkOffset) []types.ChunkOffset {
	if lo >= hi {
		return dst
	}
	switch av := s.av.(type) {
	case *FixedWidthVector[uint8]:
		if hi-lo == 1 && lo <= 0xFF {
			return matchEqBytes(av.data, uint8(lo), dst)
		}
		return matchRange(av.data, uint64(lo), uint64(hi), dst)
	case *FixedWidthVector[uint16]:
		return matchRange(av.data, uint64(lo), uint64(hi), dst)
	case *FixedWidthVector[uint32]:
		return matchRange(av.data, uint64(lo), uint64(hi), dst)
	case *FixedWidthVector[uint64]:
		return matchRange(av.data, uint64(lo), uint64(hi), dst)
	case *BP128Vector:
		var buf [bp128BlockSize]uint64
		n := av.Len()
		for base := 0; base < n; base += bp128BlockSize {
			codes := av.DecodeRange(base, min(base+bp128BlockSize, n), buf[:0])
			for j, id := range codes {
				if uint64(lo) <= id && id < uint64(hi) {
					dst = append(dst, types.ChunkOffset(base+j))
				}
			}
		}
		return dst
	default:
		n := s.av.Len()
		for i := 0; i < n; i++ {
			if id := s.av.Get(i); uint64(lo) <= id && id < uint64(hi) {
				dst = append(dst, types.ChunkOffset(i))
			}
		}
		return dst
	}
}

const (
	swarOnes  = 0x0101010101010101
	swarHighs = 0x8080808080808080
)

// matchEqBytes finds the positions equal to target in a byte-wide attribute
// vector, eight codes per step: XOR against the broadcast target turns
// matches into zero bytes, and the Mycroft zero-byte test skips clean words
// with three ALU ops — the scalar analog of the SIMD scans the paper
// benchmarks. Single-value id ranges (equality probes, IS NULL) hit this.
func matchEqBytes(data []uint8, target uint8, dst []types.ChunkOffset) []types.ChunkOffset {
	pattern := swarOnes * uint64(target)
	i := 0
	for ; i+8 <= len(data); i += 8 {
		w := binary.LittleEndian.Uint64(data[i:])
		v := w ^ pattern
		if (v-swarOnes) & ^v & swarHighs == 0 {
			continue // no byte of this word matches
		}
		for j := i; j < i+8; j++ {
			if data[j] == target {
				dst = append(dst, types.ChunkOffset(j))
			}
		}
	}
	for ; i < len(data); i++ {
		if data[i] == target {
			dst = append(dst, types.ChunkOffset(i))
		}
	}
	return dst
}

func matchRange[W uint8 | uint16 | uint32 | uint64](data []W, lo, hi uint64, dst []types.ChunkOffset) []types.ChunkOffset {
	for i, id := range data {
		if lo <= uint64(id) && uint64(id) < hi {
			dst = append(dst, types.ChunkOffset(i))
		}
	}
	return dst
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
		for i, p := range pos {
			i = slotOf(slots, i)
			if s.nulls != nil && s.nulls[p] {
				nulls[i] = true
				continue
			}
			out[i] = s.frames[int(p)/forBlockSize] + int64(ov.GetFast(int(p)))
		}
	default:
		for i, p := range pos {
			i = slotOf(slots, i)
			out[i], nulls[i] = s.Get(p)
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
// (nil when no NULLs). For value segments this is zero-copy: the returned
// slices alias the segment and must not be mutated. T must match the
// segment's data type.
func Materialize[T types.Ordered](seg storage.Segment) ([]T, []bool) {
	switch s := seg.(type) {
	case *storage.ValueSegment[T]:
		return s.Values(), s.Nulls()
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
