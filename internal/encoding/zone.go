package encoding

import (
	"sort"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// This file is the encoded segments' side of storage.Zone: each encoding says
// what its column's zone is (read once, when a chunk is installed from a
// snapshot), and ScanSorted answers a predicate over a column its zone calls
// ascending.

// Zone implements storage.ZonedSegment: the dictionary is sorted and holds
// exactly the present non-null values, so the bounds are its comparable ends;
// because it is order-preserving, the values ascend as far as the codes do.
func (s *DictionarySegment[T]) Zone() storage.Zone {
	var z storage.Zone
	ids := uint64(s.ComparableCount())
	if ids > 0 {
		z.Min, z.Max = types.FromNative(s.value(0)), types.FromNative(s.value(ids-1))
	}
	var prev uint64
	for n := s.av.Len(); z.Ascending < n; z.Ascending++ {
		id := s.av.Get(z.Ascending)
		if id < prev || id >= ids { // descent, NaN or NULL
			break
		}
		prev = id
	}
	return z
}

// Zone implements storage.ZonedSegment: every block with a non-null row has
// its minimum as the frame (by construction) and its maximum at
// frame+blockMax; the run is found through the positional read.
func (s *FrameOfReferenceSegment) Zone() storage.Zone {
	var z storage.Zone
	for b, frame := range s.frames {
		if s.blockNonNull[b] == 0 {
			continue
		}
		// frame+int64(blockMax) wraps back to the true block maximum.
		top := frame + int64(s.blockMax[b])
		if z.Min.IsNull() {
			z.Min, z.Max = types.Int(frame), types.Int(top)
			continue
		}
		z.Min.I, z.Max.I = min(z.Min.I, frame), max(z.Max.I, top)
	}
	var prev int64
	for ; z.Ascending < s.n; z.Ascending++ {
		v, null := s.Get(types.ChunkOffset(z.Ascending))
		if null || (z.Ascending > 0 && v < prev) {
			break
		}
		prev = v
	}
	return z
}

// Zone implements storage.ZonedSegment in O(runs).
func (s *RunLengthSegment[T]) Zone() storage.Zone {
	z := storage.Zone{Ascending: s.n}
	var lo, hi T
	found, ascending := false, true
	for r, v := range s.values {
		ok := (s.nulls == nil || !s.nulls[r]) && v == v
		// While the run lasts, hi is the value of the run before.
		if ascending && (!ok || (found && v < hi)) {
			ascending, z.Ascending = false, s.runStart(r)
		}
		switch {
		case !ok:
		case !found:
			lo, hi, found = v, v, true
		default:
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	if found {
		z.Min, z.Max = types.FromNative(lo), types.FromNative(hi)
	}
	return z
}

// ScanSorted answers p over a segment whose rows are all comparable and
// non-decreasing (its zone's Ascending covers it): the matches are the
// contiguous rows [first, last), found by two binary searches — over the
// typed slice of a value segment, over the codes of a dictionary segment
// (order-preserving, so value order is code order), over the run values of a
// run-length segment, and through the positional read of frame-of-reference,
// which is one add per probe (a decimal column's predicate first becomes an
// interval of its integers). ok is false where ScanValues would refuse the
// probe too (a 2.5 against an INT column) and for the predicates that are not
// one interval (<>, null checks); the caller takes the next rung.
func ScanSorted(seg storage.Segment, p ScanPredicate) (first, last int, ok bool) {
	switch s := seg.(type) {
	case *FrameOfReferenceSegment:
		rng, ok := intervalOf[int64](p)
		if ok {
			first, last = s.sorted(rng)
		}
		return first, last, ok
	case *DecimalSegment:
		rng, ok := intervalOf[float64](p)
		switch {
		case ok && len(s.patches.rows) > 0: // the placeholders do not ascend
			first, last = searchSorted(rng, s.Len(), func(i int) float64 { v, _ := s.Get(types.ChunkOffset(i)); return v })
		case ok:
			lo, hi := s.codes(rng)
			first, last = s.ints.sorted(scanRange[int64]{hasLo: true, loInc: true, lo: lo, hasHi: true, hiInc: true, hi: hi})
		}
		return first, last, ok
	}
	switch seg.DataType() {
	case types.TypeInt64:
		return scanSorted[int64](seg, p)
	case types.TypeFloat64:
		return scanSorted[float64](seg, p)
	case types.TypeString:
		return scanSorted[string](seg, p)
	}
	return 0, 0, false
}

// sorted is ScanSorted over an ascending frame-of-reference column, through
// the positional read, which is one add per probe.
func (s *FrameOfReferenceSegment) sorted(rng scanRange[int64]) (first, last int) {
	return searchSorted(rng, s.n, func(i int) int64 { return s.frames[i/forBlockSize] + int64(s.offsets.Get(i)) })
}

func scanSorted[T types.Ordered](seg storage.Segment, p ScanPredicate) (first, last int, ok bool) {
	rng, ok := intervalOf[T](p)
	if !ok {
		return 0, 0, false
	}
	switch s := seg.(type) {
	case *storage.ValueSegment[T]:
		vals := s.Values()
		first, last = searchSorted(rng, len(vals), func(i int) T { return vals[i] })
	case *storage.StringSegment:
		first, last = searchSorted(any(rng).(scanRange[string]), s.Len(), s.At)
	case *DictionarySegment[T]:
		start, end := s.idRange(rng)
		n := s.av.Len()
		first = sort.Search(n, func(i int) bool { return ValueID(s.av.Get(i)) >= start })
		last = first + sort.Search(n-first, func(i int) bool { return ValueID(s.av.Get(first+i)) >= end })
	case *RunLengthSegment[T]:
		r0, r1 := searchSorted(rng, len(s.values), func(r int) T { return s.values[r] })
		first, last = s.runStart(r0), s.runStart(r1)
	default:
		return 0, 0, false
	}
	return first, last, true
}

// runStart is the offset of run r's first row (the segment's length for the
// run one past the last).
func (s *RunLengthSegment[T]) runStart(r int) int {
	if r == 0 {
		return 0
	}
	return int(s.ends[r-1]) + 1
}

// intervalOf is scanBounds for the predicates that confine the column to one
// interval.
func intervalOf[T types.Ordered](p ScanPredicate) (scanRange[T], bool) {
	rng, _, isNe, ok := scanBounds[T](p)
	return rng, ok && !isNe
}

// searchSorted returns the positions [first, last) of n comparable,
// non-decreasing values that lie in rng. A NaN bound makes both searches'
// conditions constant, which yields the empty range it has to.
func searchSorted[T types.Ordered](rng scanRange[T], n int, at func(i int) T) (first, last int) {
	last = n
	if rng.hasLo {
		first = sort.Search(n, func(i int) bool {
			v := at(i)
			return v > rng.lo || (rng.loInc && v == rng.lo)
		})
	}
	if rng.hasHi {
		last = first + sort.Search(n-first, func(i int) bool {
			v := at(first + i)
			return !(v < rng.hi || (rng.hiInc && v == rng.hi))
		})
	}
	return first, last
}

var (
	_ storage.ZonedSegment = (*DictionarySegment[int64])(nil)
	_ storage.ZonedSegment = (*FrameOfReferenceSegment)(nil)
	_ storage.ZonedSegment = (*RunLengthSegment[int64])(nil)
)
