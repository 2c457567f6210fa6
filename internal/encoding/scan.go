package encoding

import (
	"math"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// This file implements predicate evaluation directly on encoded
// representations (paper §2.3–§2.5): encoded segments are first-class
// execution targets, not just a storage format that operators decode on
// touch. Each encoding exposes ScanEncoded, which evaluates a simple
// predicate without materializing the segment:
//
//   - Dictionary: the predicate is translated once into a value-id range via
//     LowerBound/UpperBound on the sorted dictionary; the attribute vector's
//     own kernels (UintVector.match, matchOutside for <>) then compare codes.
//   - FrameOfReference: the predicate is one interval of values, <> v the
//     wrapping [v+1, v-1], rewritten into the offset domain per 2048-value
//     block; blocks whose [frame, frame+blockMax] range cannot intersect it
//     are skipped wholesale, blocks fully inside it are accepted wholesale,
//     and only straddling blocks match codes. A float64 column of exact
//     decimals (decimal.go) first turns the predicate into an interval of
//     its integers, then runs the same blocks.
//   - RunLength: the predicate is evaluated once per run, accepting or
//     rejecting entire runs.
//
// ScanEncoded reports ok=false for predicate/type combinations it does not
// support (e.g. non-integral float probes against an int64 domain); callers
// fall back to the materializing path, so the encoded paths never need to
// approximate — they are exact or absent.

// ScanOp enumerates the simple predicate forms the encoded scan paths
// understand.
type ScanOp uint8

const (
	// ScanEq is "column = Value".
	ScanEq ScanOp = iota
	// ScanNe is "column <> Value".
	ScanNe
	// ScanLt is "column < Value".
	ScanLt
	// ScanLe is "column <= Value".
	ScanLe
	// ScanGt is "column > Value".
	ScanGt
	// ScanGe is "column >= Value".
	ScanGe
	// ScanBetween is "column BETWEEN Lo AND Hi" (both ends inclusive).
	ScanBetween
	// ScanIsNull is "column IS NULL".
	ScanIsNull
	// ScanIsNotNull is "column IS NOT NULL".
	ScanIsNotNull
)

// String names the operator in SQL spelling.
func (op ScanOp) String() string {
	switch op {
	case ScanEq:
		return "="
	case ScanNe:
		return "<>"
	case ScanLt:
		return "<"
	case ScanLe:
		return "<="
	case ScanGt:
		return ">"
	case ScanGe:
		return ">="
	case ScanBetween:
		return "BETWEEN"
	case ScanIsNull:
		return "IS NULL"
	case ScanIsNotNull:
		return "IS NOT NULL"
	default:
		return "?"
	}
}

// IsPoint reports whether the predicate targets single values (equality and
// null checks) rather than a range — the workload dimension the encoding
// advisor uses to pick between dictionary and frame-of-reference.
func (op ScanOp) IsPoint() bool {
	switch op {
	case ScanEq, ScanNe, ScanIsNull, ScanIsNotNull:
		return true
	default:
		return false
	}
}

// ScanPredicate is a simple single-column predicate in a form the encoded
// scan paths can translate into their code domains. Value carries the probe
// for comparison operators; Lo/Hi carry the BETWEEN bounds.
type ScanPredicate struct {
	Op     ScanOp
	Value  types.Value
	Lo, Hi types.Value
}

// ScanPath identifies which encoded code path answered a scan — surfaced
// through the scan.encoded_* counters so workloads can see (and the advisor
// can act on) which representations their predicates hit.
type ScanPath uint8

const (
	// PathDictionary is the value-id comparison scan.
	PathDictionary ScanPath = iota
	// PathFrameOfReference is the offset-domain block scan.
	PathFrameOfReference
	// PathRunLength is the per-run scan.
	PathRunLength
)

// String names the path after its encoding.
func (p ScanPath) String() string {
	switch p {
	case PathDictionary:
		return "Dictionary"
	case PathFrameOfReference:
		return "FrameOfReference"
	case PathRunLength:
		return "RunLength"
	default:
		return "?"
	}
}

// ScannableSegment is implemented by encoded segments that can evaluate a
// simple predicate directly on their encoded representation. ScanEncoded
// appends the matching chunk offsets (ascending) to dst. ok=false means the
// predicate/encoding pair is unsupported and the caller must fall back to
// the materializing path; dst is returned unchanged in that case.
type ScannableSegment interface {
	storage.Segment
	ScanEncoded(p ScanPredicate, dst []types.ChunkOffset) (matches []types.ChunkOffset, path ScanPath, ok bool)
}

// --- predicate normalization -------------------------------------------

// scanRange is a predicate normalized to an optionally-bounded interval in
// the segment's native domain.
type scanRange[T types.Ordered] struct {
	hasLo, loInc bool
	lo           T
	hasHi, hiInc bool
	hi           T
}

// match evaluates the interval against one value. A bound holds only when a
// comparison says so, so NaN is inside no interval.
func (r scanRange[T]) match(v T) bool {
	if r.hasLo && !(v > r.lo || (r.loInc && v == r.lo)) {
		return false
	}
	if r.hasHi && !(v < r.hi || (r.hiInc && v == r.hi)) {
		return false
	}
	return true
}

// probeAs converts a probe literal into the segment's native domain without
// changing comparison semantics. Integral float probes below 2^53 in
// magnitude against an int64 domain convert exactly; other floats report
// ok=false so the caller falls back: the evaluator compares an int with a
// float through float64, where 2^53+1 equals 2^53.0, and rewriting a
// non-integral probe with ceil/floor would diverge from that in corner cases.
// String domains accept only string probes; float domains accept any
// numeric probe (the evaluator compares those as float64 too).
func probeAs[T types.Ordered](v types.Value) (T, bool) {
	var z T
	switch any(z).(type) {
	case int64:
		switch v.Type {
		case types.TypeInt64:
			return any(v.I).(T), true
		case types.TypeFloat64:
			if math.Abs(v.F) < 1<<53 && v.F == float64(int64(v.F)) {
				return any(int64(v.F)).(T), true
			}
		}
	case float64:
		if v.Type.IsNumeric() {
			return any(v.AsFloat()).(T), true
		}
	case string:
		if v.Type == types.TypeString {
			return any(v.S).(T), true
		}
	}
	return z, false
}

// scanBounds normalizes a comparison/BETWEEN predicate into either an
// interval or a not-equal probe in the native domain. ok=false means the
// predicate cannot be represented exactly (type mismatch, null literal,
// null-check operators) and the caller must fall back.
func scanBounds[T types.Ordered](p ScanPredicate) (rng scanRange[T], ne T, isNe bool, ok bool) {
	switch p.Op {
	case ScanEq:
		v, vok := probeAs[T](p.Value)
		if !vok {
			return rng, ne, false, false
		}
		return scanRange[T]{hasLo: true, loInc: true, lo: v, hasHi: true, hiInc: true, hi: v}, ne, false, true
	case ScanNe:
		v, vok := probeAs[T](p.Value)
		if !vok {
			return rng, ne, false, false
		}
		return rng, v, true, true
	case ScanLt:
		v, vok := probeAs[T](p.Value)
		if !vok {
			return rng, ne, false, false
		}
		return scanRange[T]{hasHi: true, hi: v}, ne, false, true
	case ScanLe:
		v, vok := probeAs[T](p.Value)
		if !vok {
			return rng, ne, false, false
		}
		return scanRange[T]{hasHi: true, hiInc: true, hi: v}, ne, false, true
	case ScanGt:
		v, vok := probeAs[T](p.Value)
		if !vok {
			return rng, ne, false, false
		}
		return scanRange[T]{hasLo: true, lo: v}, ne, false, true
	case ScanGe:
		v, vok := probeAs[T](p.Value)
		if !vok {
			return rng, ne, false, false
		}
		return scanRange[T]{hasLo: true, loInc: true, lo: v}, ne, false, true
	case ScanBetween:
		lo, lok := probeAs[T](p.Lo)
		hi, hok := probeAs[T](p.Hi)
		if !lok || !hok {
			return rng, ne, false, false
		}
		return scanRange[T]{hasLo: true, loInc: true, lo: lo, hasHi: true, hiInc: true, hi: hi}, ne, false, true
	default:
		return rng, ne, false, false
	}
}

// ScanValues evaluates a predicate over materialized values — the
// monomorphic compare loop for unencoded segments (nothing to decode, but
// still specialized per type and operator). ok=false when the probe cannot
// be converted into T's domain exactly.
func ScanValues[T types.Ordered](p ScanPredicate, vals []T, nulls []bool, dst []types.ChunkOffset) ([]types.ChunkOffset, bool) {
	switch p.Op {
	case ScanIsNull:
		if nulls != nil {
			for i, null := range nulls {
				if null {
					dst = append(dst, types.ChunkOffset(i))
				}
			}
		}
		return dst, true
	case ScanIsNotNull:
		for i := range vals {
			if nulls == nil || !nulls[i] {
				dst = append(dst, types.ChunkOffset(i))
			}
		}
		return dst, true
	}
	rng, ne, isNe, ok := scanBounds[T](p)
	if !ok {
		return dst, false
	}
	if isNe {
		for i, v := range vals {
			if (nulls == nil || !nulls[i]) && v != ne {
				dst = append(dst, types.ChunkOffset(i))
			}
		}
		return dst, true
	}
	// Dedicated loops for the interval shapes scanBounds produces, so the
	// common operators compare once or twice per element.
	switch {
	case rng.hasLo && rng.hasHi && rng.loInc && rng.hiInc:
		for i, v := range vals {
			if (nulls == nil || !nulls[i]) && v >= rng.lo && v <= rng.hi {
				dst = append(dst, types.ChunkOffset(i))
			}
		}
	case rng.hasLo && !rng.hasHi && rng.loInc:
		for i, v := range vals {
			if (nulls == nil || !nulls[i]) && v >= rng.lo {
				dst = append(dst, types.ChunkOffset(i))
			}
		}
	case rng.hasLo && !rng.hasHi:
		for i, v := range vals {
			if (nulls == nil || !nulls[i]) && v > rng.lo {
				dst = append(dst, types.ChunkOffset(i))
			}
		}
	case rng.hasHi && !rng.hasLo && rng.hiInc:
		for i, v := range vals {
			if (nulls == nil || !nulls[i]) && v <= rng.hi {
				dst = append(dst, types.ChunkOffset(i))
			}
		}
	case rng.hasHi && !rng.hasLo:
		for i, v := range vals {
			if (nulls == nil || !nulls[i]) && v < rng.hi {
				dst = append(dst, types.ChunkOffset(i))
			}
		}
	default:
		for i, v := range vals {
			if (nulls == nil || !nulls[i]) && rng.match(v) {
				dst = append(dst, types.ChunkOffset(i))
			}
		}
	}
	return dst, true
}

// ScanStrings is ScanValues over a string segment, each row compared where its
// entry lies in the blob: no value is copied and nothing is allocated but the
// matches.
func ScanStrings(p ScanPredicate, s *storage.StringSegment, dst []types.ChunkOffset) ([]types.ChunkOffset, bool) {
	nulls := s.Nulls()
	switch p.Op {
	case ScanIsNull:
		return ScanValues[string](p, nil, nulls, dst)
	case ScanIsNotNull:
		for i := range s.Len() {
			if nulls == nil || !nulls[i] {
				dst = append(dst, types.ChunkOffset(i))
			}
		}
		return dst, true
	}
	rng, ne, isNe, ok := scanBounds[string](p)
	if !ok {
		return dst, false
	}
	for i := range s.Len() {
		if nulls != nil && nulls[i] {
			continue
		}
		if v := s.At(i); isNe && v != ne || !isNe && rng.match(v) {
			dst = append(dst, types.ChunkOffset(i))
		}
	}
	return dst, true
}

// --- dictionary ---------------------------------------------------------

// ScanEncoded implements ScannableSegment. The predicate is translated once
// into a value-id range by binary search on the sorted dictionary; the scan
// then runs entirely over integer codes. NULL is the id one past the
// dictionary, so "all non-null" is the contiguous range [0, nullID).
func (s *DictionarySegment[T]) ScanEncoded(p ScanPredicate, dst []types.ChunkOffset) ([]types.ChunkOffset, ScanPath, bool) {
	switch p.Op {
	case ScanIsNull:
		return s.Matches(s.nullID, s.nullID+1, dst), PathDictionary, true
	case ScanIsNotNull:
		return s.Matches(0, s.nullID, dst), PathDictionary, true
	}
	rng, ne, isNe, ok := scanBounds[T](p)
	if !ok {
		return dst, PathDictionary, false
	}
	if isNe { // one pass over the ids outside the probe's and not the NULL id
		lo, hi := s.LowerBound(ne), s.UpperBound(ne)
		return s.av.matchOutside(uint64(lo), uint64(hi-lo), uint64(s.nullID), dst), PathDictionary, true
	}
	start, end := s.idRange(rng)
	return s.Matches(start, end, dst), PathDictionary, true
}

// Matches appends to dst the chunk offsets whose value id lies in [lo, hi).
// This is the specialized dictionary scan: predicates are translated to a
// value-id range by the caller (via LowerBound/UpperBound) and the scan
// compares integer codes without decoding.
func (s *DictionarySegment[T]) Matches(lo, hi ValueID, dst []types.ChunkOffset) []types.ChunkOffset {
	if lo >= hi {
		return dst
	}
	return s.av.match(0, s.av.Len(), uint64(lo), uint64(hi-lo-1), nil, dst)
}

// idRange translates an interval of values into the value ids [start, end)
// that lie in it (empty when start >= end).
func (s *DictionarySegment[T]) idRange(rng scanRange[T]) (start, end ValueID) {
	if (rng.hasLo && rng.lo != rng.lo) || (rng.hasHi && rng.hi != rng.hi) {
		return 0, 0 // a NaN bound holds for no value
	}
	end = ValueID(s.ComparableCount()) // excludes NULLs, and NaN, by construction
	if rng.hasLo {
		if rng.loInc {
			start = s.LowerBound(rng.lo)
		} else {
			start = s.UpperBound(rng.lo)
		}
	}
	if rng.hasHi {
		if rng.hiInc {
			end = s.UpperBound(rng.hi)
		} else {
			end = s.LowerBound(rng.hi)
		}
	}
	return start, end
}

// --- frame of reference -------------------------------------------------

// ScanEncoded implements ScannableSegment. The predicate is rewritten into
// the unsigned offset domain per block: a block whose value range
// [frame, frame+blockMax] lies outside the predicate is skipped without
// touching its codes; a block fully inside it emits all its non-null rows;
// only straddling blocks compare individual codes.
func (s *FrameOfReferenceSegment) ScanEncoded(p ScanPredicate, dst []types.ChunkOffset) ([]types.ChunkOffset, ScanPath, bool) {
	switch p.Op {
	case ScanIsNull:
		for i, null := range s.nulls {
			if null {
				dst = append(dst, types.ChunkOffset(i))
			}
		}
		return dst, PathFrameOfReference, true
	case ScanIsNotNull:
		return s.scanInterval(math.MinInt64, math.MaxInt64, dst), PathFrameOfReference, true
	}
	rng, ne, isNe, ok := scanBounds[int64](p)
	if !ok {
		return dst, PathFrameOfReference, false
	}
	if isNe {
		return s.scanInterval(ne+1, ne-1, dst), PathFrameOfReference, true
	}
	// Canonicalize to a closed interval [lo, hi]; an exclusive bound at the
	// int64 extreme means the interval is empty.
	lo := int64(math.MinInt64)
	if rng.hasLo {
		lo = rng.lo
		if !rng.loInc {
			if lo == math.MaxInt64 {
				return dst, PathFrameOfReference, true
			}
			lo++
		}
	}
	hi := int64(math.MaxInt64)
	if rng.hasHi {
		hi = rng.hi
		if !rng.hiInc {
			if hi == math.MinInt64 {
				return dst, PathFrameOfReference, true
			}
			hi--
		}
	}
	if lo > hi {
		return dst, PathFrameOfReference, true
	}
	return s.scanInterval(lo, hi, dst), PathFrameOfReference, true
}

// scanInterval emits the offsets of the non-null rows whose value lies in the
// span+1 values from lo up to hi — which wraps from MaxInt64 to MinInt64 when
// hi < lo, so <> v is [v+1, v-1] — block by block. All arithmetic is mod
// 2^64: loCode is where lo lies from the frame on, fromLo where the frame
// lies from lo on. A block whose values [frame, frame+blockMax] neither hold
// lo nor start inside the interval misses it; one that lies in it emits its
// non-null rows without reading codes; the codes of the others match
// [loCode, loCode+span].
func (s *FrameOfReferenceSegment) scanInterval(lo, hi int64, dst []types.ChunkOffset) []types.ChunkOffset {
	span := uint64(hi) - uint64(lo)
	for b, frame := range s.frames {
		first, last := b*forBlockSize, min((b+1)*forBlockSize, s.n)
		loCode, fromLo, bmax := uint64(lo)-uint64(frame), uint64(frame)-uint64(lo), s.blockMax[b]
		switch {
		case s.blockNonNull[b] == 0 || loCode > bmax && fromLo > span:
			// no non-null row, or the block misses the interval
		case fromLo <= span && bmax <= span-fromLo:
			dst = s.appendNonNull(first, last, dst)
		default:
			dst = s.offsets.match(first, last, loCode, span, s.nulls, dst)
		}
	}
	return dst
}

// appendNonNull appends the rows of [first, last) that are not NULL.
func (s *FrameOfReferenceSegment) appendNonNull(first, last int, dst []types.ChunkOffset) []types.ChunkOffset {
	if s.nulls == nil {
		for i := first; i < last; i++ {
			dst = append(dst, types.ChunkOffset(i))
		}
		return dst
	}
	for i, null := range s.nulls[first:last] {
		if !null {
			dst = append(dst, types.ChunkOffset(first+i))
		}
	}
	return dst
}

// --- run length ---------------------------------------------------------

// ScanEncoded implements ScannableSegment: the predicate is evaluated once
// per run and entire runs are accepted or rejected.
func (s *RunLengthSegment[T]) ScanEncoded(p ScanPredicate, dst []types.ChunkOffset) ([]types.ChunkOffset, ScanPath, bool) {
	switch p.Op {
	case ScanIsNull:
		s.ForEachRun(func(first, last types.ChunkOffset, _ T, null bool) {
			if null {
				dst = appendRun(dst, first, last)
			}
		})
		return dst, PathRunLength, true
	case ScanIsNotNull:
		s.ForEachRun(func(first, last types.ChunkOffset, _ T, null bool) {
			if !null {
				dst = appendRun(dst, first, last)
			}
		})
		return dst, PathRunLength, true
	}
	rng, ne, isNe, ok := scanBounds[T](p)
	if !ok {
		return dst, PathRunLength, false
	}
	s.ForEachRun(func(first, last types.ChunkOffset, v T, null bool) {
		if null {
			return
		}
		if isNe {
			if v != ne {
				dst = appendRun(dst, first, last)
			}
			return
		}
		if rng.match(v) {
			dst = appendRun(dst, first, last)
		}
	})
	return dst, PathRunLength, true
}

func appendRun(dst []types.ChunkOffset, first, last types.ChunkOffset) []types.ChunkOffset {
	for i := first; i <= last; i++ {
		dst = append(dst, i)
	}
	return dst
}

// Interface conformance for all concrete instantiations.
var (
	_ ScannableSegment = (*DictionarySegment[int64])(nil)
	_ ScannableSegment = (*DictionarySegment[float64])(nil)
	_ ScannableSegment = (*DictionarySegment[string])(nil)
	_ ScannableSegment = (*FrameOfReferenceSegment)(nil)
	_ ScannableSegment = (*RunLengthSegment[int64])(nil)
	_ ScannableSegment = (*RunLengthSegment[float64])(nil)
	_ ScannableSegment = (*RunLengthSegment[string])(nil)
)
