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
//     LowerBound/UpperBound on the sorted dictionary; the scan then compares
//     integer code points in the attribute vector.
//   - FrameOfReference: the predicate is rewritten into the offset domain per
//     2048-value block; blocks whose [frame, frame+blockMax] range cannot
//     intersect the predicate are skipped wholesale, blocks fully inside it
//     are accepted wholesale, and only straddling blocks compare codes. A
//     float64 column of exact decimals (decimal.go) first turns the predicate
//     into an interval of its integers, then runs the same blocks.
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
// changing comparison semantics. Integral float probes against an int64
// domain convert exactly; non-integral or unrepresentable floats report
// ok=false so the caller falls back (rewriting them with ceil/floor would
// diverge from the evaluator's float-comparison semantics in corner cases).
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
			if v.F == float64(int64(v.F)) {
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
	if isNe {
		return s.matchesOutside(s.LowerBound(ne), s.UpperBound(ne), dst), PathDictionary, true
	}
	start, end := s.idRange(rng)
	return s.Matches(start, end, dst), PathDictionary, true
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

// matchesOutside appends the offsets whose value id is outside [lo, hi) and
// not the null id — the single-pass "<>" scan (position order preserved, no
// sort needed).
func (s *DictionarySegment[T]) matchesOutside(lo, hi ValueID, dst []types.ChunkOffset) []types.ChunkOffset {
	switch av := s.av.(type) {
	case *FixedWidthVector[uint8]:
		return matchOutside(av.data, uint64(lo), uint64(hi), uint64(s.nullID), dst)
	case *FixedWidthVector[uint16]:
		return matchOutside(av.data, uint64(lo), uint64(hi), uint64(s.nullID), dst)
	case *FixedWidthVector[uint32]:
		return matchOutside(av.data, uint64(lo), uint64(hi), uint64(s.nullID), dst)
	case *FixedWidthVector[uint64]:
		return matchOutside(av.data, uint64(lo), uint64(hi), uint64(s.nullID), dst)
	case *BP128Vector:
		var buf [64]uint64
		for g := 0; g*64 < av.Len(); g++ {
			for j, id := range av.group(g, &buf) {
				if id-uint64(lo) >= uint64(hi-lo) && id != uint64(s.nullID) {
					dst = append(dst, types.ChunkOffset(g*64+j))
				}
			}
		}
		return dst
	default:
		n := s.av.Len()
		for i := 0; i < n; i++ {
			id := s.av.Get(i)
			if id-uint64(lo) >= uint64(hi-lo) && id != uint64(s.nullID) {
				dst = append(dst, types.ChunkOffset(i))
			}
		}
		return dst
	}
}

func matchOutside[W uint8 | uint16 | uint32 | uint64](data []W, lo, hi, nullID uint64, dst []types.ChunkOffset) []types.ChunkOffset {
	span := hi - lo
	for i, raw := range data {
		id := uint64(raw)
		if id-lo >= span && id != nullID {
			dst = append(dst, types.ChunkOffset(i))
		}
	}
	return dst
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
		if s.nulls != nil {
			for i, null := range s.nulls {
				if null {
					dst = append(dst, types.ChunkOffset(i))
				}
			}
		}
		return dst, PathFrameOfReference, true
	case ScanIsNotNull:
		if s.nulls == nil {
			for i := 0; i < s.n; i++ {
				dst = append(dst, types.ChunkOffset(i))
			}
		} else {
			for i, null := range s.nulls {
				if !null {
					dst = append(dst, types.ChunkOffset(i))
				}
			}
		}
		return dst, PathFrameOfReference, true
	}
	rng, ne, isNe, ok := scanBounds[int64](p)
	if !ok {
		return dst, PathFrameOfReference, false
	}
	if isNe {
		return s.scanNotEqual(ne, dst), PathFrameOfReference, true
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

// scanInterval emits the offsets of non-null rows with value in the closed
// interval [lo, hi], block by block.
func (s *FrameOfReferenceSegment) scanInterval(lo, hi int64, dst []types.ChunkOffset) []types.ChunkOffset {
	for b := range s.frames {
		if s.blockNonNull[b] == 0 {
			continue
		}
		frame := s.frames[b]
		bmax := s.blockMax[b]
		// frame+int64(bmax) wraps in two's complement back to the true block
		// maximum, which is an actual value and therefore fits int64.
		blockTop := frame + int64(bmax)
		if hi < frame || lo > blockTop {
			continue // block range disjoint from the predicate
		}
		first := b * forBlockSize
		last := min(first+forBlockSize, s.n)
		// Rewrite the interval into the offset domain. The subtractions are
		// exact mod 2^64 and both differences lie in [0, 2^64), so the uint64
		// results are the mathematical values.
		loCode := uint64(0)
		if lo > frame {
			loCode = uint64(lo) - uint64(frame)
		}
		hiCode := bmax
		if hi < blockTop {
			hiCode = uint64(hi) - uint64(frame)
		}
		if loCode == 0 && hiCode >= bmax {
			// Whole block inside the predicate: emit without reading codes.
			if s.nulls == nil {
				for i := first; i < last; i++ {
					dst = append(dst, types.ChunkOffset(i))
				}
			} else {
				for i := first; i < last; i++ {
					if !s.nulls[i] {
						dst = append(dst, types.ChunkOffset(i))
					}
				}
			}
			continue
		}
		dst = scanFORBlock(s, first, last, loCode, hiCode, dst)
	}
	return dst
}

// scanFORBlock compares the codes of rows [first, last) against the
// offset-domain interval [loCode, hiCode], resolving the vector type once.
// NULL rows store code 0 and must be excluded explicitly.
func scanFORBlock(s *FrameOfReferenceSegment, first, last int, loCode, hiCode uint64, dst []types.ChunkOffset) []types.ChunkOffset {
	switch ov := s.offsets.(type) {
	case *FixedWidthVector[uint8]:
		return scanFORBlockData(ov.data, s.nulls, first, last, loCode, hiCode, dst)
	case *FixedWidthVector[uint16]:
		return scanFORBlockData(ov.data, s.nulls, first, last, loCode, hiCode, dst)
	case *FixedWidthVector[uint32]:
		return scanFORBlockData(ov.data, s.nulls, first, last, loCode, hiCode, dst)
	case *FixedWidthVector[uint64]:
		return scanFORBlockData(ov.data, s.nulls, first, last, loCode, hiCode, dst)
	case *BP128Vector:
		return matchBP128(ov, first, last, loCode, hiCode-loCode, s.nulls, dst)
	default:
		for i := first; i < last; i++ {
			if s.nulls != nil && s.nulls[i] {
				continue
			}
			if c := s.offsets.Get(i); c-loCode <= hiCode-loCode {
				dst = append(dst, types.ChunkOffset(i))
			}
		}
		return dst
	}
}

func scanFORBlockData[W uint8 | uint16 | uint32 | uint64](data []W, nulls []bool, first, last int, loCode, hiCode uint64, dst []types.ChunkOffset) []types.ChunkOffset {
	span := hiCode - loCode
	if nulls == nil {
		for i := first; i < last; i++ {
			if uint64(data[i])-loCode <= span {
				dst = append(dst, types.ChunkOffset(i))
			}
		}
		return dst
	}
	for i := first; i < last; i++ {
		if nulls[i] {
			continue
		}
		if uint64(data[i])-loCode <= span {
			dst = append(dst, types.ChunkOffset(i))
		}
	}
	return dst
}

// scanNotEqual emits non-null rows whose value differs from v. Blocks whose
// range excludes v emit all their non-null rows without reading codes.
func (s *FrameOfReferenceSegment) scanNotEqual(v int64, dst []types.ChunkOffset) []types.ChunkOffset {
	for b := range s.frames {
		if s.blockNonNull[b] == 0 {
			continue
		}
		frame := s.frames[b]
		blockTop := frame + int64(s.blockMax[b])
		first := b * forBlockSize
		last := min(first+forBlockSize, s.n)
		if v < frame || v > blockTop {
			// v cannot occur in this block: every non-null row matches.
			if s.nulls == nil {
				for i := first; i < last; i++ {
					dst = append(dst, types.ChunkOffset(i))
				}
			} else {
				for i := first; i < last; i++ {
					if !s.nulls[i] {
						dst = append(dst, types.ChunkOffset(i))
					}
				}
			}
			continue
		}
		target := uint64(v) - uint64(frame)
		dst = scanFORBlockNe(s, first, last, target, dst)
	}
	return dst
}

func scanFORBlockNe(s *FrameOfReferenceSegment, first, last int, target uint64, dst []types.ChunkOffset) []types.ChunkOffset {
	switch ov := s.offsets.(type) {
	case *FixedWidthVector[uint8]:
		return scanFORBlockNeData(ov.data, s.nulls, first, last, target, dst)
	case *FixedWidthVector[uint16]:
		return scanFORBlockNeData(ov.data, s.nulls, first, last, target, dst)
	case *FixedWidthVector[uint32]:
		return scanFORBlockNeData(ov.data, s.nulls, first, last, target, dst)
	case *FixedWidthVector[uint64]:
		return scanFORBlockNeData(ov.data, s.nulls, first, last, target, dst)
	case *BP128Vector:
		var buf [64]uint64
		for g := first / 64; g*64 < last; g++ {
			for j, c := range ov.group(g, &buf) {
				if c != target && (s.nulls == nil || !s.nulls[g*64+j]) {
					dst = append(dst, types.ChunkOffset(g*64+j))
				}
			}
		}
		return dst
	default:
		for i := first; i < last; i++ {
			if s.nulls != nil && s.nulls[i] {
				continue
			}
			if s.offsets.Get(i) != target {
				dst = append(dst, types.ChunkOffset(i))
			}
		}
		return dst
	}
}

func scanFORBlockNeData[W uint8 | uint16 | uint32 | uint64](data []W, nulls []bool, first, last int, target uint64, dst []types.ChunkOffset) []types.ChunkOffset {
	if nulls == nil {
		for i := first; i < last; i++ {
			if uint64(data[i]) != target {
				dst = append(dst, types.ChunkOffset(i))
			}
		}
		return dst
	}
	for i := first; i < last; i++ {
		if nulls[i] {
			continue
		}
		if uint64(data[i]) != target {
			dst = append(dst, types.ChunkOffset(i))
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
