package storage

import (
	"math"
	"strings"
	"unsafe"

	"hyrise/internal/types"
)

// Zone is what a chunk of a stored table knows about one column without
// reading it (paper §2.4: the access aids a chunk carries): the bounds of its
// values, how far the column ascends and, once a seal has summarized a
// numeric column, the bins of its range filter. Bounds and run are written
// where the values are written and nowhere else — Chunk.appendRow folds each
// new value in, Chunk.overwriteRow widens the bounds and cuts the run back —
// so they hold on the mutable tail, under out-of-order log replay and on
// replicas, and re-encoding a segment (ReplaceSegment) leaves the zone alone. Chunks installed
// whole (snapshot restore) get theirs from one pass in Table.AppendChunk;
// operator outputs (NewChunk without a table) carry none.
type Zone struct {
	// Min and Max bound every comparable value of the column: the non-NULL
	// ones and, of those, not NaN, which no comparison matches. Both are NULL
	// while the chunk holds no comparable value. The bounds may be wider than
	// the rows (an overwritten placeholder stays inside them), never narrower.
	Min, Max types.Value
	// Ascending is the length of the leading run of comparable, non-decreasing
	// rows: a predicate over rows [0, Ascending) is two binary searches.
	Ascending int
	// Bins are the range filter (paper §2.4, after adaptive range filters):
	// sorted, disjoint closed intervals of the float domain, each bounded by
	// values the column holds, that together hold every comparable value, so
	// the gaps between them hold none. nil until the chunk's seal derives
	// them (Chunk.SetBins), non-nil and empty when there is no such value.
	Bins [][2]float64
}

// ZonedSegment is implemented by the encoded segments: each derives its zone
// from what the encoding already knows (dictionary ends, block frames, run
// values) plus one monotonicity pass over codes or runs that stops at the
// first descent.
type ZonedSegment interface {
	Zone() Zone
}

// Excludes reports that no row of the zone's column lies in [lo, hi] (nil =
// open end): the interval ends outside the bounds or, for numeric operands,
// falls into a gap between the bins. NULL and NaN rows are in no interval, so
// a zone without bounds excludes every interval; operands the bounds cannot
// be compared with exclude nothing.
func (z Zone) Excludes(lo, hi *types.Value) bool {
	if z.Min.IsNull() {
		return true
	}
	if hi != nil {
		if c, ok := types.Compare(*hi, z.Min); ok && c < 0 {
			return true
		}
	}
	if lo != nil {
		if c, ok := types.Compare(*lo, z.Max); ok && c > 0 {
			return true
		}
	}
	if z.Bins == nil || lo != nil && !lo.Type.IsNumeric() || hi != nil && !hi.Type.IsNumeric() {
		return false
	}
	loF, hiF := math.Inf(-1), math.Inf(1)
	if lo != nil {
		loF = lo.AsFloat()
	}
	if hi != nil {
		hiF = hi.AsFloat()
	}
	// The first bin that reaches loF is the only one that can start by hiF; a
	// NaN operand reaches or starts by none.
	for _, b := range z.Bins {
		if b[1] >= loF {
			return !(b[0] <= hiF)
		}
	}
	return true
}

// memoryUsage is the zone's heap footprint: the struct, the two strings it
// holds copies of, and the bins.
func (z Zone) memoryUsage() int64 {
	return int64(unsafe.Sizeof(z)) + int64(len(z.Min.S)+len(z.Max.S)) + 16*int64(len(z.Bins))
}

// include widens the bounds by v and reports whether v is comparable and no
// smaller than every value before it. lo and hi are the fields of z.Min and
// z.Max that hold a T, so the compares are typed; a NaN fails them all.
func include[T types.Ordered](z *Zone, lo, hi *T, v T) bool {
	if z.Min.Type == types.TypeNull {
		if v != v {
			return false
		}
		z.Min.Type, z.Max.Type = types.Native[T](), types.Native[T]()
		*lo, *hi = v, v
		return true
	}
	if v >= *hi {
		*hi = v
		return true
	}
	if v < *lo {
		*lo = v
	}
	return false
}

// appendTo adds (v, null) as row row of the column — to its segment and, in
// the same breath, to its zone. While every row so far is in the ascending
// run, Max is the row before this one, so "no smaller than every value
// before" extends the run.
func appendTo[T types.Ordered](s *ValueSegment[T], z *Zone, lo, hi *T, row int, v T, null bool) {
	s.Append(v, null)
	if !null && include(z, lo, hi, v) && z.Ascending == row {
		z.Ascending++
	}
}

// includeString is include for a string the zone must not keep — it outlives
// the caller's buffer and the tail's blob: a bound it moves is a copy of it,
// one it meets is itself.
func includeString(z *Zone, v string) bool {
	switch {
	case z.Min.Type == types.TypeNull || v < z.Min.S || v > z.Max.S:
		v = strings.Clone(v)
	case v == z.Max.S:
		v = z.Max.S
	}
	return include(z, &z.Min.S, &z.Max.S, v)
}

// overwritten folds in the value that replaced row's: the bounds widen (the
// old value stays inside them) and the run ends before the row at the latest.
func (z *Zone) overwritten(row int, v types.Value) {
	switch v.Type {
	case types.TypeInt64:
		include(z, &z.Min.I, &z.Max.I, v.I)
	case types.TypeFloat64:
		include(z, &z.Min.F, &z.Max.F, v.F)
	case types.TypeString:
		includeString(z, v.S)
	}
	z.Ascending = min(z.Ascending, row)
}

// ZoneOf is the typed pass over an unencoded column (nulls may be nil).
func ZoneOf[T types.Ordered](vals []T, nulls []bool) Zone {
	var z Zone
	lo, hi := ends[T](&z)
	for i, v := range vals {
		if (nulls == nil || !nulls[i]) && include(&z, lo, hi, v) && z.Ascending == i {
			z.Ascending++
		}
	}
	return z
}

// ends returns the fields of z.Min and z.Max that hold a T.
func ends[T types.Ordered](z *Zone) (lo, hi *T) {
	switch any(lo).(type) {
	case *int64:
		return any(&z.Min.I).(*T), any(&z.Max.I).(*T)
	case *float64:
		return any(&z.Min.F).(*T), any(&z.Max.F).(*T)
	default:
		return any(&z.Min.S).(*T), any(&z.Max.S).(*T)
	}
}

// zonesOf computes the zone of every segment of a chunk that is installed
// whole. A segment of a kind that cannot say (reference segments: operator
// output) leaves the chunk without zones.
func zonesOf(segments []Segment) []Zone {
	zones := make([]Zone, len(segments))
	for i, seg := range segments {
		switch s := seg.(type) {
		case *ValueSegment[int64]:
			zones[i] = ZoneOf(s.values, s.nulls)
		case *ValueSegment[float64]:
			zones[i] = ZoneOf(s.values, s.nulls)
		case *StringSegment:
			zones[i] = s.zone()
		case ZonedSegment:
			zones[i] = s.Zone()
		default:
			return nil
		}
	}
	return zones
}
