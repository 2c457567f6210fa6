package encoding

import (
	"cmp"
	"maps"
	"math"
	"slices"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Summary is what the load → first-plan path reads of a segment: its distinct
// non-NULL values in ascending order, the rows holding each, and its NULLs.
// Dictionary encoding, the range filter's bins and the optimizer's statistics are
// all derived from it, so none of them looks at a row.
//
// Floats have one total order here: -0 and +0 are one value (either may stand
// for it), and all NaNs are one value that sorts after every number — `<`
// alone orders neither, and a dictionary built on it is not sorted.
//
// Values may be the dictionary of the segment itself: read, never written.
type Summary[T types.Ordered] struct {
	Values []T
	Counts []int // Counts[i] rows hold Values[i]
	Nulls  int
}

// SplitNaN returns the summary without the NaN value and the rows that hold
// it. No comparison matches NaN, so bounds and bins are laid over the rest.
func (s Summary[T]) SplitNaN() (Summary[T], int) {
	last := len(s.Values) - 1
	if last < 0 || s.Values[last] == s.Values[last] {
		return s, 0
	}
	return Summary[T]{Values: s.Values[:last], Counts: s.Counts[:last], Nulls: s.Nulls}, s.Counts[last]
}

// Summarize summarizes a whole segment: a dictionary segment by one counting
// pass over its codes, a run-length segment by its runs, any other by grouping
// its values. T must match the segment's data type.
func Summarize[T types.Ordered](seg storage.Segment) Summary[T] {
	return SummarizeRows[T](seg, 0, seg.Len())
}

// SummarizeRows summarizes rows [lo, hi) of a segment. Only a whole segment
// can be read off its encoding or decoded in bulk; a part of an encoded one is
// gathered first.
func SummarizeRows[T types.Ordered](seg storage.Segment, lo, hi int) Summary[T] {
	whole := lo == 0 && hi == seg.Len()
	switch s := seg.(type) {
	case *storage.ValueSegment[T]:
		vals, nulls := s.Values()[lo:hi], s.Nulls()
		if nulls != nil {
			nulls = nulls[lo:hi]
		}
		return groupValues(vals, nulls, nil)
	case *storage.StringSegment:
		nulls := s.Nulls()
		if nulls != nil {
			nulls = nulls[lo:hi]
		}
		return groupValues(any(s.Strings(lo, hi)).([]T), nulls, nil)
	case *DictionarySegment[T]:
		if whole {
			return s.summary()
		}
	case *RunLengthSegment[T]:
		if whole {
			return s.summary()
		}
	case *FrameOfReferenceSegment, *DecimalSegment:
		if whole {
			vals, nulls := Materialize[T](seg)
			return groupValues(vals, nulls, nil)
		}
	}
	pos := make([]types.ChunkOffset, hi-lo)
	for i := range pos {
		pos[i] = types.ChunkOffset(lo + i)
	}
	vals, nulls := MaterializePositions[T](seg, pos)
	return groupValues(vals, nulls, nil)
}

// groupValues summarizes raw values (nulls may be nil). With codes non-nil
// (one per value) it also writes every row's value id — the index of its value
// in the summary, the number of distinct values for a NULL — which makes the
// summary a dictionary and codes its attribute vector. The first row of a
// value stands for it: it picks which -0 or NaN payload the summary holds.
//
// Strings, where a comparison costs more than a hash, and unsorted numbers of
// at most smallGroups distinct values are grouped by a map (hashGroups). Other
// numbers are grouped in ascending order (groupRows): as they are if they
// ascend already, else radix-sorted.
func groupValues[T types.Ordered](values []T, nulls []bool, codes []uint64) Summary[T] {
	switch any(values).(type) {
	case []int64, []float64:
	default:
		sum, _ := hashGroups(values, nulls, codes, math.MaxInt)
		return sum
	}
	sorted := ascending(values, nulls)
	if !sorted {
		if sum, ok := hashGroups(values, nulls, codes, smallGroups); ok {
			return sum
		}
	}
	return groupRows(values, nulls, orderedRows(values, nulls, sorted), codes)
}

// ascending reports that the non-NULL values never decrease in the summary's
// order.
func ascending[T types.Ordered](values []T, nulls []bool) bool {
	prev := -1
	for i, v := range values {
		if nulls != nil && nulls[i] {
			continue
		}
		if prev >= 0 && compareTotal(values[prev], v) > 0 {
			return false
		}
		prev = i
	}
	return true
}

// orderedRows lists the non-NULL rows in ascending order of their numbers, the
// rows of one value in row order: as they come if the values ascend, else
// radix-sorted by keys whose unsigned order is the summary's (one key for -0
// and +0, the largest for every NaN).
func orderedRows[T types.Ordered](values []T, nulls []bool, ascending bool) []uint32 {
	rows := make([]uint32, 0, len(values))
	for i := range values {
		if nulls == nil || !nulls[i] {
			rows = append(rows, uint32(i))
		}
	}
	if ascending {
		return rows
	}
	keys := make([]uint64, len(rows))
	switch vs := any(values).(type) {
	case []int64:
		for i, r := range rows {
			keys[i] = uint64(vs[r]) ^ 1<<63
		}
	case []float64:
		for i, r := range rows {
			b := math.Float64bits(vs[r] + 0) // -0 + 0 is +0
			if keys[i] = b ^ (uint64(int64(b)>>63) | 1<<63); vs[r] != vs[r] {
				keys[i] = math.MaxUint64
			}
		}
	}
	return radixSort(keys, rows)
}

// groupRows is groupValues over the non-NULL rows listed in ascending order of
// their values: the distinct values are the runs of equal ones (all NaNs one
// value), counted first so that the summary holds exactly them.
func groupRows[T types.Ordered](values []T, nulls []bool, rows []uint32, codes []uint64) Summary[T] {
	startsRun := func(j int) bool {
		if j == 0 {
			return true
		}
		a, b := values[rows[j-1]], values[rows[j]]
		return a != b && (a == a || b == b)
	}
	runs := 0
	for j := range rows {
		if startsRun(j) {
			runs++
		}
	}
	sum := Summary[T]{Values: make([]T, 0, runs), Counts: make([]int, 0, runs), Nulls: len(values) - len(rows)}
	for j, r := range rows {
		if startsRun(j) {
			sum.Values, sum.Counts = append(sum.Values, values[r]), append(sum.Counts, 0)
		}
		sum.Counts[len(sum.Counts)-1]++
		if codes != nil {
			codes[r] = uint64(len(sum.Values) - 1)
		}
	}
	for i, null := range nulls {
		if null && codes != nil {
			codes[i] = uint64(runs)
		}
	}
	return sum
}

// radixSort sorts rows by their keys, a least-significant-digit radix sort
// over the keys' bytes. It is stable, so the rows of one key stay in order,
// and it skips the bytes every key shares.
func radixSort(keys []uint64, rows []uint32) []uint32 {
	var counts [8][256]uint32 // rows of a segment fit a ChunkOffset
	var differ uint64         // the bits in which some key differs from the first
	for _, k := range keys {
		differ |= k ^ keys[0]
		for b := range counts {
			counts[b][byte(k>>(8*b))]++
		}
	}
	tmpKeys, tmpRows := make([]uint64, len(keys)), make([]uint32, len(rows))
	for b := range counts {
		shift, at := 8*b, &counts[b]
		if byte(differ>>shift) == 0 {
			continue
		}
		next := uint32(0)
		for d, c := range at {
			at[d], next = next, next+c
		}
		for i, k := range keys {
			d := byte(k >> shift)
			tmpKeys[at[d]], tmpRows[at[d]] = k, rows[i]
			at[d]++
		}
		keys, rows, tmpKeys, tmpRows = tmpKeys, tmpRows, keys, rows
	}
	return rows
}

// smallGroups is the most distinct numbers hashGroups keeps in its map: a map
// that small stays in cache and beats the radix sort's passes over the rows.
const smallGroups = 256

// groupSample is how many rows hashGroups reads before it makes room for the
// distinct values it expects: those it has, and new ones in the other rows at
// the rate the second half of the sample brought them.
const groupSample = 1024

// hashGroups is groupValues by a map: one map operation per row, then one
// typed sort over the distinct values only. It gives up (ok false) at the
// (limit+1)-th distinct value.
func hashGroups[T types.Ordered](values []T, nulls []bool, codes []uint64, limit int) (sum Summary[T], ok bool) {
	var (
		vals  []T   // the distinct numbers, by id: in order of first appearance
		rows  []int // by id
		idOf  = make(map[T]int)
		nan   T
		nanID = -1 // NaN is no map key and is not sorted with the numbers
		half  int  // the distinct values in the first half of the sample
	)
	const null = ^uint64(0)
	for i, v := range values {
		switch i {
		case groupSample / 2:
			half = len(rows)
		case groupSample:
			if room := min(limit, len(rows)+(len(rows)-half)*(len(values)-i)/(groupSample/2)); room > len(rows) {
				grown := make(map[T]int, room)
				maps.Copy(grown, idOf)
				idOf, vals, rows = grown, slices.Grow(vals, room-len(vals)), slices.Grow(rows, room-len(rows))
			}
		}
		if nulls != nil && nulls[i] {
			sum.Nulls++
			if codes != nil {
				codes[i] = null
			}
			continue
		}
		id, ok := idOf[v]
		if v != v {
			id, ok = nanID, nanID >= 0
		}
		if !ok {
			if id = len(rows); id == limit {
				return Summary[T]{}, false
			}
			rows = append(rows, 0)
			if v != v {
				nan, nanID = v, id
			} else {
				vals, idOf[v] = append(vals, v), id
			}
		}
		rows[id]++
		if codes != nil {
			codes[i] = uint64(id)
		}
	}
	slices.Sort(vals)
	sum.Values, sum.Counts = make([]T, len(rows)), make([]int, len(rows))
	valueID := make([]uint64, len(rows)) // by id
	for i, v := range vals {
		id := idOf[v]
		sum.Values[i], sum.Counts[i], valueID[id] = v, rows[id], uint64(i)
	}
	if last := len(rows) - 1; nanID >= 0 {
		sum.Values[last], sum.Counts[last], valueID[nanID] = nan, rows[nanID], uint64(last)
	}
	for i, id := range codes {
		if id == null {
			codes[i] = uint64(len(rows))
		} else {
			codes[i] = valueID[id]
		}
	}
	return sum, true
}

// summary reads a dictionary segment without decoding its rows: the dictionary
// is the distinct values (a string one handed out as substrings of its blob, or
// of the arena a packed one decodes into), and one pass over the attribute
// vector counts the rows of each code (the NULL id included).
func (s *DictionarySegment[T]) summary() Summary[T] {
	values := s.dict
	if _, ok := any(values).([]string); ok {
		values = any(s.strs.values()).([]T)
	}
	counts := make([]int, s.nullID+1)
	s.av.count(counts)
	return Summary[T]{Values: values, Counts: counts[:s.nullID], Nulls: counts[s.nullID]}
}

// summary aggregates the runs of a run-length segment: sorted by value, runs
// of one value add up.
func (s *RunLengthSegment[T]) summary() Summary[T] {
	type run struct {
		v    T
		rows int
	}
	var sum Summary[T]
	runs := make([]run, 0, len(s.values))
	s.ForEachRun(func(first, last types.ChunkOffset, v T, null bool) {
		if rows := int(last-first) + 1; null {
			sum.Nulls += rows
		} else {
			runs = append(runs, run{v, rows})
		}
	})
	slices.SortFunc(runs, func(a, b run) int { return compareTotal(a.v, b.v) })
	for i, r := range runs {
		if i == 0 || compareTotal(r.v, runs[i-1].v) != 0 {
			sum.Values, sum.Counts = append(sum.Values, r.v), append(sum.Counts, 0)
		}
		sum.Counts[len(sum.Counts)-1] += r.rows
	}
	return sum
}

// compareTotal orders a and b by the total order of Summary.
func compareTotal[T types.Ordered](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	return cmp.Compare(b, a) // a NaN: cmp sorts it first, this order last
}
