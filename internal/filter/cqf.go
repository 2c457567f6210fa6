package filter

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/bits"

	"hyrise/internal/encoding"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// DefaultRemainderBits is the fingerprint remainder width. 8 bits yields a
// false-positive rate around 2^-8 per probe at moderate load factors.
const DefaultRemainderBits = 8

// CountingQuotientFilter is an approximate-membership filter (paper §2.4,
// citing Pandey et al. [37]). A value's hash is split into a q-bit quotient
// (the canonical slot) and an r-bit remainder stored in the slot. Three
// metadata bits per slot (occupied, continuation, shifted) encode runs so
// colliding quotients shift right within a cluster, like robin-hood linear
// probing that preserves run order. Duplicate insertions store repeated
// remainders, so the filter also estimates occurrence counts — that is the
// "counting" part used for selectivity estimation.
type CountingQuotientFilter struct {
	col        types.ColumnID
	qbits      uint // log2 of slot count
	rbits      uint // remainder width
	remainders []uint64
	occupied   []bool
	contin     []bool
	shifted    []bool
	size       int // inserted elements
}

// NewCountingQuotientFilter builds a CQF over a segment's non-NULL values,
// sized to a load factor of at most ~0.6.
func NewCountingQuotientFilter(seg storage.Segment, col types.ColumnID, remainderBits uint) *CountingQuotientFilter {
	n := seg.Len()
	qbits := uint(bits.Len64(uint64(max(n, 1)))) + 1 // >= 2n slots
	f := &CountingQuotientFilter{
		col:        col,
		qbits:      qbits,
		rbits:      remainderBits,
		remainders: make([]uint64, 1<<qbits),
		occupied:   make([]bool, 1<<qbits),
		contin:     make([]bool, 1<<qbits),
		shifted:    make([]bool, 1<<qbits),
	}
	switch seg.DataType() {
	case types.TypeInt64:
		insertAll(f, encoding.Summarize[int64](seg))
	case types.TypeFloat64:
		insertAll(f, encoding.Summarize[float64](seg))
	default:
		insertAll(f, encoding.Summarize[string](seg))
	}
	return f
}

// insertAll adds one fingerprint per row: each distinct value is hashed once
// and inserted as often as it occurs.
func insertAll[T types.Ordered](f *CountingQuotientFilter, sum encoding.Summary[T]) {
	for i, v := range sum.Values {
		hash := hashValue(types.FromNative(v))
		for range sum.Counts[i] {
			f.insert(hash)
		}
	}
}

// hashValue produces a 64-bit hash of the canonical bytes of a value.
// Integral floats hash like their integer value so that cross-type numeric
// probes (WHERE int_col = 5.0) find their fingerprints.
func hashValue(v types.Value) uint64 {
	h := fnv.New64a()
	var b [8]byte
	switch v.Type {
	case types.TypeInt64:
		binary.LittleEndian.PutUint64(b[:], uint64(v.I))
		_, _ = h.Write(b[:])
	case types.TypeFloat64:
		if v.F == math.Trunc(v.F) && v.F >= math.MinInt64 && v.F <= math.MaxInt64 {
			binary.LittleEndian.PutUint64(b[:], uint64(int64(v.F)))
		} else {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.F))
		}
		_, _ = h.Write(b[:])
	case types.TypeString:
		_, _ = h.Write([]byte(v.S))
	}
	return h.Sum64()
}

func (f *CountingQuotientFilter) split(hash uint64) (q uint64, r uint64) {
	q = (hash >> f.rbits) & ((1 << f.qbits) - 1)
	r = hash & ((1 << f.rbits) - 1)
	return q, r
}

func (f *CountingQuotientFilter) isEmptySlot(i uint64) bool {
	return !f.occupied[i] && !f.contin[i] && !f.shifted[i]
}

func (f *CountingQuotientFilter) next(i uint64) uint64 { return (i + 1) & ((1 << f.qbits) - 1) }
func (f *CountingQuotientFilter) prev(i uint64) uint64 {
	return (i - 1) & ((1 << f.qbits) - 1)
}

// findRunStart locates the first slot of the run belonging to quotient q.
// Precondition: occupied[q].
func (f *CountingQuotientFilter) findRunStart(q uint64) uint64 {
	// Walk left to the cluster start (first unshifted slot).
	b := q
	for f.shifted[b] {
		b = f.prev(b)
	}
	// Walk right again: each occupied canonical slot between cluster start
	// and q corresponds to one run.
	s := b
	for b != q {
		// Advance s to the start of the next run.
		for {
			s = f.next(s)
			if !f.contin[s] {
				break
			}
		}
		// Advance b to the next occupied canonical slot.
		for {
			b = f.next(b)
			if f.occupied[b] {
				break
			}
		}
	}
	return s
}

// insert adds one fingerprint. Duplicates are stored as repeated remainders
// within their run (the counting mechanism). The occupied bit is a property
// of the canonical slot and never moves during shifting; the
// (remainder, continuation, shifted) triple is the element that shifts.
func (f *CountingQuotientFilter) insert(hash uint64) {
	q, r := f.split(hash)
	f.size++

	if f.isEmptySlot(q) {
		f.remainders[q] = r
		f.occupied[q] = true
		return
	}

	wasOccupied := f.occupied[q]
	f.occupied[q] = true

	start := f.findRunStart(q)
	s := start
	elemContin := false

	if wasOccupied {
		// The run exists: advance s to the sorted insert position.
		for {
			if f.remainders[s] >= r {
				break
			}
			nxt := f.next(s)
			if !f.contin[nxt] {
				s = nxt // insert after the last run element
				break
			}
			s = nxt
		}
		if s == start {
			// New element becomes the run head; old head turns into a
			// continuation (it keeps its slot content until shifted below).
			f.contin[start] = true
		} else {
			elemContin = true
		}
	}

	// Insert the element at s, shifting subsequent elements right until an
	// empty slot absorbs the displacement.
	curR, curC, curS := r, elemContin, s != q
	i := s
	for {
		empty := f.isEmptySlot(i)
		prevR, prevC := f.remainders[i], f.contin[i]
		f.remainders[i], f.contin[i], f.shifted[i] = curR, curC, curS
		if empty {
			break
		}
		curR, curC, curS = prevR, prevC, true
		i = f.next(i)
	}
}

// Count returns the number of stored fingerprints matching v's hash — an
// upper bound on the number of rows equal to v (hash collisions inflate it).
func (f *CountingQuotientFilter) Count(v types.Value) int {
	q, r := f.split(hashValue(v))
	if !f.occupied[q] {
		return 0
	}
	i := f.findRunStart(q)
	count := 0
	for {
		if f.remainders[i] == r {
			count++
		}
		if f.remainders[i] > r {
			break // run is sorted
		}
		i = f.next(i)
		if !f.contin[i] {
			break
		}
	}
	return count
}

// Size returns the number of inserted elements.
func (f *CountingQuotientFilter) Size() int { return f.size }

// FilterType implements storage.ChunkFilter.
func (f *CountingQuotientFilter) FilterType() string { return "CQF" }

// ColumnID implements storage.ChunkFilter.
func (f *CountingQuotientFilter) ColumnID() types.ColumnID { return f.col }

// CanPruneEquals implements storage.ChunkFilter: prune when the fingerprint
// is definitely absent.
func (f *CountingQuotientFilter) CanPruneEquals(v types.Value) bool {
	if v.IsNull() {
		return false
	}
	return f.Count(v) == 0
}

// CanPruneRange implements storage.ChunkFilter. Quotient filters hash their
// input, so they cannot prune ranges.
func (f *CountingQuotientFilter) CanPruneRange(lo, hi *types.Value) bool { return false }

// MemoryUsage implements storage.ChunkFilter. A production CQF packs
// remainder and metadata bits; we report the packed size ((r+3) bits per
// slot) because that is the structure's information content, which is what
// the paper's space argument is about.
func (f *CountingQuotientFilter) MemoryUsage() int64 {
	slots := int64(1) << f.qbits
	return slots * int64(f.rbits+3) / 8
}
