// Package statistics implements the optimizer's auxiliary statistics
// (paper §2.1/§2.4): per-column histograms (equal-height, equal-width),
// distinct counts, null fractions, and the
// table-level statistics objects the cardinality estimator consumes.
package statistics

import (
	"math"
	"slices"
	"sort"

	"hyrise/internal/encoding"
	"hyrise/internal/types"
)

// HistogramType selects a bin-splitting strategy.
type HistogramType uint8

const (
	// EqualHeight bins hold (approximately) equal row counts.
	EqualHeight HistogramType = iota
	// EqualWidth bins cover equal value ranges.
	EqualWidth
)

// String names the histogram type.
func (t HistogramType) String() string {
	switch t {
	case EqualHeight:
		return "EqualHeight"
	case EqualWidth:
		return "EqualWidth"
	default:
		return "?"
	}
}

// Histogram estimates row counts for predicates over one column. All
// histograms operate on a float64 domain; strings are embedded order-
// preservingly via StringToDomain.
type Histogram struct {
	kind    HistogramType
	binLo   []float64 // inclusive lower edge (actual min value in bin)
	binHi   []float64 // inclusive upper edge (actual max value in bin)
	binRows []float64
	binDist []float64
	total   float64
}

// mergedHistogram lays a histogram with at most binCount bins over the rows of
// runs, summaries without NaN, as it merges them: no merged or projected copy
// is made. It returns the number of distinct values of T and of the estimation
// domain, where ints beyond 2^53 and strings sharing seven bytes are one.
func mergedHistogram[T types.Ordered](kind HistogramType, runs []encoding.Summary[T], binCount int) (h *Histogram, distinct, domain int) {
	b := binner{h: &Histogram{kind: kind}, bins: max(binCount, 1)}
	for _, r := range runs {
		for _, c := range r.Counts {
			b.total += c
		}
	}
	b.h.total = float64(b.total)
	b.target = (b.total + b.bins - 1) / b.bins
	if kind == EqualWidth { // the layout needs the range of the values first
		count := binner{}
		stream(slices.Clone(runs), &count)
		b.minV, b.width = count.lo, (count.hi-count.lo)/float64(b.bins)
	}
	distinct = stream(runs, &b)
	return b.h, distinct, b.distinct
}

// stream merges runs, which it consumes, and feeds their distinct values to b
// in the estimation domain, 256 at a time. It returns how many there are.
func stream[T types.Ordered](runs []encoding.Summary[T], b *binner) (distinct int) {
	m := merger[T]{runs: slices.DeleteFunc(runs, func(r encoding.Summary[T]) bool { return len(r.Values) == 0 })}
	m.play()
	var vals [256]T
	var rows [256]int
	var domain [256]float64
	for len(m.runs) > 0 {
		n := 0
		for ; n < len(vals) && len(m.runs) > 0; n++ {
			w := m.tree[0]
			vals[n], rows[n] = w.v, m.runs[w.run].Counts[0]
			for m.take(); len(m.runs) > 0 && m.tree[0].v == w.v; m.take() {
				rows[n] += m.runs[m.tree[0].run].Counts[0]
			}
		}
		domainOf(vals[:n], domain[:n])
		for i, d := range domain[:n] {
			b.add(d, rows[i])
		}
		distinct += n
	}
	b.close()
	return distinct
}

// domainOf writes ValueToDomain of each of vals to out.
func domainOf[T types.Ordered](vals []T, out []float64) {
	switch vs := any(vals).(type) {
	case []int64:
		for i, v := range vs {
			out[i] = float64(v)
		}
	case []float64:
		copy(out, vs)
	case []string:
		for i, v := range vs {
			out[i] = StringToDomain(v)
		}
	}
}

// merger takes the values of several runs — summaries in ascending order
// without NaN — in ascending order through a loser tree over the runs' next
// values: one comparison per level of the tree for each value taken, against
// the value the node holds. Equal values of several runs are taken one after
// the other.
type merger[T types.Ordered] struct {
	runs []encoding.Summary[T] // the values of each run not yet taken; none empty
	// tree[0] is the run with the smallest next value; tree[n], for the node
	// n of the tree whose leaves k+r are the k runs r, the run that lost the
	// match at n. Each comes with its next value.
	tree []head[T]
}

type head[T types.Ordered] struct {
	v   T
	run int
}

// play lays the tree out afresh over the runs, bottom-up.
func (m *merger[T]) play() {
	k := len(m.runs)
	win := make([]head[T], 2*k) // the winner of each node
	for r, run := range m.runs {
		win[k+r] = head[T]{run.Values[0], r}
	}
	m.tree = append(m.tree[:0], make([]head[T], max(k, 1))...)
	for n := k - 1; n > 0; n-- {
		a, b := win[2*n], win[2*n+1]
		if b.v < a.v {
			a, b = b, a
		}
		win[n], m.tree[n] = a, b
	}
	if k > 0 {
		m.tree[0] = win[1]
	}
}

// take advances the winning run by one value and replays its matches; a run
// that runs out leaves the tree, which is laid out again without it.
func (m *merger[T]) take() {
	w := m.tree[0].run
	r := &m.runs[w]
	if r.Values, r.Counts = r.Values[1:], r.Counts[1:]; len(r.Values) == 0 {
		m.runs = slices.Delete(m.runs, w, w+1)
		m.play()
		return
	}
	up := head[T]{r.Values[0], w}
	for n := (w + len(m.runs)) / 2; n > 0; n /= 2 {
		if l := m.tree[n]; l.v < up.v {
			m.tree[n], up = up, l
		}
	}
	m.tree[0] = up
}

// binner lays a histogram's bins over a column's ascending values as they are
// fed, a value equal to the last one adding to its rows. A bin closes before
// the value that would overfill it: at target rows (EqualHeight) or the next of
// bins edges width apart from minV (EqualWidth). Without a histogram it counts
// the values, all in one open bin.
type binner struct {
	h                   *Histogram
	bins, total, target int
	bin                 int // the EqualWidth bin that is open
	minV, width         float64
	lo, hi              float64 // the open bin
	rows, dist          int
	distinct            int // values fed
}

func (b *binner) add(v float64, rows int) {
	if b.dist > 0 && v == b.hi {
		b.rows += rows
		return
	}
	b.distinct++
	switch {
	case b.h == nil:
	case b.h.kind == EqualWidth:
		for b.width != 0 && b.bin < b.bins-1 && !(v < b.minV+b.width*float64(b.bin+1)) {
			b.close()
			b.bin++
		}
	case b.h.kind == EqualHeight && b.dist > 0 && b.rows >= b.target:
		b.close()
	}
	if b.dist == 0 {
		b.lo = v
	}
	b.hi, b.rows, b.dist = v, b.rows+rows, b.dist+1
}

// close appends the open bin, if it holds a value, to the histogram.
func (b *binner) close() {
	if b.dist == 0 || b.h == nil {
		return
	}
	h := b.h
	h.binLo, h.binHi = append(h.binLo, b.lo), append(h.binHi, b.hi)
	h.binRows, h.binDist = append(h.binRows, float64(b.rows)), append(h.binDist, float64(b.dist))
	b.rows, b.dist = 0, 0
}

// bounds returns the smallest and largest value the histogram covers: bin
// edges are values that occur, so these are the column's exact Min and Max.
// A histogram of no rows (empty or all-NULL column) has the empty range 0, 0.
func (h *Histogram) bounds() (lo, hi float64) {
	if n := len(h.binLo); n > 0 {
		return h.binLo[0], h.binHi[n-1]
	}
	return 0, 0
}

// clone returns a copy that shares no bin storage with h.
func (h *Histogram) clone() *Histogram {
	return &Histogram{
		kind:    h.kind,
		binLo:   append([]float64(nil), h.binLo...),
		binHi:   append([]float64(nil), h.binHi...),
		binRows: append([]float64(nil), h.binRows...),
		binDist: append([]float64(nil), h.binDist...),
		total:   h.total,
	}
}

// add counts rows more rows of value v and reports whether v is certainly a
// value the histogram had not seen: one outside every bin, which stretches
// the nearer neighbouring bin's edge to v. The bin layout is otherwise kept,
// whatever the kind — the next full build lays the bins out afresh.
func (h *Histogram) add(v float64, rows int) (fresh bool) {
	n := len(h.binLo)
	i := sort.SearchFloat64s(h.binHi, v) // first bin whose upper edge is >= v
	if fresh = i == n || v < h.binLo[i]; fresh {
		switch {
		case n == 0:
			h.binLo, h.binHi = append(h.binLo, v), append(h.binHi, v)
			h.binRows, h.binDist = append(h.binRows, 0), append(h.binDist, 0)
		case i == n || (i > 0 && v-h.binHi[i-1] < h.binLo[i]-v):
			i--
			h.binHi[i] = v
		default:
			h.binLo[i] = v
		}
		h.binDist[i]++
	}
	h.binRows[i] += float64(rows)
	h.total += float64(rows)
	return fresh
}

// EstimateEquals estimates the rows equal to v (uniformity within bins).
func (h *Histogram) EstimateEquals(v float64) float64 {
	for i := range h.binLo {
		if v >= h.binLo[i] && v <= h.binHi[i] {
			return h.binRows[i] / h.binDist[i]
		}
	}
	return 0
}

// EstimateRange estimates the rows in [lo, hi]. Use math.Inf for open
// bounds.
func (h *Histogram) EstimateRange(lo, hi float64) float64 {
	if lo > hi {
		return 0
	}
	totalEst := 0.0
	for i := range h.binLo {
		bLo, bHi := h.binLo[i], h.binHi[i]
		if bHi < lo || bLo > hi {
			continue
		}
		if bLo >= lo && bHi <= hi {
			totalEst += h.binRows[i]
			continue
		}
		oLo, oHi := math.Max(bLo, lo), math.Min(bHi, hi)
		if bHi == bLo {
			totalEst += h.binRows[i]
			continue
		}
		frac := (oHi - oLo) / (bHi - bLo)
		// At least one distinct value's worth if the overlap is non-empty.
		est := frac * h.binRows[i]
		if est < h.binRows[i]/h.binDist[i] {
			est = h.binRows[i] / h.binDist[i]
		}
		totalEst += est
	}
	return totalEst
}

// StringToDomain embeds a string order-preservingly into the float64
// domain via its first seven bytes, read as digits in base 257 where an
// absent position is 0 and byte b is b+1. Reserving 0 for "past the end"
// keeps prefixes strictly below their extensions ("a" < "a\x00"), which a
// plain zero-pad would collapse. Strings sharing a 7-byte prefix still
// collapse, which is acceptable for selectivity estimation. The result
// stays below 257^7 < 2^57; uint64→float64 conversion is monotone there,
// so ordering is preserved.
func StringToDomain(s string) float64 {
	var u uint64
	for i := 0; i < 7; i++ {
		var d uint64
		if i < len(s) {
			d = uint64(s[i]) + 1
		}
		u = u*257 + d
	}
	return float64(u)
}
