// Package statistics implements the optimizer's auxiliary statistics
// (paper §2.1/§2.4): per-column histograms (equal-height, equal-width,
// equal-distinct-count), distinct counts, null fractions, and the
// table-level statistics objects the cardinality estimator consumes.
package statistics

import (
	"math"
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
	// EqualDistinctCount bins hold equal numbers of distinct values.
	EqualDistinctCount
)

// String names the histogram type.
func (t HistogramType) String() string {
	switch t {
	case EqualHeight:
		return "EqualHeight"
	case EqualWidth:
		return "EqualWidth"
	case EqualDistinctCount:
		return "EqualDistinctCount"
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

// BuildHistogram builds a histogram of the given type with at most binCount
// bins from the ascending distinct values of a column and the rows of each.
func BuildHistogram(kind HistogramType, distinct []float64, counts []int, binCount int) *Histogram {
	h := &Histogram{kind: kind}
	if len(distinct) == 0 {
		return h
	}
	if binCount < 1 {
		binCount = 1
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	h.total = float64(total)

	appendBin := func(lo, hi float64, rows, dist int) {
		if dist == 0 {
			return
		}
		h.binLo = append(h.binLo, lo)
		h.binHi = append(h.binHi, hi)
		h.binRows = append(h.binRows, float64(rows))
		h.binDist = append(h.binDist, float64(dist))
	}

	switch kind {
	case EqualWidth:
		minV, maxV := distinct[0], distinct[len(distinct)-1]
		width := (maxV - minV) / float64(binCount)
		if width == 0 {
			appendBin(minV, maxV, total, len(distinct))
			break
		}
		i := 0
		for b := 0; b < binCount; b++ {
			edge := minV + width*float64(b+1)
			if b == binCount-1 {
				edge = math.Inf(1)
			}
			start := i
			rows := 0
			for i < len(distinct) && (distinct[i] < edge || b == binCount-1) {
				rows += counts[i]
				i++
			}
			if i > start {
				appendBin(distinct[start], distinct[i-1], rows, i-start)
			}
		}
	case EqualDistinctCount:
		perBin := (len(distinct) + binCount - 1) / binCount
		for i := 0; i < len(distinct); i += perBin {
			j := min(i+perBin, len(distinct))
			rows := 0
			for _, c := range counts[i:j] {
				rows += c
			}
			appendBin(distinct[i], distinct[j-1], rows, j-i)
		}
	default: // EqualHeight
		targetRows := (total + binCount - 1) / binCount
		i := 0
		for i < len(distinct) {
			start := i
			rows := 0
			for i < len(distinct) && (rows < targetRows || i == start) {
				rows += counts[i]
				i++
			}
			appendBin(distinct[start], distinct[i-1], rows, i-start)
		}
	}
	return h
}

// HistogramOf builds the histogram of one summary: its values embedded in the
// estimation domain, without NaN, which no comparison matches.
func HistogramOf[T types.Ordered](kind HistogramType, sum encoding.Summary[T], binCount int) *Histogram {
	sum, _ = sum.SplitNaN()
	domain := toDomain(sum)
	return BuildHistogram(kind, domain.Values, domain.Counts, binCount)
}

// Kind returns the histogram's bin-splitting strategy.
func (h *Histogram) Kind() HistogramType { return h.kind }

// BinCount returns the number of bins.
func (h *Histogram) BinCount() int { return len(h.binLo) }

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

// Overlaps reports whether some bin holds a value in [lo, hi]. Bin edges are
// values that occur, so a range that overlaps no bin matches no row.
func (h *Histogram) Overlaps(lo, hi float64) bool {
	for i := range h.binLo {
		if h.binHi[i] >= lo && h.binLo[i] <= hi {
			return true
		}
	}
	return false
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
