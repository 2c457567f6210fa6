package statistics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"hyrise/internal/encoding"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// histogramOf builds a histogram from a value → rows map.
func histogramOf(kind HistogramType, counts map[float64]int, binCount int) *Histogram {
	distinct, rows := sortedCounts(counts)
	h, _, _ := mergedHistogram(kind, []encoding.Summary[float64]{{Values: distinct, Counts: rows}}, binCount)
	return h
}

// sortedCounts lists the values of a value → rows map in ascending order, and
// the rows of each.
func sortedCounts(counts map[float64]int) (distinct []float64, rows []int) {
	distinct = make([]float64, 0, len(counts))
	for v := range counts {
		distinct = append(distinct, v)
	}
	sort.Float64s(distinct)
	rows = make([]int, len(distinct))
	for i, v := range distinct {
		rows[i] = counts[v]
	}
	return distinct, rows
}

// refHistogram lays at most binCount bins over a column's materialized
// ascending distinct values and the rows of each: the reference the row path
// builds with, against which the streaming builder is compared.
func refHistogram(kind HistogramType, counts map[float64]int, binCount int) *Histogram {
	distinct, rows := sortedCounts(counts)
	h := &Histogram{kind: kind}
	if len(distinct) == 0 {
		return h
	}
	if binCount < 1 {
		binCount = 1
	}
	total := 0
	for _, c := range rows {
		total += c
	}
	h.total = float64(total)

	appendBin := func(lo, hi float64, rows, dist int) {
		h.binLo = append(h.binLo, lo)
		h.binHi = append(h.binHi, hi)
		h.binRows = append(h.binRows, float64(rows))
		h.binDist = append(h.binDist, float64(dist))
	}
	binRows := func(i, j int) (n int) {
		for _, c := range rows[i:j] {
			n += c
		}
		return n
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
			start := i
			for i < len(distinct) && (distinct[i] < edge || b == binCount-1) {
				i++
			}
			if i > start {
				appendBin(distinct[start], distinct[i-1], binRows(start, i), i-start)
			}
		}
	default: // EqualHeight
		targetRows := (total + binCount - 1) / binCount
		i := 0
		for i < len(distinct) {
			start, n := i, 0
			for i < len(distinct) && (n < targetRows || i == start) {
				n += rows[i]
				i++
			}
			appendBin(distinct[start], distinct[i-1], n, i-start)
		}
	}
	return h
}

func uniformCounts(n, copies int) map[float64]int {
	m := make(map[float64]int, n)
	for i := 0; i < n; i++ {
		m[float64(i)] = copies
	}
	return m
}

func TestHistogramTypesBasics(t *testing.T) {
	counts := uniformCounts(100, 10) // 0..99, 10 rows each, 1000 rows
	for _, kind := range []HistogramType{EqualHeight, EqualWidth} {
		h := histogramOf(kind, counts, 10)
		if h.kind != kind {
			t.Errorf("%v: Kind wrong", kind)
		}
		if len(h.binLo) < 5 || len(h.binLo) > 20 {
			t.Errorf("%v: %d bins", kind, len(h.binLo))
		}
		if h.total != 1000 {
			t.Errorf("%v: total = %f", kind, h.total)
		}
		if got := h.EstimateEquals(42); got < 5 || got > 20 {
			t.Errorf("%v: EstimateEquals(42) = %f, want ~10", kind, got)
		}
		if got := h.EstimateEquals(-5); got != 0 {
			t.Errorf("%v: EstimateEquals(absent) = %f", kind, got)
		}
		if got := h.EstimateRange(0, 49); got < 350 || got > 650 {
			t.Errorf("%v: EstimateRange(0,49) = %f, want ~500", kind, got)
		}
		if got := h.EstimateRange(math.Inf(-1), math.Inf(1)); math.Abs(got-1000) > 1 {
			t.Errorf("%v: full range = %f, want 1000", kind, got)
		}
		if got := h.EstimateRange(10, 5); got != 0 {
			t.Errorf("%v: inverted range = %f", kind, got)
		}
	}
}

func TestHistogramSkewedData(t *testing.T) {
	counts := map[float64]int{1: 1000, 2: 1, 3: 1, 100: 1}
	// Equal-height puts the heavy hitter alone in its bin, so its estimate
	// is much better than equal-width's average.
	eh := histogramOf(EqualHeight, counts, 4)
	if got := eh.EstimateEquals(1); got < 500 {
		t.Errorf("EqualHeight EstimateEquals(1) = %f, want >= 500", got)
	}
	ew := histogramOf(EqualWidth, counts, 4)
	// Equal-width still sums correctly over the whole domain.
	if got := ew.EstimateRange(math.Inf(-1), math.Inf(1)); math.Abs(got-1003) > 1 {
		t.Errorf("EqualWidth full range = %f", got)
	}
}

func TestHistogramSingleValueAndEmpty(t *testing.T) {
	h := histogramOf(EqualWidth, map[float64]int{7: 42}, 8)
	if len(h.binLo) != 1 {
		t.Errorf("%d bins", len(h.binLo))
	}
	if got := h.EstimateEquals(7); got != 42 {
		t.Errorf("EstimateEquals(7) = %f", got)
	}
	empty := histogramOf(EqualHeight, nil, 8)
	if len(empty.binLo) != 0 || empty.EstimateEquals(1) != 0 || empty.EstimateRange(0, 1) != 0 {
		t.Error("empty histogram should estimate 0")
	}
}

func TestHistogramNameStrings(t *testing.T) {
	if EqualHeight.String() != "EqualHeight" || EqualWidth.String() != "EqualWidth" || HistogramType(9).String() != "?" {
		t.Error("names wrong")
	}
}

// Property: full-range estimates equal the true total for all histogram
// types, and equals-estimates are non-negative.
func TestHistogramMassConservationProperty(t *testing.T) {
	for _, kind := range []HistogramType{EqualHeight, EqualWidth} {
		kind := kind
		f := func(raw []uint8, bins uint8) bool {
			counts := make(map[float64]int)
			total := 0
			for _, r := range raw {
				counts[float64(r%50)]++
				total++
			}
			h := histogramOf(kind, counts, int(bins%16)+1)
			full := h.EstimateRange(math.Inf(-1), math.Inf(1))
			return math.Abs(full-float64(total)) < 1e-6
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
	}
}

func TestStringToDomainOrderProperty(t *testing.T) {
	f := func(a, b string) bool {
		da, db := StringToDomain(a), StringToDomain(b)
		if a < b {
			return da <= db
		}
		if a > b {
			return da >= db
		}
		return da == db
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStringToDomainDistinguishesShortStrings pins collision regressions:
// the former zero-padded mapping collapsed a string with its NUL-extension
// and (via a low-bit shift) adjacent 8-byte values.
func TestStringToDomainDistinguishesShortStrings(t *testing.T) {
	increasing := []string{"", "\x00", "a", "a\x00", "a\x01", "ab", "abc", "abd", "aaaaaa", "aaaaaab"}
	sorted := append([]string(nil), increasing...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		a, b := sorted[i-1], sorted[i]
		da, db := StringToDomain(a), StringToDomain(b)
		if !(da < db) {
			t.Errorf("StringToDomain(%q) = %v not < StringToDomain(%q) = %v", a, da, b, db)
		}
	}
}

func buildTestTable(t *testing.T) *storage.Table {
	t.Helper()
	defs := []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64},
		{Name: "price", Type: types.TypeFloat64, Nullable: true},
		{Name: "status", Type: types.TypeString},
	}
	table := storage.NewTable("t", defs, 100, false)
	statuses := []string{"open", "closed", "pending"}
	for i := 0; i < 1000; i++ {
		price := types.Float(float64(i % 50))
		if i%10 == 0 {
			price = types.NullValue
		}
		_, err := table.AppendRow([]types.Value{
			types.Int(int64(i)), price, types.Str(statuses[i%3]),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return table
}

func TestBuildTableStatistics(t *testing.T) {
	table := buildTestTable(t)
	ts := BuildTableStatistics(table, EqualHeight)
	if ts.RowCount != 1000 {
		t.Fatalf("RowCount = %f", ts.RowCount)
	}
	id := ts.Column(0)
	if id.DistinctCount != 1000 || id.NullCount != 0 || id.Min != 0 || id.Max != 999 {
		t.Errorf("id stats = %+v", id)
	}
	price := ts.Column(1)
	// price = i%50, but every multiple of 10 is NULL (i%10==0 covers exactly
	// the residues 0,10,20,30,40), leaving 45 distinct non-NULL values.
	if price.DistinctCount != 45 {
		t.Errorf("price distinct = %f", price.DistinctCount)
	}
	if got := price.NullFraction(); math.Abs(got-0.1) > 0.01 {
		t.Errorf("price null fraction = %f", got)
	}
	status := ts.Column(2)
	if status.DistinctCount != 3 {
		t.Errorf("status distinct = %f", status.DistinctCount)
	}
}

func TestEstimateSelectivities(t *testing.T) {
	table := buildTestTable(t)
	ts := BuildTableStatistics(table, EqualHeight)

	// id = 500: 1/1000.
	if got := ts.EstimateEquals(0, types.Int(500)); got < 0.0005 || got > 0.01 {
		t.Errorf("EstimateEquals(id=500) = %f", got)
	}
	// id in [0, 499]: ~0.5.
	lo, hi := types.Int(0), types.Int(499)
	if got := ts.EstimateRange(0, &lo, &hi); got < 0.4 || got > 0.6 {
		t.Errorf("EstimateRange(id 0..499) = %f", got)
	}
	// status = 'open': ~1/3.
	if got := ts.EstimateEquals(2, types.Str("open")); got < 0.2 || got > 0.5 {
		t.Errorf("EstimateEquals(status=open) = %f", got)
	}
	// NULL probe: never matches.
	if got := ts.EstimateEquals(0, types.NullValue); got != 0 {
		t.Errorf("NULL equals selectivity = %f", got)
	}
	// NotEquals on price accounts for the null fraction.
	got := ts.EstimateNotEquals(1, types.Float(1))
	if got < 0.8 || got > 0.95 {
		t.Errorf("EstimateNotEquals(price<>1) = %f", got)
	}
	// Open bounds.
	if got := ts.EstimateRange(0, nil, nil); got < 0.99 {
		t.Errorf("unbounded range selectivity = %f", got)
	}
}
