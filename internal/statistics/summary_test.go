package statistics

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"hyrise/internal/encoding"
	"hyrise/internal/observe"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// The row path statistics were built by before they read segment summaries,
// kept as the oracle: every row through ValueAt into a value → rows map (plus
// the exact strings), the histogram from that map. NaN rows are counted
// outside the map, as one distinct value, by the rule the summary states.

// rowColumn reads rows [lo, hi) of one segment into counts and exact.
func rowColumn(seg storage.Segment, lo, hi int, counts map[float64]int, exact map[string]struct{}) (nulls, nans int) {
	for i := lo; i < hi; i++ {
		v := seg.ValueAt(types.ChunkOffset(i))
		switch d, _ := ValueToDomain(v); {
		case v.IsNull():
			nulls++
		case math.IsNaN(d):
			nans++
		default:
			counts[d]++
			if v.Type == types.TypeString {
				exact[v.S] = struct{}{}
			}
		}
	}
	return nulls, nans
}

func rowStatistics(defs []storage.ColumnDefinition, parts []chunkRows, rows int, kind HistogramType) *TableStatistics {
	ts := &TableStatistics{RowCount: float64(rows), columns: make([]*ColumnStatistics, len(defs))}
	for col, def := range defs {
		counts, exact := make(map[float64]int), make(map[string]struct{})
		nulls, nans := 0, 0
		for _, p := range parts {
			n, m := rowColumn(p.segs[col], p.lo, p.hi, counts, exact)
			nulls, nans = nulls+n, nans+m
		}
		distinct := len(counts)
		if def.Type == types.TypeString {
			distinct = len(exact)
		}
		cs := &ColumnStatistics{
			Type: def.Type, RowCount: ts.RowCount, NullCount: float64(nulls),
			DistinctCount: float64(distinct + min(nans, 1)),
			Hist:          refHistogram(kind, counts, DefaultHistogramBins),
		}
		cs.Min, cs.Max = cs.Hist.bounds()
		ts.columns[col] = cs
	}
	return ts
}

// rowFold folds parts into ts part by part, each part's values in ascending
// order, read row by row.
func rowFold(ts *TableStatistics, parts []chunkRows, rows int) *TableStatistics {
	out := &TableStatistics{RowCount: ts.RowCount + float64(rows), columns: make([]*ColumnStatistics, len(ts.columns))}
	for col, old := range ts.columns {
		cs := *old
		cs.Hist = old.Hist.clone()
		for _, p := range parts {
			counts := make(map[float64]int)
			nulls, _ := rowColumn(p.segs[col], p.lo, p.hi, counts, map[string]struct{}{})
			values := make([]float64, 0, len(counts))
			for v := range counts {
				values = append(values, v)
			}
			sort.Float64s(values)
			for _, v := range values {
				if cs.Hist.add(v, counts[v]) {
					cs.DistinctCount++
				}
			}
			cs.NullCount += float64(nulls)
		}
		cs.RowCount = out.RowCount
		cs.Min, cs.Max = cs.Hist.bounds()
		out.columns[col] = &cs
	}
	return out
}

// RowTableStatistics is the row path over a whole table, for the TPC-H half of
// the differential: that lives in package statistics_test, because tpch imports
// filter and filter imports this package.
func RowTableStatistics(table *storage.Table, kind HistogramType) *TableStatistics {
	parts, _, rows := rowsSince(table, mark{})
	return rowStatistics(table.ColumnDefinitions(), parts, rows, kind)
}

var dictionary = encoding.Spec{Encoding: encoding.Dictionary, Compression: encoding.FixedSizeByteAligned}

// TestStatsSegmentSummary, part (c): statistics built and folded from
// segment summaries are the statistics the row path computes — on a table of
// awkward values one chunk of which is sealed and encoded while the next grows
// (and on every TPC-H table: TestStatsSegmentSummaryTPCH).
func TestStatsSegmentSummary(t *testing.T) {
	defs := []storage.ColumnDefinition{
		{Name: "big", Type: types.TypeInt64, Nullable: true},
		{Name: "f", Type: types.TypeFloat64, Nullable: true},
		{Name: "s", Type: types.TypeString, Nullable: true},
	}
	bigs := []int64{math.MinInt64, -1, 0, 7, 1 << 53, 1<<53 + 1, 1<<53 + 2, math.MaxInt64}
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, 2.5, -2.5, math.Inf(1), 1e300}
	strs := []string{"", "\x00", "a", "a\x00b", "Customer#000000001", "Customer#000000002"}
	r := rand.New(rand.NewSource(5))
	table := storage.NewTable("awkward", defs, 400, false)
	appendRows := func(n int) {
		for i := 0; i < n; i++ {
			row := []types.Value{
				types.Int(bigs[r.Intn(len(bigs))] + int64(r.Intn(3))), types.Float(floats[r.Intn(len(floats))] * float64(1+r.Intn(40))),
				types.Str(strs[r.Intn(len(strs))]),
			}
			if null := r.Intn(9); null < len(row) {
				row[null] = types.NullValue
			}
			if _, err := table.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendRows(500) // one sealed chunk, 100 rows of the next
	for _, kind := range []HistogramType{EqualHeight, EqualWidth} {
		parts, at, rows := rowsSince(table, mark{})
		built := buildStatistics(defs, parts, rows, kind)
		if want := rowStatistics(defs, parts, rows, kind); !reflect.DeepEqual(built, want) {
			t.Fatalf("awkward (%s): statistics from summaries differ from the row path", kind)
		}
		if kind != EqualHeight {
			continue
		}
		// The fold reads the rest of chunk 1, all of chunk 2 — both sealed
		// and encoded before the fold sees them — and the start of chunk 3.
		appendRows(800)
		for _, c := range []types.ChunkID{1, 2} {
			encodeChunk(table.GetChunk(c), dictionary)
		}
		parts, _, rows = rowsSince(table, at)
		if got, want := built.fold(parts, rows), rowFold(built, parts, rows); !reflect.DeepEqual(got, want) {
			t.Errorf("awkward: fold of summaries differs from the row path")
		}
		for col := range defs {
			if n := summarized(parts, col); n != 1 {
				t.Errorf("awkward: %d of the fold's chunks read off their encoding in column %d, want 1 (chunk 2)", n, col)
			}
		}
	}
}

// TestStatsNaN: NaN is one distinct value that lies in no bin, so Min,
// Max and every estimate are those of the numbers. Each NaN row used to be a
// distinct value of its own, and the smallest bin edge.
func TestStatsNaN(t *testing.T) {
	defs := []storage.ColumnDefinition{{Name: "f", Type: types.TypeFloat64}}
	for _, spec := range []encoding.Spec{{Encoding: encoding.Unencoded}, dictionary} {
		table := storage.NewTable("t", defs, 50, false)
		for i := 0; i < 100; i++ {
			v := float64(i % 10)
			if i%4 == 0 {
				v = math.NaN()
			}
			if _, err := table.AppendRow([]types.Value{types.Float(v)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := encoding.EncodeTable(table, &spec, nil); err != nil {
			t.Fatal(err)
		}
		cs := BuildTableStatistics(table, EqualHeight).Column(0)
		if cs.DistinctCount != 11 || cs.Min != 0 || cs.Max != 9 || cs.Hist.total != 75 || cs.NullCount != 0 {
			t.Errorf("%s: distinct %v range [%v, %v] histogram rows %v, want 11 values (ten numbers and NaN) in [0, 9] over 75 rows",
				spec, cs.DistinctCount, cs.Min, cs.Max, cs.Hist.total)
		}
	}
}

// TestSummarizedChunksCounter: statistics.summarized_chunks counts the chunks
// of a column a build or fold read off their encoding, so a slow first plan
// over unencoded chunks shows as builds without it.
func TestSummarizedChunksCounter(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	table := newFoldTable(t, r, 1000) // three sealed chunks of 256 rows and a tail
	encodeChunk(table.GetChunk(0), dictionary)
	encodeChunk(table.GetChunk(2), dictionary)
	// Frame-of-reference on the integer columns: decoded and grouped row by
	// row, so not read off its encoding.
	encodeChunk(table.GetChunk(1), encoding.Spec{Encoding: encoding.FrameOfReference})
	reg := observe.NewRegistry()
	cache := NewCache(EqualHeight)
	cache.Instrument(reg)
	cache.Get(table).Column(0)
	if got := reg.Counter("statistics.summarized_chunks").Value(); got != 2 {
		t.Errorf("statistics.summarized_chunks = %d after a column build over two dictionary chunks, a frame-of-reference one and a tail, want 2", got)
	}
}

// encodeChunk encodes every column of an immutable chunk with spec, as a seal
// does, without deriving bins.
func encodeChunk(c *storage.Chunk, spec encoding.Spec) {
	for col := 0; col < c.ColumnCount(); col++ {
		id := types.ColumnID(col)
		seg, zone := c.SegmentWithZone(id)
		sealed, _ := encoding.Seal(seg, zone.Ascending >= seg.Len(), &spec)
		c.ReplaceSegment(id, sealed)
	}
}
