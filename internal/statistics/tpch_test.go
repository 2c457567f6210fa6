package statistics_test

import (
	"reflect"
	"testing"

	"hyrise/internal/encoding"
	"hyrise/internal/statistics"
	"hyrise/internal/storage"
	"hyrise/internal/tpch"
)

// TestStatsSegmentSummaryTPCH: statistics built from segment summaries
// are the statistics the row path computes, on every TPC-H table: sealed by
// the size model, dictionary-encoded and unencoded.
func TestStatsSegmentSummaryTPCH(t *testing.T) {
	for _, spec := range []*encoding.Spec{tpch.DefaultEncoding(), {Encoding: encoding.Dictionary}, {Encoding: encoding.Unencoded}} {
		sm := storage.NewStorageManager()
		if err := tpch.Generate(sm, tpch.Config{ScaleFactor: 0.01, ChunkSize: 10_000, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		if err := tpch.EncodeAndFilter(sm, spec); err != nil {
			t.Fatal(err)
		}
		for _, name := range tpch.TableNames() {
			table, err := sm.GetTable(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range []statistics.HistogramType{statistics.EqualHeight, statistics.EqualWidth} {
				want := statistics.RowTableStatistics(table, kind)
				if got := statistics.BuildTableStatistics(table, kind); !reflect.DeepEqual(got, want) {
					t.Errorf("%s (%v, %s): statistics from summaries differ from the row path", name, spec, kind)
				}
			}
		}
	}
}
