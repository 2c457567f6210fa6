// Package hyrise benchmarks: one testing.B benchmark per table/figure of
// the paper's evaluation (see DESIGN.md §4 for the experiment index and
// cmd/hyrise-bench for the harness that prints the paper's rows/series).
//
// Run with:
//
//	go test -bench=. -benchmem
package hyrise

import (
	"fmt"
	"math/rand"
	"testing"

	"hyrise/internal/encoding"
	"hyrise/internal/operators"
	"hyrise/internal/pipeline"
	"hyrise/internal/rowengine"
	"hyrise/internal/storage"
	"hyrise/internal/tpch"
	"hyrise/internal/types"
)

// benchSF keeps the go-test benchmarks fast; the hyrise-bench binary runs
// the full-size experiments.
const benchSF = 0.01

// --- Figure 3: encoding framework micro-benchmarks -------------------------

func fig3Segment(b *testing.B, spec encoding.Spec) (storage.Segment, []types.ChunkOffset) {
	b.Helper()
	const n = 1_000_000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i / 64)
	}
	rng := rand.New(rand.NewSource(7))
	pos := make([]types.ChunkOffset, n/4)
	for i := range pos {
		pos[i] = types.ChunkOffset(rng.Intn(n))
	}
	seg, err := encoding.EncodeSegment(storage.ValueSegmentFromSlice(vals, nil), spec)
	if err != nil {
		b.Fatal(err)
	}
	return seg, pos
}

func fig3Specs() map[string]encoding.Spec {
	return map[string]encoding.Spec{
		"FOR_FSBA":   {Encoding: encoding.FrameOfReference, Compression: encoding.FixedSizeByteAligned},
		"FOR_BP128":  {Encoding: encoding.FrameOfReference, Compression: encoding.BitPacked128},
		"RunLength":  {Encoding: encoding.RunLength},
		"Dict_FSBA":  {Encoding: encoding.Dictionary, Compression: encoding.FixedSizeByteAligned},
		"Dict_BP128": {Encoding: encoding.Dictionary, Compression: encoding.BitPacked128},
	}
}

// BenchmarkFig3aFullMaterialization is the "decode the whole vector
// upfront" path of Figure 3a.
func BenchmarkFig3aFullMaterialization(b *testing.B) {
	for name, spec := range fig3Specs() {
		b.Run(name, func(b *testing.B) {
			seg, pos := fig3Segment(b, spec)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				full, _ := encoding.Materialize[int64](seg)
				var sum int64
				for _, p := range pos {
					sum += full[p]
				}
				_ = sum
			}
		})
	}
}

// BenchmarkFig3aPositional is the random-access-iterator path of Figure 3a.
func BenchmarkFig3aPositional(b *testing.B) {
	for name, spec := range fig3Specs() {
		b.Run(name, func(b *testing.B) {
			seg, pos := fig3Segment(b, spec)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vals, _ := encoding.MaterializePositions[int64](seg, pos)
				var sum int64
				for _, v := range vals {
					sum += v
				}
				_ = sum
			}
		})
	}
}

// BenchmarkFig3bDynamic is the virtual-call-per-value path of Figure 3b.
func BenchmarkFig3bDynamic(b *testing.B) {
	for name, spec := range fig3Specs() {
		b.Run(name, func(b *testing.B) {
			seg, pos := fig3Segment(b, spec)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vals, _ := encoding.MaterializeDynamic[int64](seg, pos)
				var sum int64
				for _, v := range vals {
					sum += v
				}
				_ = sum
			}
		})
	}
}

// BenchmarkFig3bStatic is the statically resolved path of Figure 3b (same
// work as BenchmarkFig3aPositional; both names exist so each figure has
// its pair).
func BenchmarkFig3bStatic(b *testing.B) {
	BenchmarkFig3aPositional(b)
}

// --- Figure 6: TPC-H across engines ------------------------------------------

func tpchEngine(b *testing.B, cfg pipeline.Config, chunkSize int) *pipeline.Engine {
	b.Helper()
	sm := storage.NewStorageManager()
	if err := tpch.Generate(sm, tpch.Config{ScaleFactor: benchSF, ChunkSize: chunkSize, UseMvcc: cfg.UseMvcc, Seed: 42}); err != nil {
		b.Fatal(err)
	}
	if err := tpch.EncodeAndFilter(sm, tpch.DefaultEncoding()); err != nil {
		b.Fatal(err)
	}
	e := pipeline.NewEngine(cfg, sm)
	b.Cleanup(e.Close)
	return e
}

// BenchmarkFig6TPCH runs each TPC-H query on the full engine (the "hyrise"
// series of Figure 6).
func BenchmarkFig6TPCH(b *testing.B) {
	e := tpchEngine(b, pipeline.DefaultConfig(), storage.DefaultChunkSize)
	s := e.NewSession()
	queries := tpch.Queries(benchSF)
	for _, num := range tpch.QueryNumbers() {
		b.Run(fmt.Sprintf("Q%02d", num), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.ExecuteOne(queries[num]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6RowStore runs selected TPC-H queries on the row-oriented
// baseline engine (the comparison series of Figure 6).
func BenchmarkFig6RowStore(b *testing.B) {
	sm := storage.NewStorageManager()
	if err := tpch.Generate(sm, tpch.Config{ScaleFactor: benchSF, ChunkSize: storage.DefaultChunkSize, UseMvcc: false, Seed: 42}); err != nil {
		b.Fatal(err)
	}
	rows := rowengine.NewFromStorage(sm)
	queries := tpch.Queries(benchSF)
	for _, num := range []int{1, 3, 6, 12, 14} {
		b.Run(fmt.Sprintf("Q%02d", num), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := rows.Query(queries[num]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6DynamicAccess runs selected queries through the
// interface-call-per-value baseline.
func BenchmarkFig6DynamicAccess(b *testing.B) {
	cfg := pipeline.DefaultConfig()
	cfg.DynamicAccess = true
	e := tpchEngine(b, cfg, storage.DefaultChunkSize)
	s := e.NewSession()
	queries := tpch.Queries(benchSF)
	for _, num := range []int{1, 3, 6, 12, 14} {
		b.Run(fmt.Sprintf("Q%02d", num), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.ExecuteOne(queries[num]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 7: chunk size sweep ------------------------------------------------

// BenchmarkFig7ChunkSize measures selected queries across chunk capacities
// on date-clustered data (the pruning regime of §5.2).
func BenchmarkFig7ChunkSize(b *testing.B) {
	queries := tpch.Queries(benchSF)
	for _, capacity := range []int{1_000, 10_000, 100_000, 10_000_000} {
		sm := storage.NewStorageManager()
		if err := tpch.Generate(sm, tpch.Config{ScaleFactor: benchSF, ChunkSize: capacity, UseMvcc: true, Seed: 42, ClusterDates: true}); err != nil {
			b.Fatal(err)
		}
		if err := tpch.EncodeAndFilter(sm, tpch.DefaultEncoding()); err != nil {
			b.Fatal(err)
		}
		e := pipeline.NewEngine(pipeline.DefaultConfig(), sm)
		s := e.NewSession()
		for _, num := range []int{1, 6, 12, 22} {
			b.Run(fmt.Sprintf("capacity_%d/Q%02d", capacity, num), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := s.ExecuteOne(queries[num]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		e.Close()
	}
}

// BenchmarkFig7Memory reports bytes of data and metadata per chunk capacity
// as benchmark metrics.
func BenchmarkFig7Memory(b *testing.B) {
	for _, capacity := range []int{1_000, 100_000, 10_000_000} {
		b.Run(fmt.Sprintf("capacity_%d", capacity), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sm := storage.NewStorageManager()
				if err := tpch.Generate(sm, tpch.Config{ScaleFactor: benchSF, ChunkSize: capacity, UseMvcc: true, Seed: 42}); err != nil {
					b.Fatal(err)
				}
				if err := tpch.EncodeAndFilter(sm, tpch.DefaultEncoding()); err != nil {
					b.Fatal(err)
				}
				var data, metadata int64
				for _, name := range tpch.TableNames() {
					t, _ := sm.GetTable(name)
					d, m := t.MemoryUsage()
					data += d
					metadata += m
				}
				b.ReportMetric(float64(data), "data-bytes")
				b.ReportMetric(float64(metadata), "metadata-bytes")
			}
		})
	}
}

// --- §2.9: scheduler -----------------------------------------------------------------

// BenchmarkScheduler measures TPC-H Q6 with immediate execution and with
// the queue scheduler at several worker counts.
func BenchmarkScheduler(b *testing.B) {
	queries := tpch.Queries(benchSF)
	configs := []struct {
		name    string
		sched   bool
		workers int
	}{
		{"immediate", false, 0},
		{"workers_1", true, 1},
		{"workers_4", true, 4},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			cfg := pipeline.DefaultConfig()
			cfg.UseScheduler = c.sched
			cfg.SchedulerWorkers = c.workers
			e := tpchEngine(b, cfg, 10_000)
			s := e.NewSession()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.ExecuteOne(queries[6]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §2.6: plan cache ------------------------------------------------------------------

// BenchmarkPlanCache measures a repeated query with and without the plan
// cache (the cached run skips parsing, translation, and optimization).
func BenchmarkPlanCache(b *testing.B) {
	const sql = `SELECT o_orderpriority, count(*) FROM orders
		WHERE o_orderdate >= '1993-07-01' AND o_orderdate < '1993-10-01'
		GROUP BY o_orderpriority ORDER BY o_orderpriority`
	for _, cached := range []bool{true, false} {
		name := "cache_on"
		if !cached {
			name = "cache_off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := pipeline.DefaultConfig()
			if !cached {
				cfg.PlanCacheSize = 0
			}
			e := tpchEngine(b, cfg, storage.DefaultChunkSize)
			s := e.NewSession()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.ExecuteOne(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- ablations: design choices DESIGN.md calls out -------------------------------------

// BenchmarkAblationEncodings runs TPC-H Q6 under every segment encoding:
// the "performance should be on par with manually optimized encoding
// schemes" requirement of §2.3.
func BenchmarkAblationEncodings(b *testing.B) {
	specs := map[string]encoding.Spec{
		"unencoded":  {Encoding: encoding.Unencoded},
		"dict_fsba":  {Encoding: encoding.Dictionary, Compression: encoding.FixedSizeByteAligned},
		"dict_bp128": {Encoding: encoding.Dictionary, Compression: encoding.BitPacked128},
		"rle":        {Encoding: encoding.RunLength},
		"for_fsba":   {Encoding: encoding.FrameOfReference, Compression: encoding.FixedSizeByteAligned},
	}
	queries := tpch.Queries(benchSF)
	for name, spec := range specs {
		b.Run(name, func(b *testing.B) {
			sm := storage.NewStorageManager()
			if err := tpch.Generate(sm, tpch.Config{ScaleFactor: benchSF, ChunkSize: 25_000, UseMvcc: true, Seed: 42}); err != nil {
				b.Fatal(err)
			}
			if err := tpch.EncodeAndFilter(sm, spec); err != nil {
				b.Fatal(err)
			}
			e := pipeline.NewEngine(pipeline.DefaultConfig(), sm)
			defer e.Close()
			s := e.NewSession()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.ExecuteOne(queries[6]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationJoinImpl compares the two equi-join implementations on
// TPC-H Q12 (paper §2.1: several physical operators per logical operator).
func BenchmarkAblationJoinImpl(b *testing.B) {
	queries := tpch.Queries(benchSF)
	for name, impl := range map[string]operators.JoinImplementation{
		"hash":      operators.PreferHashJoin,
		"sortmerge": operators.PreferSortMergeJoin,
	} {
		b.Run(name, func(b *testing.B) {
			cfg := pipeline.DefaultConfig()
			cfg.JoinImpl = impl
			e := tpchEngine(b, cfg, storage.DefaultChunkSize)
			s := e.NewSession()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.ExecuteOne(queries[12]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
