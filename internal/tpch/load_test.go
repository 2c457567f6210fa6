package tpch

import (
	"reflect"
	"testing"

	"hyrise/internal/encoding"
	"hyrise/internal/filter"
	"hyrise/internal/pipeline"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// TestDiffTPCHLoadsLikeTPCC: Generate into an engine's catalog seals every
// chunk as it loads, once, before Generate returns — and builds what a load
// into a bare catalog followed by filter.Seal(c, nil) per chunk builds: per
// chunk and column the same encoding, bytes, zone and filters. A nil-spec
// EncodeAndFilter afterwards changes nothing. Before that seal, every chunk
// of the bare catalog is immutable, unencoded and unfiltered.
func TestDiffTPCHLoadsLikeTPCC(t *testing.T) {
	cfg := Config{ScaleFactor: testSF, ChunkSize: 1000, UseMvcc: true, Seed: 42}
	e := pipeline.NewEngine(pipeline.DefaultConfig(), nil)
	t.Cleanup(e.Close)
	if err := Generate(e.StorageManager(), cfg); err != nil {
		t.Fatal(err)
	}
	before := segmentsOf(t, e.StorageManager())
	if err := EncodeAndFilter(e.StorageManager(), nil); err != nil {
		t.Fatal(err)
	}
	for i, seg := range segmentsOf(t, e.StorageManager()) {
		if seg != before[i] {
			t.Fatalf("a nil-spec EncodeAndFilter after the load replaced segment %d", i)
		}
	}
	bare := storage.NewStorageManager()
	if err := Generate(bare, cfg); err != nil {
		t.Fatal(err)
	}
	chunks := 0
	for _, name := range TableNames() {
		loaded, err := e.StorageManager().GetTable(name)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := bare.GetTable(name)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.ChunkCount() != ref.ChunkCount() {
			t.Fatalf("%s: %d chunks, bare load %d", name, loaded.ChunkCount(), ref.ChunkCount())
		}
		for ci, c := range loaded.Chunks() {
			chunks++
			if c.SealNS() == 0 {
				t.Errorf("%s chunk %d: not sealed when Generate returned", name, ci)
			}
			r := ref.GetChunk(types.ChunkID(ci))
			if !r.IsImmutable() {
				t.Errorf("%s chunk %d: mutable after a bare load", name, ci)
			}
			for col := range loaded.ColumnDefinitions() {
				id := types.ColumnID(col)
				if spec, _ := encoding.SpecOf(r.GetSegment(id)); spec.Encoding != encoding.Unencoded || len(r.Filters(id)) != 0 {
					t.Errorf("%s chunk %d column %d: bare load left %s with %d filters, want unencoded and none", name, ci, col, spec, len(r.Filters(id)))
				}
			}
			filter.Seal(r, nil)
			for col, def := range loaded.ColumnDefinitions() {
				id := types.ColumnID(col)
				seg, zone := c.SegmentWithZone(id)
				refSeg, refZone := r.SegmentWithZone(id)
				got, _ := encoding.SpecOf(seg)
				want, _ := encoding.SpecOf(refSeg)
				if got != want || seg.MemoryUsage() != refSeg.MemoryUsage() {
					t.Errorf("%s chunk %d %s: %s, %d B; sealed after a bare load: %s, %d B",
						name, ci, def.Name, got, seg.MemoryUsage(), want, refSeg.MemoryUsage())
				}
				if !reflect.DeepEqual(zone, refZone) {
					t.Errorf("%s chunk %d %s: zone %+v, bare load %+v", name, ci, def.Name, zone, refZone)
				}
				if got, want := filterTypes(c.Filters(id)), filterTypes(r.Filters(id)); !reflect.DeepEqual(got, want) {
					t.Errorf("%s chunk %d %s: filters %v, bare load %v", name, ci, def.Name, got, want)
				}
			}
		}
	}
	if n, _ := e.StorageManager().SealStats(); n != int64(chunks) {
		t.Errorf("the Sealer ran %d times over %d loaded chunks, want once per chunk", n, chunks)
	}
}

func filterTypes(fs []storage.ChunkFilter) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.FilterType())
	}
	return out
}

// segmentsOf lists every segment of the TPC-H tables, chunk by chunk.
func segmentsOf(t *testing.T, sm *storage.StorageManager) []storage.Segment {
	var out []storage.Segment
	for _, name := range TableNames() {
		table, err := sm.GetTable(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range table.Chunks() {
			for col := 0; col < c.ColumnCount(); col++ {
				out = append(out, c.GetSegment(types.ColumnID(col)))
			}
		}
	}
	return out
}
