package plugin

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hyrise/internal/encoding"
	"hyrise/internal/observe"
	"hyrise/internal/pipeline"
	"hyrise/internal/storage"
)

// TestEncodingAdvisorFromWorkload drives the full self-driving loop with a
// synthetic access pattern: the executor-side scan statistics say one column
// is scanned with point predicates and another with ranges, the advisor
// re-encodes both against its earlier data-shape choice, queries keep
// answering correctly, and the re-encoded data survives a snapshot/WAL
// round-trip.
func TestEncodingAdvisorFromWorkload(t *testing.T) {
	dir := t.TempDir()
	cfg := pipeline.DefaultConfig()
	cfg.DataDir = dir
	cfg.SyncMode = "off"
	e, err := pipeline.NewEngineErr(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	s := e.NewSession()
	if _, err := s.Execute("CREATE TABLE wl (pointy INT, rangy INT, cold INT)"); err != nil {
		t.Fatal(err)
	}
	const rows = 2000
	var wantSum int64
	for i := 0; i < rows; i++ {
		sql := fmt.Sprintf("INSERT INTO wl VALUES (%d, %d, %d)", i%50*500, i, i%10)
		if _, err := s.Execute(sql); err != nil {
			t.Fatal(err)
		}
		wantSum += int64(i)
	}
	table, err := e.StorageManager().GetTable("wl")
	if err != nil {
		t.Fatal(err)
	}
	table.SealTail() // the load ends: the Sealer encodes the chunk by the size model

	p := &EncodingAdvisorPlugin{}
	if err := p.Start(e); err != nil {
		t.Fatal(err)
	}
	applied := p.Applied()
	// Advise reports the size model's choice: pointy (50 distinct values 500 apart: one-byte codes
	// against two-byte offsets) -> dictionary, rangy (dense unique ints) ->
	// frame-of-reference.
	if !strings.Contains(applied["wl.pointy"], "Dictionary") {
		t.Fatalf("pointy after Advise = %q, want dictionary", applied["wl.pointy"])
	}
	if !strings.Contains(applied["wl.rangy"], "FrameOfReference") {
		t.Fatalf("rangy after Advise = %q, want frame-of-reference", applied["wl.rangy"])
	}

	// Synthetic workload: rangy is hammered with point probes, pointy with
	// range predicates; cold stays under the minScans threshold.
	stats := e.ScanStats()
	for i := 0; i < 20; i++ {
		stats.Column("wl", "rangy").Record(observe.ScanPathEncoded, true, rows, 1)
		stats.Column("wl", "pointy").Record(observe.ScanPathEncoded, false, rows, 400)
	}
	for i := 0; i < 3; i++ {
		stats.Column("wl", "cold").Record(observe.ScanPathEncoded, true, rows, 200)
	}

	if err := p.AdviseFromWorkload(); err != nil {
		t.Fatal(err)
	}
	re := p.Applied()
	if !strings.Contains(re["wl.rangy"], "Dictionary") {
		t.Errorf("rangy re-encoding = %q, want dictionary (point-heavy workload)", re["wl.rangy"])
	}
	if !strings.Contains(re["wl.pointy"], "FrameOfReference") {
		t.Errorf("pointy re-encoding = %q, want frame-of-reference (range-heavy workload over a dense domain)", re["wl.pointy"])
	}
	if re["wl.cold"] != applied["wl.cold"] {
		t.Errorf("cold was re-encoded (%q -> %q) despite %d < minScans observations", applied["wl.cold"], re["wl.cold"], 3)
	}

	// The segments were physically swapped.
	pointyCol, _ := table.ColumnID("pointy")
	rangyCol, _ := table.ColumnID("rangy")
	if _, ok := table.GetChunk(0).GetSegment(pointyCol).(*encoding.FrameOfReferenceSegment); !ok {
		t.Errorf("pointy segment is %T, want frame-of-reference", table.GetChunk(0).GetSegment(pointyCol))
	}
	if _, ok := table.GetChunk(0).GetSegment(rangyCol).(*encoding.DictionarySegment[int64]); !ok {
		t.Errorf("rangy segment is %T, want dictionary", table.GetChunk(0).GetSegment(rangyCol))
	}

	// Queries still answer correctly on the re-encoded segments.
	checkData := func(e *pipeline.Engine, phase string) {
		t.Helper()
		res, err := e.NewSession().ExecuteOne(
			"SELECT count(*), sum(rangy) FROM wl")
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		got := pipeline.RowStrings(res.Table)
		if got[0][0] != fmt.Sprint(rows) || got[0][1] != fmt.Sprint(wantSum) {
			t.Fatalf("%s: count/sum = %v, want [%d %d]", phase, got[0], rows, wantSum)
		}
		res, err = e.NewSession().ExecuteOne(
			"SELECT count(*) FROM wl WHERE pointy = 3500 AND rangy < 1000")
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		if got := pipeline.RowStrings(res.Table); got[0][0] != "20" {
			t.Fatalf("%s: filtered count = %v, want 20", phase, got[0])
		}
	}
	checkData(e, "after re-encode")

	// Snapshot the re-encoded state and reopen the engine from disk.
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e2, err := pipeline.NewEngineErr(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	checkData(e2, "after recovery")
}

// TestEncodingAdvisorSealsDecimalForRanges: a cents column the size model
// keeps as a dictionary (100 distinct prices) is re-sealed by a range-heavy
// workload to frame-of-reference — over its integers, 'decimal(2)', not a
// dictionary again — and a SELECT returns the same rows before and after.
func TestEncodingAdvisorSealsDecimalForRanges(t *testing.T) {
	e := pipeline.NewEngine(pipeline.DefaultConfig(), nil)
	defer e.Close()
	s := e.NewSession()
	if _, err := s.Execute("CREATE TABLE prices (id INT, price FLOAT)"); err != nil {
		t.Fatal(err)
	}
	const rows = 2000
	for lo := 0; lo < rows; lo += 100 {
		var values []string
		for i := lo; i < lo+100; i++ {
			values = append(values, fmt.Sprintf("(%d, %d.%02d)", i, i%50, i*7%100))
		}
		if _, err := s.Execute("INSERT INTO prices VALUES " + strings.Join(values, ", ")); err != nil {
			t.Fatal(err)
		}
	}
	table, err := e.StorageManager().GetTable("prices")
	if err != nil {
		t.Fatal(err)
	}
	table.SealTail()
	col, _ := table.ColumnID("price")
	if spec, _ := encoding.SpecOf(table.GetChunk(0).GetSegment(col)); spec.Encoding != encoding.Dictionary {
		t.Fatalf("price sealed as %s, want the size model's Dictionary", spec)
	}
	const query = "SELECT id, price FROM prices WHERE price BETWEEN 10.5 AND 20.25 ORDER BY id"
	read := func() [][]string {
		t.Helper()
		res, err := e.NewSession().ExecuteOne(query)
		if err != nil {
			t.Fatal(err)
		}
		return pipeline.RowStrings(res.Table)
	}
	before := read()

	p := &EncodingAdvisorPlugin{}
	if err := p.Start(e); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		e.ScanStats().Column("prices", "price").Record(observe.ScanPathEncoded, false, rows, 400)
	}
	if err := p.AdviseFromWorkload(); err != nil {
		t.Fatal(err)
	}
	seg := table.GetChunk(0).GetSegment(col)
	if _, ok := seg.(*encoding.DecimalSegment); !ok || encoding.ValueCompression(seg) != "decimal(2)" {
		t.Fatalf("price re-sealed as %T %s, want frame-of-reference over decimal(2)", seg, encoding.ValueCompression(seg))
	}
	if got := p.Applied()["prices.price"]; !strings.Contains(got, "FrameOfReference") {
		t.Errorf("advisor applied %q to prices.price, want frame-of-reference", got)
	}
	if after := read(); len(before) == 0 || !reflect.DeepEqual(after, before) {
		t.Errorf("%s returned %d rows before the re-seal and %d after, or different ones", query, len(before), len(after))
	}
}

// TestEncodingAdvisorKeepsTheModelsVector: when the workload agrees with the
// size model's encoding, the advisor leaves the segment alone — it takes the
// code vector from the size model too, so it does not re-seal a bit-packed
// frame of reference (dense unique ints, scanned by ranges) to byte-aligned
// offsets, or a dictionary of one-byte codes (200 values a thousand apart,
// probed by points) to bit-packed ones.
func TestEncodingAdvisorKeepsTheModelsVector(t *testing.T) {
	e := pipeline.NewEngine(pipeline.DefaultConfig(), nil)
	defer e.Close()
	s := e.NewSession()
	if _, err := s.Execute("CREATE TABLE kept (rangy INT, pointy INT)"); err != nil {
		t.Fatal(err)
	}
	const rows = 2000
	for lo := 0; lo < rows; lo += 100 {
		var values []string
		for i := lo; i < lo+100; i++ {
			values = append(values, fmt.Sprintf("(%d, %d)", i, i*37%200*1000))
		}
		if _, err := s.Execute("INSERT INTO kept VALUES " + strings.Join(values, ", ")); err != nil {
			t.Fatal(err)
		}
	}
	table, err := e.StorageManager().GetTable("kept")
	if err != nil {
		t.Fatal(err)
	}
	table.SealTail()
	rangy, _ := table.ColumnID("rangy")
	pointy, _ := table.ColumnID("pointy")
	chunk := table.GetChunk(0)
	sealed := map[string]encoding.Spec{
		"rangy":  {Encoding: encoding.FrameOfReference, Compression: encoding.BitPacked128},
		"pointy": {Encoding: encoding.Dictionary, Compression: encoding.FixedSizeByteAligned},
	}
	before := map[string]storage.Segment{"rangy": chunk.GetSegment(rangy), "pointy": chunk.GetSegment(pointy)}
	for name, seg := range before {
		if got, _ := encoding.SpecOf(seg); got != sealed[name] {
			t.Fatalf("%s sealed as %s, want the size model's %s", name, got, sealed[name])
		}
	}

	p := &EncodingAdvisorPlugin{}
	if err := p.Start(e); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		e.ScanStats().Column("kept", "rangy").Record(observe.ScanPathEncoded, false, rows, 400)
		e.ScanStats().Column("kept", "pointy").Record(observe.ScanPathEncoded, true, rows, 10)
	}
	if err := p.AdviseFromWorkload(); err != nil {
		t.Fatal(err)
	}
	after := map[string]storage.Segment{"rangy": chunk.GetSegment(rangy), "pointy": chunk.GetSegment(pointy)}
	for name, seg := range after {
		if seg != before[name] {
			spec, _ := encoding.SpecOf(seg)
			t.Errorf("%s re-sealed from %s to %s by a workload that agrees with its encoding", name, sealed[name], spec)
		}
	}
}
