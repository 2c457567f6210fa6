package persistence

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hyrise/internal/concurrency"
	"hyrise/internal/encoding"
	"hyrise/internal/filter"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata/*.snap and *.wal goldens from this run")

// codecRow is row n of a codecCatalog table: extremes, NaN, ±0, -Inf, the
// empty string, NUL, invalid UTF-8 and NULLs among ordinary values, with runs
// of four for run-length encoding and 100 distinct long strings for FSST to
// pack.
func codecRow(n int) []types.Value {
	i, f := types.Int(int64(n/4)), types.Float(float64(n/4)+0.5)
	switch n % 11 {
	case 3:
		i, f = types.Int(math.MinInt64), types.Float(math.NaN())
	case 5:
		i, f = types.Int(math.MaxInt64), types.Float(math.Copysign(0, -1))
	case 7:
		i, f = types.NullValue, types.Float(math.Inf(-1))
	case 9:
		f = types.NullValue
	}
	s := types.Str(fmt.Sprintf("comment %03d: the quick brown fox jumps over the lazy dog", n%100))
	switch n % 13 {
	case 2:
		s = types.Str("")
	case 4:
		s = types.Str("a\x00b")
	case 6:
		s = types.Str("\xff\xfe")
	case 8:
		s = types.NullValue
	}
	return []types.Value{i, types.Int(int64(n * 3)), f, s}
}

// codecCatalog builds a catalog that holds every segment tag a snapshot
// writes: nullable value segments, plain and FSST-packed string dictionaries
// over both code vectors, int and float dictionaries, run-length segments, and
// frame-of-reference over both code vectors. Chunks come in all three states
// (mutable, immutable, immutable with bins), MVCC bitmaps hold uncommitted
// and deleted rows, and there is a view.
func codecCatalog(tb testing.TB) *storage.StorageManager {
	tb.Helper()
	spec := func(e encoding.EncodingType, c encoding.VectorCompressionType) *encoding.Spec {
		return &encoding.Spec{Encoding: e, Compression: c}
	}
	fsba, bp := encoding.FixedSizeByteAligned, encoding.BitPacked128
	plain, rle := spec(encoding.Unencoded, fsba), spec(encoding.RunLength, fsba)
	sm := storage.NewStorageManager()
	for _, shape := range []struct {
		name            string
		chunkSize, rows int
		mvcc, filtered  bool
		specs           []*encoding.Spec // per column; nil is the size model
	}{
		{"plain", 16, 40, true, true, []*encoding.Spec{plain, plain, plain, plain}},
		{"dict", 64, 64, false, true, []*encoding.Spec{spec(encoding.Dictionary, fsba), spec(encoding.Dictionary, bp), spec(encoding.Dictionary, fsba), spec(encoding.Dictionary, bp)}},
		{"rle", 64, 64, true, false, []*encoding.Spec{rle, rle, rle, rle}},
		{"for", 200, 200, false, false, []*encoding.Spec{spec(encoding.FrameOfReference, fsba), spec(encoding.FrameOfReference, bp), nil, nil}},
	} {
		t := storage.NewTable(shape.name, []storage.ColumnDefinition{
			{Name: "i", Type: types.TypeInt64, Nullable: true},
			{Name: "j", Type: types.TypeInt64},
			{Name: "f", Type: types.TypeFloat64, Nullable: true},
			{Name: "s", Type: types.TypeString, Nullable: true},
		}, shape.chunkSize, shape.mvcc)
		for n := range shape.rows {
			if _, err := t.AppendRow(codecRow(n)); err != nil {
				tb.Fatal(err)
			}
		}
		for ci, c := range t.Chunks() {
			if mvcc := c.MvccData(); mvcc != nil {
				for o := range c.Size() {
					if o%5 != 4 {
						mvcc.SetBegin(types.ChunkOffset(o), 1)
					}
					if o%7 == 3 {
						mvcc.SetEnd(types.ChunkOffset(o), 2)
					}
				}
			}
			if !c.IsImmutable() || (shape.name == "plain" && ci == 1) {
				continue // the tail stays mutable; plain's chunk 1 immutable without bins
			}
			for col, sp := range shape.specs {
				id := types.ColumnID(col)
				seg, zone := c.SegmentWithZone(id)
				sealed, _ := encoding.Seal(seg, zone.Ascending >= seg.Len(), sp)
				c.ReplaceSegment(id, sealed)
			}
			if shape.filtered {
				filter.AttachDefaults(c)
			}
		}
		if err := sm.AddTable(t); err != nil {
			tb.Fatal(err)
		}
	}
	// 200 distinct comments: 8-bit codes, which the size model keeps
	// byte-aligned (bit-packed they need 5 more bytes a block), FSST-packed.
	wide := storage.NewTable("wide", []storage.ColumnDefinition{{Name: "s", Type: types.TypeString}}, 256, false)
	for n := range 256 {
		if _, err := wide.AppendRow([]types.Value{types.Str(fmt.Sprintf("comment %03d: the quick brown fox jumps over the lazy dog", n*7%200))}); err != nil {
			tb.Fatal(err)
		}
	}
	sealed, _ := encoding.Seal(wide.GetChunk(0).GetSegment(0), false, nil)
	wide.GetChunk(0).ReplaceSegment(0, sealed)
	if err := sm.AddTable(wide); err != nil {
		tb.Fatal(err)
	}
	if err := sm.AddView("v_codec", "SELECT i FROM plain"); err != nil {
		tb.Fatal(err)
	}
	seen := map[string]bool{}
	for _, name := range sm.TableNames() {
		t, _ := sm.GetTable(name)
		for _, c := range t.Chunks() {
			for col := range c.ColumnCount() {
				seg := c.GetSegment(types.ColumnID(col))
				sp, _ := encoding.SpecOf(seg)
				seen[fmt.Sprintf("%T %v %s", seg, sp, encoding.ValueCompression(seg))] = true
			}
		}
	}
	for _, want := range []string{
		"*storage.ValueSegment[int64] Unencoded none",
		"*storage.ValueSegment[float64] Unencoded none",
		"*storage.StringSegment Unencoded none",
		"*encoding.DictionarySegment[int64] Dictionary (FSBA) none",
		"*encoding.DictionarySegment[int64] Dictionary (SIMD-BP128) none",
		"*encoding.DictionarySegment[float64] Dictionary (FSBA) none",
		"*encoding.DictionarySegment[string] Dictionary (SIMD-BP128) none",
		"*encoding.DictionarySegment[string] Dictionary (FSBA) FSST",
		"*encoding.RunLengthSegment[int64] RunLength none",
		"*encoding.RunLengthSegment[float64] RunLength none",
		"*encoding.RunLengthSegment[string] RunLength none",
		"*encoding.FrameOfReferenceSegment FrameOfReference (FSBA) none",
		"*encoding.FrameOfReferenceSegment FrameOfReference (SIMD-BP128) none",
	} {
		if !seen[want] {
			tb.Fatalf("codecCatalog holds no %s; it holds %v", want, seen)
		}
	}
	return sm
}

// decimalCatalog holds the decimal segment tag: a table of prices in cents,
// NULLs and negatives among them, whose two full chunks are sealed by the size
// model and as frame-of-reference over bit-packed codes, and a mutable tail.
// It has a golden of its own, so that catalog.snap keeps its bytes: every
// float chunk of codecCatalog holds NaN, -0 or -Inf, which no decimal holds.
func decimalCatalog(tb testing.TB) *storage.StorageManager {
	tb.Helper()
	t := storage.NewTable("prices", []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64},
		{Name: "price", Type: types.TypeFloat64, Nullable: true},
	}, 100, false)
	for n := range 250 {
		price := types.Float(float64(n*7919%20_000-10_000) / 100)
		if n%13 == 0 {
			price = types.NullValue
		}
		if _, err := t.AppendRow([]types.Value{types.Int(int64(n)), price}); err != nil {
			tb.Fatal(err)
		}
	}
	for ci, sp := range []*encoding.Spec{nil, {Encoding: encoding.FrameOfReference, Compression: encoding.BitPacked128}} {
		c := t.GetChunk(types.ChunkID(ci))
		for col := range c.ColumnCount() {
			id := types.ColumnID(col)
			seg, zone := c.SegmentWithZone(id)
			sealed, _ := encoding.Seal(seg, zone.Ascending >= seg.Len(), sp)
			c.ReplaceSegment(id, sealed)
		}
		filter.AttachDefaults(c)
		if got := encoding.ValueCompression(c.GetSegment(1)); got != "decimal(2)" {
			tb.Fatalf("chunk %d: price sealed with value compression %s, want decimal(2)", ci, got)
		}
	}
	sm := storage.NewStorageManager()
	if err := sm.AddTable(t); err != nil {
		tb.Fatal(err)
	}
	return sm
}

// patchedCatalog is decimalCatalog with corrections and patches: every 17th
// price is one ulp past its cents, and NaN, -0 and +Inf stand in three rows,
// so both sealed chunks hold decimal(2) segments corrected by 2 bits, with
// those three rows patched. (decimal_patched.snap holds the same rows as it
// was written before corrections: the ulps patched too.)
func patchedCatalog(tb testing.TB) *storage.StorageManager {
	tb.Helper()
	t := storage.NewTable("readings", []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64},
		{Name: "price", Type: types.TypeFloat64, Nullable: true},
	}, 100, false)
	for n := range 250 {
		v := float64(n*7919%20_000-10_000) / 100
		if n%17 == 5 {
			v = math.Nextafter(v, math.Inf(1))
		}
		price := types.Float([]float64{v, math.NaN(), math.Copysign(0, -1), math.Inf(1)}[max(0, n%90-86)])
		if n%13 == 0 {
			price = types.NullValue
		}
		if _, err := t.AppendRow([]types.Value{types.Int(int64(n)), price}); err != nil {
			tb.Fatal(err)
		}
	}
	for ci, sp := range []*encoding.Spec{nil, {Encoding: encoding.FrameOfReference, Compression: encoding.BitPacked128}} {
		c := t.GetChunk(types.ChunkID(ci))
		for col := range c.ColumnCount() {
			id := types.ColumnID(col)
			seg, zone := c.SegmentWithZone(id)
			sealed, _ := encoding.Seal(seg, zone.Ascending >= seg.Len(), sp)
			c.ReplaceSegment(id, sealed)
		}
		filter.AttachDefaults(c)
		if got := encoding.ValueCompression(c.GetSegment(1)); got != "decimal(2)~2+3" {
			tb.Fatalf("chunk %d: price sealed with value compression %s, want decimal(2)~2+3", ci, got)
		}
	}
	sm := storage.NewStorageManager()
	if err := sm.AddTable(t); err != nil {
		tb.Fatal(err)
	}
	return sm
}

// commitOps returns n inserts of five values each — every WAL value tag, with
// extremes, NaN, -0, the empty string and NUL among them — at consecutive
// rows of "t".
func commitOps(n int) []concurrency.RedoOp {
	ops := make([]concurrency.RedoOp, n)
	for k := range ops {
		ops[k] = concurrency.RedoOp{
			Kind: concurrency.RedoInsert, Table: "t",
			Row: types.RowID{Chunk: types.ChunkID(k / 4), Offset: types.ChunkOffset(k % 4)},
			Values: []types.Value{
				types.Int([]int64{math.MinInt64, -1, 0, math.MaxInt64}[k%4]),
				types.Float([]float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), 2.5}[k%4]),
				types.Str([]string{"", "a\x00b", "\xff", "row"}[k%4]),
				types.NullValue,
				{Type: types.TypeBool, I: int64(k % 2)},
			},
		}
	}
	return ops
}

// TestCommitBatchBuiltInPlace: a commit's frames are appended into one
// growing buffer, so encoding costs its growth steps and nothing per record —
// 10 and 100 five-value inserts within 10 and 20 allocations — and the batch
// is the one the golden log holds.
func TestCommitBatchBuiltInPlace(t *testing.T) {
	for _, tc := range []struct{ inserts, allocs int }{{10, 10}, {100, 20}} {
		ops := commitOps(tc.inserts)
		if got := testing.AllocsPerRun(20, func() {
			if _, err := appendCommitBatch(nil, 7, 9, ops); err != nil {
				t.Fatal(err)
			}
		}); got > float64(tc.allocs) {
			t.Errorf("%d inserts: %.0f allocations, want at most %d", tc.inserts, got, tc.allocs)
		}
	}
	batch, err := appendCommitBatch(nil, 7, 9, append(commitOps(10), batchDelete))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "batch.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(batch, want[walHeaderLen:]) {
		t.Fatal("the commit batch differs from the golden log's")
	}
}

// batchDelete is the delete the golden commit batch ends its redo with.
var batchDelete = concurrency.RedoOp{Kind: concurrency.RedoDelete, Table: "t", Row: types.RowID{Chunk: 1, Offset: 3}}

// codecSequence writes a fixed history into a fresh data directory and closes
// it: CREATE TABLE and VIEW, inserts and a delete, a checkpoint, then more
// inserts, a delete, DROP VIEW, CREATE and DROP TABLE and a second view — all
// in the log suffix.
func codecSequence(tb testing.TB, dir string) {
	tb.Helper()
	sm, tm, m := openTestManager(tb, dir, SyncOff)
	table := storage.NewTable("t", testDefs(), 4, true)
	if err := sm.AddTable(table); err != nil {
		tb.Fatal(err)
	}
	if err := m.LogCreateTable(table); err != nil {
		tb.Fatal(err)
	}
	rows := func(lo, hi int) [][]types.Value {
		var out [][]types.Value
		for n := lo; n < hi; n++ {
			r := codecRow(n)
			out = append(out, []types.Value{r[1], r[3], r[2]})
		}
		return out
	}
	del := func(row types.RowID) {
		tx := tm.New()
		if err := tx.TryInvalidate(table.GetChunk(row.Chunk), row.Offset); err != nil {
			tb.Fatal(err)
		}
		tx.LogDelete("t", row)
		if err := tx.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	insertTx(tb, tm, table, rows(0, 6))
	insertTx(tb, tm, table, rows(6, 9))
	del(types.RowID{Chunk: 0, Offset: 2})
	if err := sm.AddView("v", "SELECT id FROM t"); err != nil {
		tb.Fatal(err)
	}
	if err := m.LogCreateView("v", "SELECT id FROM t"); err != nil {
		tb.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	insertTx(tb, tm, table, rows(9, 14))
	del(types.RowID{Chunk: 2, Offset: 0})
	if err := sm.DropView("v"); err != nil {
		tb.Fatal(err)
	}
	if err := m.LogDropView("v"); err != nil {
		tb.Fatal(err)
	}
	u := storage.NewTable("u", testDefs(), 0, false)
	if err := sm.AddTable(u); err != nil {
		tb.Fatal(err)
	}
	if err := m.LogCreateTable(u); err != nil {
		tb.Fatal(err)
	}
	if err := sm.DropTable("u"); err != nil {
		tb.Fatal(err)
	}
	if err := m.LogDropTable("u"); err != nil {
		tb.Fatal(err)
	}
	if err := sm.AddView("w", "SELECT name FROM t WHERE score > 1"); err != nil {
		tb.Fatal(err)
	}
	if err := m.LogCreateView("w", "SELECT name FROM t WHERE score > 1"); err != nil {
		tb.Fatal(err)
	}
	if err := m.Close(); err != nil {
		tb.Fatal(err)
	}
}

// TestDiffRestoreByteAlignedGoldens: catalog.fsba.snap and decimal.fsba.snap
// were written when the size model priced byte-aligned codes only, so the
// columns it sealed hold FSBA code vectors where codecCatalog and
// decimalCatalog now bit-pack them; decimal_patched.snap was written before
// corrections, so its decimals patch the rows patchedCatalog now corrects.
// They stay restorable and hold the same rows, cell for cell, bit for bit.
func TestDiffRestoreByteAlignedGoldens(t *testing.T) {
	for file, build := range map[string]func(testing.TB) *storage.StorageManager{"catalog.fsba.snap": codecCatalog, "decimal.fsba.snap": decimalCatalog,
		"decimal_patched.snap": patchedCatalog} {
		img, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		restored := storage.NewStorageManager()
		if _, _, err := decodeSnapshot(img, restored, 1); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		want := build(t)
		for _, name := range restored.TableNames() {
			got, _ := restored.GetTable(name)
			exp, err := want.GetTable(name)
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			if got.ChunkCount() != exp.ChunkCount() {
				t.Fatalf("%s: table %s restores %d chunks, want %d", file, name, got.ChunkCount(), exp.ChunkCount())
			}
			for ci, c := range got.Chunks() {
				ec := exp.GetChunk(types.ChunkID(ci))
				for col := range c.ColumnCount() {
					g, e := c.GetSegment(types.ColumnID(col)), ec.GetSegment(types.ColumnID(col))
					if g.Len() != e.Len() {
						t.Fatalf("%s: %s chunk %d column %d holds %d rows, want %d", file, name, ci, col, g.Len(), e.Len())
					}
					for o := range g.Len() {
						x, y := g.ValueAt(types.ChunkOffset(o)), e.ValueAt(types.ChunkOffset(o))
						if x.Type != y.Type || x.I != y.I || math.Float64bits(x.F) != math.Float64bits(y.F) || x.S != y.S {
							t.Fatalf("%s: %s chunk %d column %d row %d = %v, want %v", file, name, ci, col, o, x, y)
						}
					}
				}
			}
		}
	}
}

// TestDiffFormatGolden holds the bytes the durability formats write to files
// under testdata/: snapshots of codecCatalog, of decimalCatalog, of
// patchedCatalog (decimal_corrected.snap) and of an empty catalog, the
// snapshot and log a fixed commit sequence leaves in its data directory, and
// the log of one bare commit batch of every value tag. Rerun with
// -update-golden only for a deliberate format change.
func TestDiffFormatGolden(t *testing.T) {
	got := map[string][]byte{}
	var err error
	if got["catalog.snap"], err = encodeSnapshot(codecCatalog(t), 12345, 678); err != nil {
		t.Fatal(err)
	}
	if got["decimal.snap"], err = encodeSnapshot(decimalCatalog(t), 12345, 678); err != nil {
		t.Fatal(err)
	}
	if got["decimal_corrected.snap"], err = encodeSnapshot(patchedCatalog(t), 12345, 678); err != nil {
		t.Fatal(err)
	}
	if got["empty.snap"], err = encodeSnapshot(storage.NewStorageManager(), 0, 0); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	codecSequence(t, dir)
	for file, name := range map[string]string{SnapshotFileName: "sequence.snap", WALFileName: "sequence.wal"} {
		if got[name], err = os.ReadFile(filepath.Join(dir, file)); err != nil {
			t.Fatal(err)
		}
	}
	batchDir := t.TempDir()
	_, _, m := openTestManager(t, batchDir, SyncOff)
	if _, err := m.AppendCommit(7, 9, append(commitOps(10), batchDelete)); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got["batch.wal"], err = os.ReadFile(filepath.Join(batchDir, WALFileName)); err != nil {
		t.Fatal(err)
	}

	for name, b := range got {
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, want) {
			i := 0
			for i < min(len(b), len(want)) && b[i] == want[i] {
				i++
			}
			t.Errorf("%s: %d bytes, want %d; first difference at byte %d", name, len(b), len(want), i)
		}
	}
}
