package persistence

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// FuzzSnapshot feeds arbitrary snapshot bodies to DecodeSnapshot; the harness
// adds the magic and recomputes the trailing CRC, so mutations reach the body
// decoder. Nothing may panic: the decode errors or loads, a loaded catalog's
// rows read back, and the catalog encodes and decodes again without error.
// The seeds are the images of codecCatalog, decimalCatalog and
// patchedCatalog (corrected decimals), which hold every segment tag but the
// patched decimal's, MVCC bitmaps and a view, the empty catalog's, a string
// tail whose replayed placeholder left a dead entry in its blob, and
// decimal_patched.snap, which holds the patched decimal.
func FuzzSnapshot(f *testing.F) {
	for _, sm := range []*storage.StorageManager{codecCatalog(f), decimalCatalog(f), storage.NewStorageManager(), patchedCatalog(f), filledTailCatalog(f)} {
		img, err := encodeSnapshot(sm, 12345, 678)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img[len(snapMagic) : len(img)-4])
	}
	img, err := os.ReadFile(filepath.Join("testdata", "decimal_patched.snap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img[len(snapMagic) : len(img)-4])
	f.Fuzz(func(t *testing.T, body []byte) {
		img := binary.LittleEndian.AppendUint32(append([]byte(snapMagic), body...), crc32.ChecksumIEEE(body))
		sm := storage.NewStorageManager()
		lsn, cid, err := DecodeSnapshot(img, sm)
		if err != nil {
			return
		}
		for _, name := range sm.TableNames() {
			table, _ := sm.GetTable(name)
			for _, c := range table.Chunks() {
				for col := range c.ColumnCount() {
					seg := c.GetSegment(types.ColumnID(col))
					for o := range c.Size() {
						seg.ValueAt(types.ChunkOffset(o))
					}
				}
			}
		}
		again, err := encodeSnapshot(sm, lsn, cid)
		if err != nil {
			t.Fatalf("a loaded catalog does not encode: %v", err)
		}
		if _, _, err := DecodeSnapshot(again, storage.NewStorageManager()); err != nil {
			t.Fatalf("a loaded catalog's image does not decode: %v", err)
		}
	})
}

// filledTailCatalog holds a mutable string tail whose rows 0 to 2 were
// placeholders and row 1 was filled by replay: its blob holds the
// placeholder's dead entry, which the snapshot leaves behind.
func filledTailCatalog(tb testing.TB) *storage.StorageManager {
	sm := storage.NewStorageManager()
	table := storage.NewTable("tail", []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64}, {Name: "s", Type: types.TypeString, Nullable: true},
	}, 64, true)
	if err := sm.AddTable(table); err != nil {
		tb.Fatal(err)
	}
	for _, r := range []struct {
		off int
		s   types.Value
	}{{3, types.Str("three")}, {1, types.Str("one, replayed")}, {4, types.NullValue}} {
		if _, err := table.RestoreRowAt(types.RowID{Offset: types.ChunkOffset(r.off)}, []types.Value{types.Int(int64(r.off)), r.s}); err != nil {
			tb.Fatal(err)
		}
	}
	return sm
}
