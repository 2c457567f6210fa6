package storage

import (
	"strings"
	"testing"

	"hyrise/internal/types"
)

// TestStringSegmentPastItsOffsetsIsAnError: a row whose entry would take a
// string segment's blob past what its 32-bit offsets address (lowered here to
// 64 bytes) is an error, never a panic, and leaves everything as it was: the
// segment, the chunk's other columns, a replayed placeholder; a Loader reports
// it from Close and publishes no chunk from then on; a snapshot's entries that
// pass it do not restore.
func TestStringSegmentPastItsOffsetsIsAnError(t *testing.T) {
	defer func(was int) { maxStringBytes = was }(maxStringBytes)
	maxStringBytes = 64
	long := strings.Repeat("x", 40)

	s := NewStringSegment(16, true)
	if err := s.Append(long, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(long, false); err == nil || s.Len() != 1 || len(s.Blob()) != 41 {
		t.Fatalf("second 41-byte entry: err %v, %d rows, %d bytes", err, s.Len(), len(s.Blob()))
	}

	table := NewTable("t", testDefs(), 16, true)
	row := func(id int, name string) []types.Value {
		return []types.Value{types.Int(int64(id)), types.Float(1), types.Str(name)}
	}
	if _, err := table.AppendRow(row(0, long)); err != nil {
		t.Fatal(err)
	}
	if _, err := table.AppendRow(row(1, long)); err == nil {
		t.Fatal("a row past the blob's offsets was appended")
	}
	c := table.GetChunk(0)
	for col := range c.ColumnCount() {
		if n := c.GetSegment(types.ColumnID(col)).Len(); n != 1 || c.Size() != 1 {
			t.Fatalf("column %d holds %d rows, the chunk %d, after a refused row: want 1", col, n, c.Size())
		}
	}

	replay := NewTable("r", testDefs(), 16, true)
	if _, err := replay.RestoreRowAt(types.RowID{Offset: 1}, row(1, long)); err != nil {
		t.Fatal(err)
	}
	if _, err := replay.RestoreRowAt(types.RowID{Offset: 0}, row(0, long)); err == nil {
		t.Fatal("a replayed row past the blob's offsets filled its placeholder")
	}

	loaded := NewTable("l", testDefs(), 2, false)
	l := NewLoader(loaded, 0)
	for i, name := range []string{"a", "b", long, long, "c", "d"} {
		l.Int(int64(i))
		l.Float(1)
		l.Str(name)
		l.EndRow()
	}
	if err := l.Close(); err == nil || loaded.ChunkCount() != 1 {
		t.Fatalf("a load past a blob's offsets: err %v, %d chunks published, want an error and the one chunk before it", err, loaded.ChunkCount())
	}

	entries := s.AppendEntries(nil)
	entries = s.AppendEntries(entries)
	if _, _, err := ReadStringEntries(entries, 2, nil, false); err == nil {
		t.Fatal("entries past the offsets' reach restored")
	}
}
