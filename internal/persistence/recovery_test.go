package persistence

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"hyrise/internal/concurrency"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Recovery restores the snapshot (chunks decode in parallel) and replays the
// WAL suffix one frame at a time. The tests here hold replay against the
// follower's streamed apply, pin the exact frame a torn log stops at, and run
// the snapshot decode serially and with a worker pool.

// seedManyCommits writes a CREATE TABLE and then one single-row commit after
// another: an insert frame and a commit frame each.
func seedManyCommits(t *testing.T, dir string, commits int) {
	t.Helper()
	sm, tm, m := openTestManager(t, dir, SyncOff)
	table := storage.NewTable("t", testDefs(), 64, true)
	if err := sm.AddTable(table); err != nil {
		t.Fatal(err)
	}
	if err := m.LogCreateTable(table); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < commits; i++ {
		insertTx(t, tm, table, [][]types.Value{
			{types.Int(int64(i)), types.Str("r"), types.Float(float64(i))},
		})
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// mvccStamps lists every row's begin and end commit id in storage order.
func mvccStamps(table *storage.Table) []types.CommitID {
	var out []types.CommitID
	for _, c := range table.Chunks() {
		mvcc := c.MvccData()
		for o := 0; o < c.Size(); o++ {
			off := types.ChunkOffset(o)
			out = append(out, mvcc.Begin(off), mvcc.End(off))
		}
	}
	return out
}

// TestDiffReplayMatchesStreamedApply recovers one 700-commit log twice: by
// crash replay (Open) and the way a follower tails a primary (ReadWAL in
// 64-byte reads, each through ApplyFrames). The two catalogs must agree on
// rows, MVCC stamps and the highest commit and transaction ids.
func TestDiffReplayMatchesStreamedApply(t *testing.T) {
	dir := t.TempDir()
	const commits = 700
	seedManyCommits(t, dir, commits)

	sm, tm, m := openTestManager(t, dir, SyncOff)
	defer m.Close()
	recovered, err := sm.GetTable("t")
	if err != nil {
		t.Fatal(err)
	}
	want := visibleRows(tm, recovered)
	if len(want) != commits {
		t.Fatalf("crash recovery got %d rows, want %d", len(want), commits)
	}

	sm2 := storage.NewStorageManager()
	applier := NewApplier(sm2, nil)
	var lsn int64
	for {
		data, next, err := m.ReadWAL(lsn, 64)
		if err != nil {
			t.Fatalf("ReadWAL(%d): %v", lsn, err)
		}
		if next == lsn {
			break
		}
		if err := applier.ApplyFrames(data); err != nil {
			t.Fatalf("ApplyFrames at %d: %v", lsn, err)
		}
		lsn = next
	}
	if lsn != m.WALEndLSN() {
		t.Fatalf("stream stopped at %d, log ends at %d", lsn, m.WALEndLSN())
	}
	streamed, err := sm2.GetTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(visibleRows(tm, streamed), want) {
		t.Fatal("streamed apply diverged from crash recovery: rows")
	}
	if !slices.Equal(mvccStamps(streamed), mvccStamps(recovered)) {
		t.Fatal("streamed apply diverged from crash recovery: MVCC stamps")
	}
	cid, tid := applier.MaxIDs()
	started, _, _ := tm.Stats()
	if cid != tm.LastCommitID() || int64(tid) != started {
		t.Fatalf("streamed MaxIDs (%d, %d), crash recovery (%d, %d)", cid, tid, tm.LastCommitID(), started)
	}
}

// walFrame is one frame of a WAL file: its file offset and record kind.
type walFrame struct {
	off  int64
	kind byte
}

// walFrames walks a well-formed WAL file's frames.
func walFrames(t *testing.T, file []byte) []walFrame {
	t.Helper()
	r := bytes.NewReader(file[walHeaderLen:])
	var frames []walFrame
	for r.Len() > 0 {
		off := int64(len(file) - r.Len())
		payload, err := ReadFrame(r, int64(r.Len()), nil)
		if err != nil {
			t.Fatalf("frame at %d: %v", off, err)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("frame at %d: %v", off, err)
		}
		frames = append(frames, walFrame{off, rec.kind})
	}
	return frames
}

// TestCrashWALTornTail flips one byte of a 600-commit log — its last byte,
// then a byte in the middle — and reopens: replay applies exactly the commits
// whose frames all precede the damaged frame, truncates the file at that
// frame's offset, and appending resumes from there.
func TestCrashWALTornTail(t *testing.T) {
	const commits = 600
	for _, tc := range []struct {
		name string
		at   func(size int) int
	}{
		{"tail", func(size int) int { return size - 1 }},
		{"middle", func(size int) int { return walHeaderLen + (size-walHeaderLen)/2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			seedManyCommits(t, dir, commits)
			walPath := filepath.Join(dir, WALFileName)
			buf, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			// The damaged frame is the last one starting at or before the
			// flipped byte; the commit frames before it survive.
			frames := walFrames(t, buf)
			off := tc.at(len(buf))
			damaged := 0
			for damaged+1 < len(frames) && frames[damaged+1].off <= int64(off) {
				damaged++
			}
			survive := 0
			for _, f := range frames[:damaged] {
				if f.kind == recCommit {
					survive++
				}
			}
			buf[off] ^= 0xFF
			if err := os.WriteFile(walPath, buf, 0o644); err != nil {
				t.Fatal(err)
			}

			sm, tm, m := openTestManager(t, dir, SyncOff)
			table, err := sm.GetTable("t")
			if err != nil {
				t.Fatal(err)
			}
			rows := visibleRows(tm, table)
			if len(rows) != survive {
				t.Fatalf("recovered %d commits, want the %d before the frame at %d", len(rows), survive, frames[damaged].off)
			}
			for i, row := range rows {
				if row[0].I != int64(i) {
					t.Fatalf("row %d = %v: recovered rows are not the commit-order prefix", i, row)
				}
			}
			if st, err := os.Stat(walPath); err != nil || st.Size() != frames[damaged].off {
				t.Fatalf("log not truncated at the damaged frame (offset %d): %v, %v", frames[damaged].off, st.Size(), err)
			}
			insertTx(t, tm, table, [][]types.Value{{types.Int(commits), types.Str("z"), types.Float(9)}})
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			sm2, tm2, m2 := openTestManager(t, dir, SyncOff)
			defer m2.Close()
			table2, err := sm2.GetTable("t")
			if err != nil {
				t.Fatal(err)
			}
			if got := len(visibleRows(tm2, table2)); got != survive+1 {
				t.Fatalf("want %d rows after re-append, got %d", survive+1, got)
			}
		})
	}
}

// TestDiffSnapshotV2ParallelRoundTrip checkpoints a multi-chunk catalog and
// restores it with serial and parallel chunk decode; both must reproduce the
// pre-checkpoint state and the file must carry the v2 magic.
func TestDiffSnapshotV2ParallelRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sm, tm, m := openTestManager(t, dir, SyncOff)
	table := storage.NewTable("t", testDefs(), 8, true) // many small chunks
	if err := sm.AddTable(table); err != nil {
		t.Fatal(err)
	}
	if err := m.LogCreateTable(table); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		vals := []types.Value{types.Int(int64(i)), types.Str("v"), types.NullValue}
		if i%3 == 0 {
			vals[1] = types.NullValue
		}
		insertTx(t, tm, table, [][]types.Value{vals})
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := visibleRows(tm, table)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	img, err := os.ReadFile(filepath.Join(dir, SnapshotFileName))
	if err != nil {
		t.Fatal(err)
	}
	if string(img[:8]) != snapMagic {
		t.Fatalf("snapshot magic = %q, want %q", img[:8], snapMagic)
	}
	// Any other magic (older format versions included) is a hard error.
	other := append([]byte("HYSNAP00"), img[8:]...)
	if _, _, err := DecodeSnapshot(other, storage.NewStorageManager()); err == nil {
		t.Fatal("image with an unknown magic decoded without error")
	}

	for _, workers := range []int{1, 4} {
		sm2 := storage.NewStorageManager()
		if _, _, err := decodeSnapshot(img, sm2, workers); err != nil {
			t.Fatalf("decodeSnapshot(%d): %v", workers, err)
		}
		got, err := sm2.GetTable("t")
		if err != nil {
			t.Fatal(err)
		}
		tm2 := concurrency.NewTransactionManager()
		if !rowsEqual(visibleRows(tm2, got), want) {
			t.Fatalf("workers=%d: restored rows diverged", workers)
		}
	}
}

// TestDiffSnapshotV2CorruptChunkBody hand-builds v2 images whose chunks are
// structurally wrong in ways the file CRC cannot catch on its own — trailing
// garbage inside a declared body, a body length pointing past the end of the
// image, a short body, and a mutable chunk holding more rows than its table's
// chunk size. Decode (serial and parallel) must surface an error, not a panic
// or a silently wrong table.
func TestDiffSnapshotV2CorruptChunkBody(t *testing.T) {
	fill := func(table *storage.Table, rows int) *storage.Chunk {
		for i := range rows {
			if _, err := table.AppendRow([]types.Value{
				types.Int(int64(i)), types.Str("x"), types.Float(1),
			}); err != nil {
				t.Fatal(err)
			}
		}
		return table.Chunks()[0]
	}
	small := storage.NewTable("t", testDefs(), 4, false)
	sealed := fill(small, 4)

	// buildImage writes a one-table image (lsn 0, lastCID 0) of schema's
	// table holding chunk, framed by mutate, and no views.
	buildImage := func(schema *storage.Table, chunk *storage.Chunk, mutate func(dst, body []byte) []byte) []byte {
		img := append([]byte(snapMagic), 0, 0, 1)
		img = binary.AppendUvarint(appendSchema(img, schema), 1)
		body, err := appendChunk(nil, chunk)
		if err != nil {
			t.Fatal(err)
		}
		img = append(mutate(img, body), 0)
		return binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(img[len(snapMagic):]))
	}
	whole := func(dst, body []byte) []byte {
		return append(binary.AppendUvarint(dst, uint64(len(body))), body...)
	}

	cases := map[string][]byte{
		// Body length covers three garbage bytes after a valid chunk body.
		"trailing_garbage": buildImage(small, sealed, func(dst, body []byte) []byte {
			return whole(dst, append(body, 0xDE, 0xAD, 0xBF))
		}),
		// Body length runs past the end of the image.
		"length_overrun": buildImage(small, sealed, func(dst, body []byte) []byte {
			return append(binary.AppendUvarint(dst, uint64(len(body)+1_000_000)), body...)
		}),
		// Body truncated below what the chunk header promises.
		"short_body": buildImage(small, sealed, func(dst, body []byte) []byte {
			return whole(dst, body[:len(body)/2])
		}),
		// A growing chunk of 9 000 MVCC rows under a schema whose chunks hold
		// 100: restore sized the MVCC columns by the chunk size and stamped
		// rows past them, which panicked.
		"mutable_past_chunk_size": buildImage(storage.NewTable("t", testDefs(), 100, true),
			fill(storage.NewTable("t", testDefs(), 10_000, true), 9000), whole),
	}
	for name, img := range cases {
		for _, workers := range []int{1, 4} {
			sm := storage.NewStorageManager()
			if _, _, err := decodeSnapshot(img, sm, workers); err == nil {
				t.Fatalf("%s workers=%d: corrupt chunk body decoded without error", name, workers)
			}
		}
	}
}
