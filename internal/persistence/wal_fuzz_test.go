package persistence

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// FuzzWALFrames feeds arbitrary bytes to every reader of WAL frames. Nothing
// may panic, and:
//   - the whole-frame trim returns a prefix the strict walk accepts as
//     framing (a CRC failure is the follower's error, not the trim's), and the
//     bytes after it do not start with a whole frame;
//   - ApplyFrames on a fresh Applier returns an error or applies;
//   - replaying a WAL file holding the bytes truncates it to the end of the
//     last frame that checks and decodes.
func FuzzWALFrames(f *testing.F) {
	log := multiCommitLog(f)
	f.Add(log)
	f.Add(log[:len(log)-3])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := completeFramesPrefix(data)
		r := bytes.NewReader(data[:n])
		for r.Len() > 0 {
			if _, err := ReadFrame(r, int64(r.Len()), nil); err != nil && err != errFrameCRC {
				t.Fatalf("trim kept %d bytes the strict walk rejects: %v", n, err)
			}
		}
		if _, err := ReadFrame(bytes.NewReader(data[n:]), int64(len(data)-n), nil); err == nil || err == errFrameCRC {
			t.Fatalf("trim stopped at %d, before a whole frame", n)
		}

		_ = NewApplier(storage.NewStorageManager(), nil).ApplyFrames(data)

		path := filepath.Join(t.TempDir(), WALFileName)
		file := append([]byte(walMagic+"\x00\x00\x00\x00\x00\x00\x00\x00"), data...)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		end, err := replayWAL(path, 0, func(*record) error { return nil })
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if file, err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		if int64(len(file)) != walHeaderLen+end {
			t.Fatalf("replay ended at %d but left %d log bytes", end, len(file)-walHeaderLen)
		}
		r = bytes.NewReader(data[:end])
		for r.Len() > 0 {
			payload, err := ReadFrame(r, int64(r.Len()), nil)
			if err == nil {
				_, err = decodeRecord(payload)
			}
			if err != nil {
				t.Fatalf("replay kept a frame that does not check: %v", err)
			}
		}
		if payload, err := ReadFrame(bytes.NewReader(data[end:]), int64(len(data))-end, nil); err == nil {
			if _, err := decodeRecord(payload); err == nil {
				t.Fatalf("replay stopped at %d, before a good frame", end)
			}
		}
	})
}

// multiCommitLog returns the frames of a real log: DDL, multi-row commits, a
// delete and a view.
func multiCommitLog(tb testing.TB) []byte {
	dir := tb.TempDir()
	sm, tm, m := openTestManager(tb, dir, SyncOff)
	table := storage.NewTable("t", testDefs(), 4, true)
	if err := sm.AddTable(table); err != nil {
		tb.Fatal(err)
	}
	if err := m.LogCreateTable(table); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		insertTx(tb, tm, table, [][]types.Value{
			{types.Int(int64(2 * i)), types.Str("a"), types.Float(0.5)},
			{types.Int(int64(2*i + 1)), types.NullValue, types.NullValue},
		})
	}
	tx := tm.New()
	if err := tx.TryInvalidate(table.GetChunk(0), 1); err != nil {
		tb.Fatal(err)
	}
	tx.LogDelete("t", types.RowID{Chunk: 0, Offset: 1})
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	if err := m.LogCreateView("v", "SELECT id FROM t"); err != nil {
		tb.Fatal(err)
	}
	if err := m.Close(); err != nil {
		tb.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join(dir, WALFileName))
	if err != nil {
		tb.Fatal(err)
	}
	return buf[walHeaderLen:]
}
