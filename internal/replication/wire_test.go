package replication

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"hyrise/internal/concurrency"
	"hyrise/internal/observe"
	"hyrise/internal/persistence"
	"hyrise/internal/types"
)

// scriptConn is a transport that reads a fixed script and swallows writes.
type scriptConn struct{ io.Reader }

func (scriptConn) Write(p []byte) (int, error) { return len(p), nil }
func (scriptConn) Close() error                { return nil }

// frame appends one CRC-framed message to dst.
func frame(dst []byte, typ byte, payload []byte) []byte {
	var b bytes.Buffer
	_ = writeMsg(&b, typ, payload) // a bytes.Buffer does not fail
	return append(dst, b.Bytes()...)
}

func u64s(vs ...int64) []byte {
	b := make([]byte, 8*len(vs))
	for i, v := range vs {
		putU64(b[8*i:], uint64(v))
	}
	return b
}

// followerSession runs one follower session, past its hello, over script.
func followerSession(script []byte) error {
	f, _, _ := newFollower(func() (io.ReadWriteCloser, error) { return scriptConn{bytes.NewReader(script)}, nil })
	return f.streamOnce()
}

// TestFollowerRefusesBadSnapshotSizes: a bootstrap that is not a whole
// checkpoint file ends the session with an error — an end before any chunk,
// and chunks that do not decode. (A follower used to size its image buffer
// from a size the primary announced; a negative one panicked, a huge one
// reserved that much. The image is now the file's chunks, nothing announced.)
func TestFollowerRefusesBadSnapshotSizes(t *testing.T) {
	for name, script := range map[string][]byte{
		"end before any chunk": frame(nil, msgSnapEnd, nil),
		"corrupt image":        frame(frame(nil, msgSnapChunk, []byte("HYSNAP02 not an image")), msgSnapEnd, nil),
	} {
		if err := followerSession(script); err == nil || errors.Is(err, io.EOF) {
			t.Errorf("%s: the session ended with %v, want it refused", name, err)
		}
	}
}

// TestReadMsgAllocatesAsBytesArrive: a header announcing a 1 GiB message,
// then EOF, used to make readMsg allocate the whole GiB before it read a
// payload byte — and a primary reads the first message of every connection
// to its replication port that way, before any validation. The read now
// fails having allocated almost nothing.
func TestReadMsgAllocatesAsBytesArrive(t *testing.T) {
	hdr := append(persistence.OpenFrame(nil), msgHello)
	binary.LittleEndian.PutUint32(hdr, 1<<30) // the WAL's bound on one frame
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readMsg(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a message cut off after its header read without an error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("reading a bare header allocated %d bytes, want under 1 MiB", grew)
	}
}

// messages frames the messages fuzz input describes: each is a type byte, a
// 2-byte little-endian length and that many payload bytes (fewer at the end).
func messages(data []byte) []byte {
	var out []byte
	for len(data) >= 3 {
		n := min(int(binary.LittleEndian.Uint16(data[1:3])), len(data)-3)
		out = frame(out, data[0], data[3:3+n])
		data = data[3+n:]
	}
	return out
}

// describe is the fuzz input messages turns back into msgs.
func describe(msgs ...[]byte) []byte {
	var out []byte
	for _, m := range msgs {
		out = append(out, m[0])
		out = binary.LittleEndian.AppendUint16(out, uint16(len(m)-1))
		out = append(out, m[1:]...)
	}
	return out
}

// FuzzReplicationMessages feeds arbitrary sequences of CRC-framed messages to
// both ends of a session: to a follower after its hello, and to a primary's
// serve. Neither may panic. The follower's session ends with an error, at the
// latest when the script runs out; the primary's ends when its peer hangs up.
func FuzzReplicationMessages(f *testing.F) {
	s := newPrimaryStack(f)
	table := s.createTable(f, "t")
	for i := range 6 {
		s.insert(f, table, int64(i), "seed")
	}
	snap, cutLSN, err := s.pm.OpenCheckpoint()
	if err != nil {
		f.Fatal(err)
	}
	img, err := io.ReadAll(snap)
	snap.Close()
	if err != nil {
		f.Fatal(err)
	}
	msg := func(typ byte, payload []byte) []byte { return append([]byte{typ}, payload...) }
	hello := func(from int64) []byte { return describe(msg(msgHello, u64s(from)), msg(msgAck, u64s(0, 0))) }
	f.Add(describe(msg(msgSnapEnd, nil)), hello(-1))
	f.Add(describe(
		msg(msgSnapChunk, img[:len(img)/2]), msg(msgSnapChunk, img[len(img)/2:]), msg(msgSnapEnd, nil),
		msg(msgHeartbeat, u64s(cutLSN, int64(s.tm.LastCommitID()), 0)),
	), hello(s.pm.WALStartLSN()))
	f.Add(describe(msg(msgWAL, append(u64s(12345), 1, 2, 3))), hello(s.pm.WALEndLSN()+1))

	f.Fuzz(func(t *testing.T, toFollower, toPrimary []byte) {
		if err := followerSession(messages(toFollower)); err == nil {
			t.Fatal("a follower session over a finite script ended without an error")
		}
		st := &followerState{}
		_ = s.p.serve(scriptConn{bytes.NewReader(messages(toPrimary))}, st)
	})
}

// TestCommitsInOneBatchPublishTheirLSN applies one WAL batch holding three
// commits. A reader that WaitForCommit releases for a commit must already
// see the log position past that commit, in AppliedLSN and in the
// replication.applied_lsn gauge, not the position before the batch: the
// follower used to advance both only once the whole batch was applied.
func TestCommitsInOneBatchPublishTheirLSN(t *testing.T) {
	s := newPrimaryStack(t)
	table := s.createTable(t, "t")
	for i := 0; i < 3; i++ {
		s.insert(t, table, int64(i), "batched")
	}
	start := s.pm.WALStartLSN()
	data, next, err := s.pm.ReadWAL(start, 1<<20)
	if err != nil || next != s.pm.WALEndLSN() {
		t.Fatalf("ReadWAL = %d bytes up to %d, %v; want the whole log up to %d", len(data), next, err, s.pm.WALEndLSN())
	}
	script := frame(nil, msgWAL, append(u64s(start), data...))

	reg := observe.NewRegistry()
	f := NewFollower(newCatalog(), concurrency.NewTransactionManager(), reg,
		func() (io.ReadWriteCloser, error) { return scriptConn{bytes.NewReader(script)}, nil })
	f.appliedLSN = start
	var seen []int64
	f.applier = persistence.NewApplier(f.sm, func(cid types.CommitID, end int) {
		f.onCommit(cid, end)
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := f.WaitForCommit(ctx, cid); err != nil {
			t.Fatalf("commit %d: %v", cid, err)
		}
		lsn := f.Status().AppliedLSN
		if gauge, _ := reg.Get("replication.applied_lsn"); gauge != lsn {
			t.Errorf("commit %d: replication.applied_lsn = %d, AppliedLSN = %d", cid, gauge, lsn)
		}
		seen = append(seen, lsn)
	})
	if err := f.streamOnce(); !errors.Is(err, io.EOF) {
		t.Fatalf("session ended with %v, want EOF after the batch", err)
	}
	if len(seen) != 3 {
		t.Fatalf("saw %d commits, want 3", len(seen))
	}
	for i, lsn := range seen {
		if lsn <= start || (i > 0 && lsn <= seen[i-1]) || lsn > next {
			t.Fatalf("LSNs seen at the commits = %v, want them past %d, rising, up to %d", seen, start, next)
		}
	}
	if seen[2] != next || f.AppliedLSN() != next {
		t.Errorf("last commit at %d, follower at %d; want both at the batch end %d", seen[2], f.AppliedLSN(), next)
	}
}
