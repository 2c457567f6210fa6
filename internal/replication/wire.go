// Package replication implements primary/follower log shipping over the
// write-ahead log (ROADMAP item 4, the scale-out step): a primary-side
// shipper streams the WAL's CRC-framed commit batches — the exact on-disk
// bytes — to N followers, which replay them continuously and serve reads at
// a commit-barrier consistent snapshot. Followers that are too far behind
// (or brand new) bootstrap from the primary's checkpoint file and tail the
// log from its cut LSN.
//
// The transport is any io.ReadWriteCloser: a net.Conn for the TCP topology,
// or one end of a net.Pipe for the single-process multi-engine setup. The
// message framing is identical either way, so the in-process prototype
// exercises the same bytes the network carries.
package replication

import (
	"encoding/binary"
	"io"
	"math"

	"hyrise/internal/persistence"
)

// Message framing: a WAL frame (persistence.OpenFrame) whose payload is the
// type byte and the message body — [uint32 LE length][uint32 LE CRC32][type]
// [body] — read by the WAL's own frame reader. Fixed-width little-endian
// integers inside bodies.
const (
	// msgHello (follower → primary) opens a session: int64 fromLSN, the first
	// log offset the follower wants. fromLSN < 0 requests a snapshot
	// bootstrap; so does any fromLSN outside the primary's retained log.
	msgHello = byte('H')
	// msgSnapChunk (primary → follower) carries the next slice of the
	// primary's checkpoint file.
	msgSnapChunk = byte('C')
	// msgSnapEnd closes the file. The follower decodes it and tails the log
	// from the cut its header holds.
	msgSnapEnd = byte('E')
	// msgWAL carries a run of whole WAL frames: int64 start LSN, then the raw
	// framed bytes exactly as they appear on the primary's disk.
	msgWAL = byte('W')
	// msgHeartbeat (primary → follower) reports the primary's position when
	// there is nothing to ship: int64 end LSN, uint64 last commit id,
	// int64 send time (unix nanoseconds) for lag measurement.
	msgHeartbeat = byte('T')
	// msgAck (follower → primary) reports apply progress: int64 applied LSN,
	// uint64 applied commit id.
	msgAck = byte('A')
)

// writeMsg frames and writes one message. The writer is typically buffered;
// the caller flushes.
func writeMsg(w io.Writer, typ byte, payload []byte) error {
	frame := persistence.OpenFrame(make([]byte, 0, 8+1+len(payload))) // header, type, body
	frame = append(append(frame, typ), payload...)
	persistence.CloseFrame(frame)
	_, err := w.Write(frame)
	return err
}

// readMsg reads one message through persistence.ReadFrame: its length bound,
// its CRC check, and a payload that grows as its bytes arrive.
func readMsg(r io.Reader) (typ byte, payload []byte, err error) {
	frame, err := persistence.ReadFrame(r, math.MaxInt64, nil)
	if err != nil {
		return 0, nil, err
	}
	return frame[0], frame[1:], nil
}

func putU64(buf []byte, vs ...uint64) {
	for i, v := range vs {
		binary.LittleEndian.PutUint64(buf[8*i:], v)
	}
}

func getU64(buf []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(buf[8*i:])
}

func getI64(buf []byte, i int) int64 {
	return int64(getU64(buf, i))
}
