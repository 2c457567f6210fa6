// Package replication implements primary/follower log shipping over the
// write-ahead log (ROADMAP item 4, the scale-out step): a primary-side
// shipper streams the WAL's CRC-framed commit batches — the exact on-disk
// bytes — to N followers, which replay them continuously and serve reads at
// a commit-barrier consistent snapshot. Followers that are too far behind
// (or brand new) bootstrap from an in-memory snapshot image and tail the log
// from its cut LSN.
//
// The transport is any io.ReadWriteCloser: a net.Conn for the TCP topology,
// or one end of a net.Pipe for the single-process multi-engine setup. The
// message framing is identical either way, so the in-process prototype
// exercises the same bytes the network carries.
package replication

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Message framing: [type byte][uint32 LE payload length][uint32 LE
// CRC32(payload)][payload]. Fixed-width little-endian integers inside
// payloads, matching the WAL's own framing conventions.
const (
	// msgHello (follower → primary) opens a session: int64 fromLSN, the first
	// log offset the follower wants. fromLSN < 0 requests a snapshot
	// bootstrap; so does any fromLSN outside the primary's retained log.
	msgHello = byte('H')
	// msgSnapBegin (primary → follower) announces a snapshot image:
	// int64 total size in bytes. Chunks follow.
	msgSnapBegin = byte('B')
	// msgSnapChunk carries one slice of the snapshot image.
	msgSnapChunk = byte('C')
	// msgSnapEnd closes the image: int64 cut LSN, uint64 cut commit id. The
	// follower decodes the image and tails the log from the cut.
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

// maxMsgLen bounds one message so a corrupt length field cannot trigger a
// giant allocation; maxSnapshotLen bounds the image msgSnapBegin announces,
// of which a follower reserves one chunk's worth up front.
const (
	maxMsgLen      = 1 << 30
	maxSnapshotLen = 1 << 40
)

// writeMsg frames and writes one message. The writer is typically buffered;
// the caller flushes.
func writeMsg(w io.Writer, typ byte, payload []byte) error {
	var hdr [9]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readMsg reads and CRC-checks one message.
func readMsg(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	length := int64(binary.LittleEndian.Uint32(hdr[1:5]))
	wantCRC := binary.LittleEndian.Uint32(hdr[5:9])
	if length > maxMsgLen {
		return 0, nil, fmt.Errorf("replication: message length %d exceeds limit", length)
	}
	if length > 1<<16 {
		// Grown as the bytes arrive: a length the peer never fills costs
		// nothing.
		payload, err = io.ReadAll(io.LimitReader(r, length))
		if err == nil && int64(len(payload)) < length {
			err = io.ErrUnexpectedEOF
		}
	} else {
		payload = make([]byte, length)
		_, err = io.ReadFull(r, payload)
	}
	if err != nil {
		return 0, nil, err
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return 0, nil, fmt.Errorf("replication: message fails CRC check")
	}
	return hdr[0], payload, nil
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
