package persistence

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// This file is the persistence manager's replication surface: retention pins
// that keep Checkpoint from truncating log a follower still needs, and a
// streaming reader that serves raw framed WAL bytes by LSN. The shipped bytes
// are exactly the on-disk frames, so follower replay shares the CRC framing
// and record codec with crash recovery; a bootstrapping follower is sent the
// checkpoint file (OpenCheckpoint).

// ErrWALTrimmed reports that the requested LSN precedes the log's current
// start: the prefix was checkpointed away and the reader must catch up from
// a snapshot instead.
var ErrWALTrimmed = errors.New("persistence: requested LSN precedes WAL start")

// WALPin holds the log's front at or below an LSN. A shipper pins at its
// next-unshipped offset and moves the pin forward as batches go out; Release
// lets checkpoints reclaim the prefix again.
type WALPin struct {
	m  *Manager
	id int
}

// PinWAL registers a retention pin at lsn and returns it. Multiple pins may
// coexist; Checkpoint truncates only below the minimum of all pinned LSNs.
func (m *Manager) PinWAL(lsn int64) *WALPin {
	m.pinMu.Lock()
	defer m.pinMu.Unlock()
	if m.pins == nil {
		m.pins = make(map[int]int64)
	}
	m.pinSeq++
	id := m.pinSeq
	m.pins[id] = lsn
	return &WALPin{m: m, id: id}
}

// Move raises (or lowers) the pin to lsn.
func (p *WALPin) Move(lsn int64) {
	p.m.pinMu.Lock()
	defer p.m.pinMu.Unlock()
	if _, ok := p.m.pins[p.id]; ok {
		p.m.pins[p.id] = lsn
	}
}

// Release removes the pin. Releasing twice is a no-op.
func (p *WALPin) Release() {
	p.m.pinMu.Lock()
	defer p.m.pinMu.Unlock()
	delete(p.m.pins, p.id)
}

// minPinnedLSN returns the lowest pinned LSN, if any pin is registered.
func (m *Manager) minPinnedLSN() (int64, bool) {
	m.pinMu.Lock()
	defer m.pinMu.Unlock()
	min, ok := int64(0), false
	for _, lsn := range m.pins {
		if !ok || lsn < min {
			min, ok = lsn, true
		}
	}
	return min, ok
}

// WALStartLSN returns the logical offset of the first byte still in the log.
func (m *Manager) WALStartLSN() int64 { return m.wal.StartLSN() }

// WALEndLSN returns the logical end offset of the log (the next append
// position).
func (m *Manager) WALEndLSN() int64 { return m.wal.EndLSN() }

// ReadWAL returns up to maxBytes of raw framed log starting at LSN from,
// trimmed to whole frames, plus the LSN one past the returned bytes. It
// returns ErrWALTrimmed when from precedes the log's start (the caller must
// bootstrap from a snapshot) and (nil, from, nil) when the log has nothing
// new. The file is reopened on every call: front-truncation swaps the inode
// under a long-lived handle, while the path always names the current log.
func (m *Manager) ReadWAL(from int64, maxBytes int) (data []byte, next int64, err error) {
	// Capture the end before opening: appends past this point may be
	// mid-flush, and everything below it is fully flushed to the OS.
	end := m.wal.EndLSN()
	if from >= end {
		return nil, from, nil
	}
	f, err := os.Open(filepath.Join(m.opts.Dir, WALFileName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, from, nil
		}
		return nil, 0, err
	}
	defer f.Close()
	start, err := readWALHeader(f)
	if err != nil {
		return nil, 0, err
	}
	if from < start {
		return nil, 0, fmt.Errorf("%w (start %d, requested %d)", ErrWALTrimmed, start, from)
	}
	avail := end - from
	if avail > int64(maxBytes) {
		avail = int64(maxBytes)
	}
	buf := make([]byte, avail)
	n, err := f.ReadAt(buf, walHeaderLen+(from-start))
	if err != nil && err != io.EOF {
		return nil, 0, err
	}
	buf = buf[:completeFramesPrefix(buf[:n])]
	if len(buf) == 0 {
		return nil, from, nil
	}
	return buf, from + int64(len(buf)), nil
}
