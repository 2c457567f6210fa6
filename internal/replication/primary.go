package replication

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"hyrise/internal/concurrency"
	"hyrise/internal/observe"
	"hyrise/internal/persistence"
)

const (
	// shipBatchBytes caps one msgWAL payload.
	shipBatchBytes = 256 << 10
	// shipPollInterval is how often an idle shipper re-checks the log end.
	// The WAL flushes to the OS on every append, so new commits are visible
	// to the streaming reader within one poll.
	shipPollInterval = 2 * time.Millisecond
	// heartbeatInterval paces position reports while the shipper is idle.
	heartbeatInterval = 50 * time.Millisecond
	// snapChunkBytes slices the checkpoint file for shipping.
	snapChunkBytes = 256 << 10
)

// Primary ships the WAL to followers. One goroutine per follower reads acks;
// the serving goroutine streams snapshot chunks, WAL batches, and
// heartbeats. Every follower session holds a retention pin so checkpoints
// never truncate log the follower has not received.
type Primary struct {
	pm *persistence.Manager
	tm *concurrency.TransactionManager

	mu        sync.Mutex
	ln        net.Listener
	conns     map[io.Closer]struct{}
	followers map[int64]*followerState
	seq       int64
	closed    bool
	wg        sync.WaitGroup

	followersGauge *observe.Gauge
	shippedBytes   *observe.Counter
	snapshotsSent  *observe.Counter
}

// followerState is the primary's view of one follower session, surfaced in
// meta_replication.
type followerState struct {
	id   int64
	peer string

	mu       sync.Mutex
	state    string
	sentLSN  int64
	ackedLSN int64
	ackedCID uint64
	lastAck  time.Time
}

// FollowerInfo is a snapshot of one follower session.
type FollowerInfo struct {
	ID       int64
	Peer     string
	State    string
	SentLSN  int64
	AckedLSN int64
	AckedCID uint64
	LastAck  time.Time
}

// NewPrimary creates a shipper over an engine's persistence manager and
// transaction manager. reg receives replication.* metrics (may be nil).
func NewPrimary(pm *persistence.Manager, tm *concurrency.TransactionManager, reg *observe.Registry) *Primary {
	p := &Primary{
		pm:        pm,
		tm:        tm,
		conns:     make(map[io.Closer]struct{}),
		followers: make(map[int64]*followerState),
	}
	if reg != nil {
		p.followersGauge = reg.Gauge("replication.followers")
		p.shippedBytes = reg.Counter("replication.shipped_bytes")
		p.snapshotsSent = reg.Counter("replication.snapshots_sent")
	}
	return p
}

// Listen binds the replication address and starts accepting followers in the
// background. It returns the actual address (useful with port 0).
func (p *Primary) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("replication: primary is closed")
	}
	p.ln = ln
	p.wg.Add(1)
	p.mu.Unlock()
	go func() {
		defer p.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				_ = p.ServeConn(conn, conn.RemoteAddr().String())
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// ServeConn runs one follower session over any transport (a net.Conn, or
// one end of a net.Pipe for the in-process topology) until the peer
// disconnects or the primary closes. It blocks.
func (p *Primary) ServeConn(conn io.ReadWriteCloser, peer string) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		conn.Close()
		return fmt.Errorf("replication: primary is closed")
	}
	p.conns[conn] = struct{}{}
	p.seq++
	st := &followerState{id: p.seq, peer: peer, state: "connected"}
	p.followers[st.id] = st
	p.mu.Unlock()
	if p.followersGauge != nil {
		p.followersGauge.Add(1)
	}
	defer func() {
		conn.Close()
		p.mu.Lock()
		delete(p.conns, conn)
		delete(p.followers, st.id)
		p.mu.Unlock()
		if p.followersGauge != nil {
			p.followersGauge.Add(-1)
		}
	}()
	return p.serve(conn, st)
}

func (p *Primary) serve(conn io.ReadWriteCloser, st *followerState) error {
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)

	typ, payload, err := readMsg(br)
	if err != nil {
		return err
	}
	if typ != msgHello || len(payload) < 8 {
		return fmt.Errorf("replication: expected hello, got %q", typ)
	}
	from := getI64(payload, 0)

	// Pin before deciding between tail and bootstrap: a checkpoint running
	// right now must not truncate the suffix we are about to ship. The pin
	// lands at the current start; re-reading the start afterwards closes the
	// race where truncation won between the read and the pin.
	pin := p.pm.PinWAL(p.pm.WALStartLSN())
	defer pin.Release()
	start := p.pm.WALStartLSN()

	if from < start || from > p.pm.WALEndLSN() {
		// Bootstrap: new follower (from < 0), trimmed-away suffix, or a
		// divergent position from a previous primary. Ship a checkpoint and
		// restart the tail at its cut.
		cut, err := p.sendSnapshot(bw, st)
		if err != nil {
			return err
		}
		pin.Move(cut)
		from = cut
	} else {
		pin.Move(from)
	}
	st.setState("streaming")

	// Ack reader: progress reports arrive asynchronously while we ship.
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		for {
			typ, payload, err := readMsg(br)
			if err != nil {
				return
			}
			if typ == msgAck && len(payload) >= 16 {
				st.mu.Lock()
				st.ackedLSN = getI64(payload, 0)
				st.ackedCID = getU64(payload, 1)
				st.lastAck = time.Now()
				st.mu.Unlock()
			}
		}
	}()

	err = p.ship(bw, st, pin, from, ackDone)
	conn.Close() // unblocks the ack reader
	<-ackDone
	return err
}

// sendSnapshot checkpoints and streams the snapshot file in chunks, then
// closes it. It returns the file's cut LSN. The session's retention pin,
// still at the log start, keeps the checkpoint from truncating past it.
func (p *Primary) sendSnapshot(bw *bufio.Writer, st *followerState) (int64, error) {
	st.setState("snapshotting")
	f, cutLSN, err := p.pm.OpenCheckpoint()
	if err != nil {
		return 0, err
	}
	defer f.Close()
	// Hiding the file's WriteTo makes CopyBuffer read snapChunkBytes at a time.
	if _, err := io.CopyBuffer(chunkWriter{bw}, struct{ io.Reader }{f}, make([]byte, snapChunkBytes)); err != nil {
		return 0, err
	}
	if err := writeMsg(bw, msgSnapEnd, nil); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	if p.snapshotsSent != nil {
		p.snapshotsSent.Inc()
	}
	return cutLSN, nil
}

// chunkWriter sends every write as one msgSnapChunk.
type chunkWriter struct{ w io.Writer }

func (c chunkWriter) Write(p []byte) (int, error) { return len(p), writeMsg(c.w, msgSnapChunk, p) }

// ship is the send loop: drain the log from `from`, heartbeat when idle.
// The session's retention pin trails the shipped position.
func (p *Primary) ship(bw *bufio.Writer, st *followerState, pin *persistence.WALPin, from int64, ackDone <-chan struct{}) error {
	var lastHeartbeat time.Time
	for {
		select {
		case <-ackDone:
			return nil // peer hung up
		default:
		}
		if p.isClosed() {
			return nil
		}
		// ErrWALTrimmed cannot happen while pinned; if it does anyway the
		// session ends and the follower reconnects into a bootstrap.
		data, next, err := p.pm.ReadWAL(from, shipBatchBytes)
		if err != nil {
			return err
		}
		if len(data) > 0 {
			payload := make([]byte, 8+len(data))
			putU64(payload[:8], uint64(from))
			copy(payload[8:], data)
			if err := writeMsg(bw, msgWAL, payload); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
			from = next
			pin.Move(from)
			st.mu.Lock()
			st.sentLSN = from
			st.mu.Unlock()
			if p.shippedBytes != nil {
				p.shippedBytes.Add(int64(len(data)))
			}
			continue
		}
		if time.Since(lastHeartbeat) >= heartbeatInterval {
			var hb [24]byte
			putU64(hb[:], uint64(p.pm.WALEndLSN()), uint64(p.tm.LastCommitID()), uint64(time.Now().UnixNano()))
			if err := writeMsg(bw, msgHeartbeat, hb[:]); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
			lastHeartbeat = time.Now()
		}
		time.Sleep(shipPollInterval)
	}
}

func (st *followerState) setState(s string) {
	st.mu.Lock()
	st.state = s
	st.mu.Unlock()
}

func (p *Primary) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Followers snapshots the connected follower sessions.
func (p *Primary) Followers() []FollowerInfo {
	p.mu.Lock()
	states := make([]*followerState, 0, len(p.followers))
	for _, st := range p.followers {
		states = append(states, st)
	}
	p.mu.Unlock()
	out := make([]FollowerInfo, 0, len(states))
	for _, st := range states {
		st.mu.Lock()
		out = append(out, FollowerInfo{
			ID:       st.id,
			Peer:     st.peer,
			State:    st.state,
			SentLSN:  st.sentLSN,
			AckedLSN: st.ackedLSN,
			AckedCID: st.ackedCID,
			LastAck:  st.lastAck,
		})
		st.mu.Unlock()
	}
	// Stable order for meta tables and tests.
	slices.SortFunc(out, func(a, b FollowerInfo) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// EndLSN returns the primary's current log end.
func (p *Primary) EndLSN() int64 { return p.pm.WALEndLSN() }

// Close stops accepting, disconnects all followers, and waits for their
// sessions to finish.
func (p *Primary) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	if p.ln != nil {
		_ = p.ln.Close()
	}
	for c := range p.conns {
		_ = c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}
