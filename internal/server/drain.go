// Graceful drain. Shutdown stops accepting connections, tells idle sessions
// to go away with a clean "57P01 admin_shutdown" ErrorResponse, lets busy
// sessions finish their in-flight statement (or extended-protocol batch, up
// to its Sync), and force-closes whatever remains when the deadline expires.
package server

import (
	"net"
	"sync"
	"time"
)

// connState tracks one connection's position relative to statement
// boundaries, so a drain can distinguish sessions that are safe to
// disconnect now from sessions mid-statement. A connection is busy from the
// moment a message is read until the statement completes — for the extended
// protocol, from the first Parse/Bind until Sync has been answered.
type connState struct {
	conn net.Conn

	mu      sync.Mutex
	busy    bool
	closing bool // drain requested; disconnect at the next boundary
}

// idleBoundary marks the connection idle and reports whether a drain wants
// it gone. Called by the connection goroutine whenever it reaches a
// statement boundary (before blocking on the next message).
func (st *connState) idleBoundary() (stop bool) {
	st.mu.Lock()
	st.busy = false
	stop = st.closing
	st.mu.Unlock()
	return stop
}

// beginMessage marks the connection busy. It reports false when a drain
// already claimed the idle connection — the shutdown notice has been written
// by Shutdown and the socket is closing, so the handler must just return.
func (st *connState) beginMessage() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closing && !st.busy {
		return false
	}
	st.busy = true
	return true
}

// requestClose asks the connection to disconnect. Idle connections (blocked
// reading the next message) get the shutdown notice written directly and
// their socket closed to wake the reader; busy connections are flagged and
// disconnect themselves at the next statement boundary.
func (st *connState) requestClose() {
	st.mu.Lock()
	st.closing = true
	idle := !st.busy
	st.mu.Unlock()
	if idle {
		writeShutdownNotice(st.conn)
		_ = st.conn.Close()
	}
}

// Shutdown drains the server: the listener closes immediately, idle
// connections are disconnected with 57P01, busy connections may finish their
// current statement, and any connection still alive after timeout is
// force-closed. A timeout <= 0 waits indefinitely. A connection still
// waiting for a session slot is refused at once.
func (s *Server) Shutdown(timeout time.Duration) {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.stopLocked()
	states := make([]*connState, 0, len(s.conns))
	for _, st := range s.conns {
		states = append(states, st)
	}
	s.mu.Unlock()

	if !alreadyClosed {
		for _, st := range states {
			st.requestClose()
		}
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	select {
	case <-done:
	case <-expired:
		s.mu.Lock()
		for conn := range s.conns {
			_ = conn.Close()
		}
		s.mu.Unlock()
		<-done
	}
}

// shutdownNotice is the ErrorResponse a draining server disconnects with:
// FATAL (the session is over, not just the statement) 57P01 admin_shutdown.
func shutdownNotice() []byte {
	return errorResponse("FATAL", codeAdminShutdown, "terminating connection due to administrator command")
}

// writeShutdownNotice writes the notice straight to the socket. It is used
// only for connections parked between statements, whose buffered writer is
// flushed and whose goroutine is blocked in a read — writing via the raw conn
// avoids racing that goroutine's bufio.Writer.
func writeShutdownNotice(conn net.Conn) {
	_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
	_, _ = conn.Write(shutdownNotice())
}
