// Package server implements Hyrise's network interface (paper §2.5): a
// TCP server speaking the PostgreSQL wire protocol, so psql and existing
// PostgreSQL drivers can talk to the database. Like the paper's
// implementation, only the features needed for receiving SQL queries and
// returning results exist — no authentication, no SSL — which keeps the
// implementation lean.
package server

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hyrise/internal/expression"
	"hyrise/internal/lqp"
	"hyrise/internal/observe"
	"hyrise/internal/pipeline"
	"hyrise/internal/types"
)

// DefaultSlowQueryThreshold is used when the slow-query log is enabled with
// a zero threshold.
const DefaultSlowQueryThreshold = 250 * time.Millisecond

// ReadRouter picks a read replica able to serve a consistent read at the
// primary's current commit barrier. AcquireRead returns (engine, true) when
// a caught-up replica is available within the router's wait budget, and
// (nil, false) to run the statement on the local engine instead.
type ReadRouter interface {
	AcquireRead(ctx context.Context) (*pipeline.Engine, bool)
}

// Server accepts PostgreSQL wire protocol connections.
type Server struct {
	engine *pipeline.Engine

	// router, when set, receives eligible read-only statements (SELECTs over
	// replicated tables, outside explicit transactions).
	routerMu sync.Mutex
	router   ReadRouter

	// pool, when set, bounds the statements of each class that run at once
	// (back-pressure under load).
	pool atomic.Pointer[executorPool]

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]*connState
	wg       sync.WaitGroup
	closed   bool
	stopping chan struct{} // closed with closed: ends admission waits
	sessions *slots        // one slot per admitted session; nil = unlimited
	// admissionWait, when > 0, makes a saturated server wait for a freed
	// session slot for up to this long before refusing with 53300.
	admissionWait time.Duration

	// backends maps the pid issued in BackendKeyData to the connection's
	// cancel state, so a CancelRequest arriving on a fresh connection can be
	// routed to the victim session.
	backendMu sync.Mutex
	backends  map[uint32]*backend
	nextPid   uint32

	// Slow-query log (opt-in): statements slower than slowThreshold are
	// written to slowW. slowMu serializes writes from connection goroutines.
	// With slowTrace set, each slow statement's EXPLAIN ANALYZE trace is
	// appended to the log entry.
	slowMu        sync.Mutex
	slowW         io.Writer
	slowThreshold time.Duration
	slowTrace     bool

	connsTotal      *observe.Counter
	connsActive     *observe.Gauge
	connsRejected   *observe.Counter
	cancelRequests  *observe.Counter
	slowQueries     *observe.Counter
	routedReads     *observe.Counter
	admissionWaitNS *observe.Histogram
}

// backend is the cancellation state of one admitted connection: the
// (pid, secret) pair sent as BackendKeyData, and — while a statement runs or
// waits to — that statement's live-query registry handle, the one that
// cancel_query fires too.
type backend struct {
	pid    uint32
	secret uint32

	mu sync.Mutex
	q  *observe.ActiveQuery // non-nil only while a statement is in flight
}

// setQuery points the connection's CancelRequest at the in-flight
// statement; nil closes the window.
func (b *backend) setQuery(q *observe.ActiveQuery) {
	b.mu.Lock()
	b.q = q
	b.mu.Unlock()
}

// fire cancels the in-flight statement, if any. Firing between statements
// is a harmless no-op, matching PostgreSQL ("the cancellation signal may
// arrive too late to have any effect").
func (b *backend) fire() {
	b.mu.Lock()
	q := b.q
	b.mu.Unlock()
	q.Cancel()
}

// New creates a server over an engine and registers the server's
// meta_executor_pool table in the engine's catalog.
func New(engine *pipeline.Engine) *Server {
	r := engine.Metrics()
	s := &Server{
		engine:          engine,
		conns:           make(map[net.Conn]*connState),
		stopping:        make(chan struct{}),
		backends:        make(map[uint32]*backend),
		connsTotal:      r.Counter("server_connections_total"),
		connsActive:     r.Gauge("server_connections_active"),
		connsRejected:   r.Counter("server_connections_rejected"),
		cancelRequests:  r.Counter("server_cancel_requests"),
		slowQueries:     r.Counter("server_slow_queries"),
		routedReads:     r.Counter("server_routed_reads"),
		admissionWaitNS: r.Histogram(observe.WaitAdmission.MetricName()),
	}
	engine.StorageManager().RegisterMetaTable("meta_executor_pool", s.metaExecutorPool)
	return s
}

// SetReadRouter installs (or, with nil, removes) the read router. With a
// router in place, simple-protocol SELECTs over user tables that run outside
// an explicit transaction are executed on the replica the router picks; the
// router guarantees the replica has applied at least the primary's current
// commit barrier, so routed reads stay read-your-writes consistent.
func (s *Server) SetReadRouter(r ReadRouter) {
	s.routerMu.Lock()
	s.router = r
	s.routerMu.Unlock()
}

func (s *Server) readRouter() ReadRouter {
	s.routerMu.Lock()
	defer s.routerMu.Unlock()
	return s.router
}

// SetMaxConnections caps the number of concurrently admitted sessions
// (admission control). Connections beyond the cap are refused during
// startup with SQLSTATE 53300 ("too many connections") instead of being
// accepted and left to stall. 0 or negative disables the cap. CancelRequest
// connections are exempt — they must get through precisely when the server
// is saturated.
func (s *Server) SetMaxConnections(n int) {
	s.mu.Lock()
	s.sessions = nil
	if n > 0 {
		s.sessions = newSlots(n, s.stopping)
	}
	s.mu.Unlock()
}

// SetAdmissionWait makes a saturated server wait up to d for a session slot
// to free before refusing a new connection with 53300; a freed slot admits a
// waiter at once. The blocked time is recorded in the wait.admission_ns
// histogram whether or not a slot opened. 0 (the default) refuses at once.
func (s *Server) SetAdmissionWait(d time.Duration) {
	s.mu.Lock()
	s.admissionWait = d
	s.mu.Unlock()
}

// EnableSlowQueryLog logs every statement slower than threshold to w
// (duration, row count, SQL). A zero threshold selects
// DefaultSlowQueryThreshold; a nil writer disables the log.
func (s *Server) EnableSlowQueryLog(w io.Writer, threshold time.Duration) {
	if threshold <= 0 {
		threshold = DefaultSlowQueryThreshold
	}
	s.slowMu.Lock()
	s.slowW = w
	s.slowThreshold = threshold
	s.slowMu.Unlock()
}

// EnableSlowQueryTrace makes each slow-query log entry carry the
// statement's full EXPLAIN ANALYZE trace (stage breakdown, wait events, and
// the annotated plan). It turns engine tracing on when no sink is installed.
func (s *Server) EnableSlowQueryTrace() {
	s.engine.EnsureTraceSink()
	s.slowMu.Lock()
	s.slowTrace = true
	s.slowMu.Unlock()
}

// noteQuery checks one executed statement against the slow-query log.
func (s *Server) noteQuery(session *pipeline.Session, sql string, d time.Duration, rows int) {
	s.slowMu.Lock()
	defer s.slowMu.Unlock()
	if s.slowW == nil || d < s.slowThreshold {
		return
	}
	s.slowQueries.Inc()
	fmt.Fprintf(s.slowW, "slow query: duration=%v rows=%d sql=%s\n",
		d, rows, strings.TrimSpace(sql))
	if !s.slowTrace || session == nil {
		return
	}
	tr := session.LastTrace()
	if tr == nil {
		return
	}
	for _, line := range strings.Split(strings.TrimRight(tr.String(), "\n"), "\n") {
		fmt.Fprintf(s.slowW, "  %s\n", line)
	}
	if plan := tr.PlanText(); plan != "" {
		for _, line := range strings.Split(strings.TrimRight(plan, "\n"), "\n") {
			fmt.Fprintf(s.slowW, "  %s\n", line)
		}
	}
}

// Listen binds the address (e.g. "127.0.0.1:5432") and returns the actual
// address (useful with port 0).
func (s *Server) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	return l.Addr().String(), nil
}

// Serve accepts connections until Close is called.
func (s *Server) Serve() error {
	s.mu.Lock()
	l := s.listener
	s.mu.Unlock()
	if l == nil {
		return fmt.Errorf("server: Listen first")
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		st := &connState{conn: conn}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			continue
		}
		s.conns[conn] = st
		s.mu.Unlock()
		s.connsTotal.Inc()
		s.connsActive.Inc()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn, st)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			s.connsActive.Dec()
		}()
	}
}

// Close stops accepting and closes all connections.
func (s *Server) Close() {
	s.mu.Lock()
	s.stopLocked()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// stopLocked closes the listener, refuses new connections and ends the
// admission waits; s.mu is held.
func (s *Server) stopLocked() {
	if !s.closed {
		s.closed = true
		close(s.stopping)
	}
	if s.listener != nil {
		_ = s.listener.Close()
	}
}

// --- protocol ---------------------------------------------------------------

const (
	sslRequestCode    = 80877103
	startupVersion3   = 196608
	cancelRequestCode = 80877102
)

// wire is one connection's framing. It keeps what every message would
// otherwise allocate: the length word read last, the payload read last —
// the next message reuses it, so a handler copies what it keeps — the
// header written last and the payload being built.
type wire struct {
	r *bufio.Reader
	w *bufio.Writer

	word [4]byte
	in   []byte
	hdr  [5]byte
	out  []byte
}

func (s *Server) handle(conn net.Conn, st *connState) {
	defer func() { _ = conn.Close() }()
	w := &wire{r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}

	req, err := s.readStartup(w)
	if err != nil {
		return
	}
	if req.isCancel {
		// A CancelRequest arrives on its own fresh connection carrying the
		// victim's (pid, secret). Per the PostgreSQL protocol the server
		// sends NO response on this connection — it processes the request
		// and closes silently, whether or not the key matched.
		s.cancelRequests.Inc()
		s.cancelBackend(req.pid, req.secret)
		return
	}

	// Admission control: refuse connections beyond the cap with a proper
	// "53300 too_many_connections" error instead of accepting and stalling.
	sessions, ok := s.admit()
	if !ok {
		s.connsRejected.Inc()
		w.writeErrorCode(codeTooManyConnections, "sorry, too many clients already")
		_ = w.w.Flush()
		return
	}
	if sessions != nil {
		defer sessions.release()
	}

	b := s.registerBackend()
	defer s.unregisterBackend(b.pid)
	if err := s.finishStartup(w, b); err != nil {
		return
	}

	session := s.engine.NewSession()
	defer session.Close() // a dropped or drained connection rolls back
	session.SetBackendPID(int64(b.pid))
	c := &clientConn{
		srv:     s,
		w:       w,
		session: session,
		b:       b,
		stmts:   map[string]*preparedStmt{},
		portals: map[string]*portal{},
	}

	// inBatch tracks the extended-protocol batch: a connection is busy from
	// its first extended message until the answering Sync, so a drain never
	// cuts a pipeline in half.
	inBatch := false
	for {
		if !inBatch {
			// Statement boundary: the connection is idle here. A drain in
			// progress disconnects it now, with a clean FATAL 57P01.
			if st.idleBoundary() {
				_, _ = w.w.Write(shutdownNotice())
				_ = w.w.Flush()
				return
			}
		}
		msgType, payload, err := w.readMessage()
		if err != nil {
			return
		}
		if !st.beginMessage() {
			// A drain claimed the connection while it was idle; the shutdown
			// notice is already on the wire.
			return
		}
		// After an extended-protocol error, discard everything until Sync
		// (Terminate still honored).
		if c.syncErr && msgType != 'S' && msgType != 'X' {
			continue
		}
		switch msgType {
		case 'Q':
			sql := cString(payload)
			delete(c.portals, "") // simple Query destroys the unnamed portal
			c.simpleQuery(sql)
		case 'P': // Parse
			inBatch = true
			c.handleParse(payload)
		case 'B': // Bind
			inBatch = true
			c.handleBind(payload)
		case 'D': // Describe
			inBatch = true
			c.handleDescribe(payload)
		case 'E': // Execute
			inBatch = true
			c.handleExecute(payload)
		case 'C': // Close (statement/portal)
			inBatch = true
			c.handleClose(payload)
		case 'S': // Sync
			c.handleSync()
			inBatch = false
		case 'H': // Flush
			_ = w.w.Flush()
		case 'X': // Terminate
			return
		default:
			c.protoError(codeProtocolViolation,
				fmt.Sprintf("unsupported message %q", msgType))
		}
	}
}

// startupRequest is the outcome of reading the startup phase: either a
// protocol-3 session start or a cancel request with the victim's key.
type startupRequest struct {
	isCancel    bool
	pid, secret uint32
}

// readStartup consumes the startup packet(s): SSL requests are refused,
// CancelRequests are surfaced to the caller, and a protocol-3 startup
// message completes normally. No response bytes are written here — the
// caller decides between admission, refusal, and cancel processing.
func (s *Server) readStartup(w *wire) (startupRequest, error) {
	for {
		length, err := w.readInt32()
		if err != nil {
			return startupRequest{}, err
		}
		if length < 8 || length > 1<<20 {
			return startupRequest{}, errors.New("bad startup packet length")
		}
		payload := make([]byte, length-4)
		if _, err := io.ReadFull(w.r, payload); err != nil {
			return startupRequest{}, err
		}
		code := int32(binary.BigEndian.Uint32(payload[:4]))
		switch code {
		case sslRequestCode:
			// No SSL (paper: "we ... do not implement features such as user
			// authentication or SSL").
			if _, err := w.w.Write([]byte{'N'}); err != nil {
				return startupRequest{}, err
			}
			_ = w.w.Flush()
			continue
		case cancelRequestCode:
			if len(payload) < 12 {
				return startupRequest{}, errors.New("short cancel request")
			}
			return startupRequest{
				isCancel: true,
				pid:      binary.BigEndian.Uint32(payload[4:8]),
				secret:   binary.BigEndian.Uint32(payload[8:12]),
			}, nil
		case startupVersion3:
			return startupRequest{}, nil
		default:
			return startupRequest{}, fmt.Errorf("unsupported protocol %d", code)
		}
	}
}

// finishStartup sends the post-admission handshake: AuthenticationOk,
// parameter status, the real BackendKeyData (pid + secret for cancellation),
// and ReadyForQuery.
func (s *Server) finishStartup(w *wire, b *backend) error {
	auth := make([]byte, 4)
	w.writeMessage('R', auth)
	w.writeParameterStatus("server_version", "13.0 (Hyrise-Go)")
	w.writeParameterStatus("server_encoding", "UTF8")
	w.writeParameterStatus("client_encoding", "UTF8")
	key := make([]byte, 8)
	binary.BigEndian.PutUint32(key[:4], b.pid)
	binary.BigEndian.PutUint32(key[4:], b.secret)
	w.writeMessage('K', key)
	w.writeReadyIdle()
	return w.w.Flush()
}

// admit takes a session slot when sessions are capped, waiting up to the
// admission budget for one to free, and returns the set to release it to;
// false means the server is full. A wait is recorded whether or not it
// ended with a slot.
func (s *Server) admit() (*slots, bool) {
	s.mu.Lock()
	sessions, budget := s.sessions, s.admissionWait
	s.mu.Unlock()
	if sessions == nil {
		return nil, true
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	wait, err := sessions.acquire(ctx)
	if wait > 0 || err != nil {
		s.admissionWaitNS.Observe(wait.Nanoseconds())
	}
	return sessions, err == nil
}

// registerBackend issues a fresh (pid, secret) pair and registers it for
// cancellation routing.
func (s *Server) registerBackend() *backend {
	var buf [4]byte
	_, _ = rand.Read(buf[:])
	s.backendMu.Lock()
	s.nextPid++
	b := &backend{pid: s.nextPid, secret: binary.BigEndian.Uint32(buf[:])}
	s.backends[b.pid] = b
	s.backendMu.Unlock()
	return b
}

// unregisterBackend drops a closed connection's cancellation state.
func (s *Server) unregisterBackend(pid uint32) {
	s.backendMu.Lock()
	delete(s.backends, pid)
	s.backendMu.Unlock()
}

// cancelBackend routes a CancelRequest to the victim session. Unknown pids
// and wrong secrets are ignored without feedback, per the protocol.
func (s *Server) cancelBackend(pid, secret uint32) {
	s.backendMu.Lock()
	b := s.backends[pid]
	s.backendMu.Unlock()
	if b == nil || b.secret != secret {
		return
	}
	b.fire()
}

// begin opens ps's one cancel context on session (pipeline.Session.Begin)
// and points the connection's CancelRequest at it; end closes it.
func (c *clientConn) begin(session *pipeline.Session, ps *pipeline.PreparedStatement) (*observe.ActiveQuery, context.Context) {
	q, ctx := session.Begin(context.Background(), ps)
	c.b.setQuery(q)
	return q, ctx
}

func (c *clientConn) end(session *pipeline.Session) {
	c.b.setQuery(nil)
	session.End()
}

// simpleQuery answers a Query message: every statement of the text runs in
// order through the same route as an extended-protocol Execute; the first
// failure ends the batch, earlier results stand.
func (c *clientConn) simpleQuery(sql string) {
	if err := c.runSimple(sql); err != nil {
		c.w.writeErrorCode(sqlStateFor(err), err.Error())
	}
	c.w.writeReady(c.session)
}

func (c *clientConn) runSimple(sql string) error {
	handles, err := c.session.Statements(sql)
	if err != nil {
		return err
	}
	exec := c.session
	if router := c.srv.readRouter(); router != nil && !c.session.InTransaction() && allRoutable(handles) {
		// The wait for a caught-up replica is the first statement's, and
		// cancelable like it.
		_, ctx := c.begin(c.session, handles[0])
		eng, ok := router.AcquireRead(ctx)
		c.end(c.session)
		if ok {
			// Handles belong to the engine that made them: the replica
			// resolves the text against its own catalog and cache.
			exec = eng.NewSession()
			if handles, err = exec.Statements(sql); err != nil {
				return err
			}
			c.srv.routedReads.Inc()
		}
	}
	for _, ps := range handles {
		if ps.Empty() {
			c.w.writeMessage('I', nil) // EmptyQueryResponse
			continue
		}
		res, err := c.execute(exec, ps, nil)
		if err != nil {
			return err
		}
		if res.Table == nil || len(res.Columns) == 0 {
			c.w.writeCompletion(res.Tag, res.RowsAffected, -1)
			continue
		}
		defs := res.Table.ColumnDefinitions()
		dts := make([]types.DataType, len(defs))
		for i, d := range defs {
			dts[i] = d.Type
		}
		c.w.writeRowDescriptionCols(res.Columns, dts, nil)
		rows := pipeline.ValueRows(res.Table)
		for _, row := range rows {
			c.w.writeDataRowFormats(row, nil)
		}
		c.w.writeCompletion(res.Tag, 0, len(rows))
	}
	return nil
}

// allRoutable reports whether a read replica may serve the whole batch.
func allRoutable(handles []*pipeline.PreparedStatement) bool {
	for _, ps := range handles {
		if !ps.RoutableRead {
			return false
		}
	}
	return true
}

// execute runs one statement handle on session for the connection, simple
// and extended protocol alike, on the connection goroutine: it opens the
// statement's cancel context, takes a slot of the statement's class when the
// server has an executor pool — queued, and cancelable, while it waits — and
// feeds the slow-query log.
func (c *clientConn) execute(session *pipeline.Session, ps *pipeline.PreparedStatement, params []types.Value) (*pipeline.Result, error) {
	q, ctx := c.begin(session, ps)
	defer c.end(session)
	start := time.Now()
	p := c.srv.pool.Load()
	if class := p.class(c.srv.engine, c.session, ps.Tag, ps.Fingerprint); class != nil {
		q.SetState(observe.StateQueued)
		wait, err := class.acquire(ctx)
		p.queueWait.Observe(wait.Nanoseconds())
		if err != nil {
			return nil, err
		}
		defer class.release()
	}
	res, err := session.ExecutePreparedStatement(ctx, ps, params)
	if err != nil {
		return nil, err
	}
	rows := 0
	if res.Table != nil && len(res.Columns) > 0 {
		rows = res.Table.RowCount()
	}
	c.srv.noteQuery(session, ps.SQL, time.Since(start), rows)
	return res, nil
}

// --- message IO ------------------------------------------------------------------

func (w *wire) readInt32() (int32, error) {
	if _, err := io.ReadFull(w.r, w.word[:]); err != nil {
		return 0, err
	}
	return int32(binary.BigEndian.Uint32(w.word[:])), nil
}

// maxMessageLength bounds a frontend message, length word included, as
// PostgreSQL does.
const maxMessageLength = 1 << 30

// readMessage reads one frontend message into the connection's payload
// buffer, which the next message overwrites. A length word outside [4,
// maxMessageLength] cannot frame the stream: it is answered with 08P01 and
// ends the connection.
func (w *wire) readMessage() (byte, []byte, error) {
	msgType, err := w.r.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	length, err := w.readInt32()
	if err != nil {
		return 0, nil, err
	}
	if length < 4 || length > maxMessageLength {
		w.writeErrorCode(codeProtocolViolation, "invalid message length")
		_ = w.w.Flush()
		return 0, nil, errors.New("invalid message length")
	}
	n := int64(length) - 4
	if n > 1<<16 {
		// Grown as the bytes arrive: a length the client never fills costs
		// nothing.
		payload, err := io.ReadAll(io.LimitReader(w.r, n))
		if err == nil && int64(len(payload)) < n {
			err = io.ErrUnexpectedEOF
		}
		return msgType, payload, err
	}
	if int64(cap(w.in)) < n {
		w.in = make([]byte, n)
	}
	payload := w.in[:n]
	_, err = io.ReadFull(w.r, payload)
	return msgType, payload, err
}

func (w *wire) writeMessage(msgType byte, payload []byte) {
	w.hdr[0] = msgType
	binary.BigEndian.PutUint32(w.hdr[1:], uint32(len(payload)+4))
	_, _ = w.w.Write(w.hdr[:])
	_, _ = w.w.Write(payload)
}

func (w *wire) writeParameterStatus(key, value string) {
	payload := append([]byte(key), 0)
	payload = append(payload, []byte(value)...)
	payload = append(payload, 0)
	w.writeMessage('S', payload)
}

func (w *wire) writeReadyIdle() {
	w.out = append(w.out[:0], 'I')
	w.writeMessage('Z', w.out)
}

func (w *wire) writeReady(session *pipeline.Session) {
	state := byte('I')
	if session.InTransaction() {
		state = 'T'
	}
	w.out = append(w.out[:0], state)
	w.writeMessage('Z', w.out)
	_ = w.w.Flush()
}

// PostgreSQL SQLSTATE codes the server emits.
const (
	codeInternalError             = "XX000" // internal_error (generic)
	codeQueryCanceled             = "57014" // query_canceled (cancel + statement timeout)
	codeTooManyConnections        = "53300" // too_many_connections (admission control)
	codeReadOnly                  = "25006" // read_only_sql_transaction (writes at a replica)
	codeAdminShutdown             = "57P01" // admin_shutdown (graceful drain)
	codeProtocolViolation         = "08P01" // protocol_violation (malformed extended messages)
	codeInvalidStatementName      = "26000" // invalid_sql_statement_name (unknown prepared statement)
	codeInvalidCursorName         = "34000" // invalid_cursor_name (unknown portal)
	codeDuplicateStatement        = "42P05" // duplicate_prepared_statement
	codeDuplicateCursor           = "42P03" // duplicate_cursor (named portal redefined)
	codeInvalidTextRepresentation = "22P02" // invalid_text_representation (bad parameter)
	codeInvalidEscapeSequence     = "22025" // invalid_escape_sequence (a LIKE pattern ending in a lone '\')
	codeNumericOutOfRange         = "22003" // numeric_value_out_of_range (an INT result or SUM that is no INT)
	codeDatatypeMismatch          = "42804" // datatype_mismatch (CASE branches with no common type, a condition not BOOL)
	codeUndefinedFunction         = "42883" // undefined_function (no operator or function for the operand types)
	codeUndefinedColumn           = "42703" // undefined_column
	codeDuplicateColumn           = "42701" // duplicate_column (INSERT naming a column twice)
	codeSyntaxError               = "42601" // syntax_error (INSERT arity, UPDATE setting a column twice)
)

// sqlStateFor maps a statement error to its SQLSTATE: canceled and
// timed-out statements report 57014 query_canceled (what psql expects after
// a ctrl-C), writes rejected by a read-only replica report 25006
// read_only_sql_transaction, the type rule's and the binder's errors their
// own codes, everything else the generic internal error.
func sqlStateFor(err error) string {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return codeQueryCanceled
	case errors.Is(err, pipeline.ErrReadOnly):
		return codeReadOnly
	case errors.Is(err, expression.ErrDatatypeMismatch) || errors.Is(err, expression.ErrNotBoolean) || errors.Is(err, lqp.ErrAssignmentMismatch):
		return codeDatatypeMismatch
	case errors.Is(err, lqp.ErrDuplicateColumn):
		return codeDuplicateColumn
	case errors.Is(err, lqp.ErrInsertArity) || errors.Is(err, lqp.ErrMultipleAssignments):
		return codeSyntaxError
	case errors.Is(err, expression.ErrInvalidValue):
		return codeInvalidTextRepresentation
	case errors.Is(err, expression.ErrInvalidEscape):
		return codeInvalidEscapeSequence
	case errors.Is(err, expression.ErrOutOfRange):
		return codeNumericOutOfRange
	case errors.Is(err, expression.ErrUndefinedFunction):
		return codeUndefinedFunction
	case errors.Is(err, lqp.ErrColumnNotFound):
		return codeUndefinedColumn
	}
	return codeInternalError
}

func (w *wire) writeErrorCode(code, msg string) {
	_, _ = w.w.Write(errorResponse("ERROR", code, msg))
}

// errorResponse builds an ErrorResponse frame: severity, SQLSTATE, message.
func errorResponse(severity, code, msg string) []byte {
	frame := []byte{'E', 0, 0, 0, 0}
	for _, field := range []string{"S" + severity, "C" + code, "M" + msg} {
		frame = append(append(frame, field...), 0)
	}
	frame = append(frame, 0)
	binary.BigEndian.PutUint32(frame[1:], uint32(len(frame)-1))
	return frame
}

// writeCompletion emits CommandComplete for a statement that returned
// selected rows, or — selected < 0 — none: DML reports the rows it affected.
func (w *wire) writeCompletion(tag string, affected int64, selected int) {
	b := w.out[:0]
	switch {
	case selected >= 0:
		b = strconv.AppendInt(append(b, "SELECT "...), int64(selected), 10)
	case tag == "INSERT":
		b = strconv.AppendInt(append(b, "INSERT 0 "...), affected, 10)
	case tag == "UPDATE" || tag == "DELETE":
		b = strconv.AppendInt(append(append(b, tag...), ' '), affected, 10)
	default:
		b = append(b, tag...)
	}
	w.out = append(b, 0)
	w.writeMessage('C', w.out)
}

// --- payload parsing ----------------------------------------------------------------

func cString(b []byte) string {
	if i := bytes.IndexByte(b, 0); i >= 0 {
		return string(b[:i])
	}
	return string(b)
}

func splitCString(b []byte) (string, []byte) {
	if i := bytes.IndexByte(b, 0); i >= 0 {
		return string(b[:i]), b[i+1:]
	}
	return string(b), nil
}
