package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"hyrise/internal/concurrency"
	"hyrise/internal/pgclient"
	"hyrise/internal/pipeline"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// dialWithKey is dial, but it captures the BackendKeyData ('K') message the
// server sends during startup — the pid/secret pair a client needs to issue
// a CancelRequest.
func dialWithKey(t *testing.T, addr string) (*pgClient, uint32, uint32) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := &pgClient{conn: conn, r: bufio.NewReader(conn)}
	t.Cleanup(func() { _ = conn.Close() })

	var payload []byte
	payload = binary.BigEndian.AppendUint32(payload, 196608)
	payload = append(payload, "user\x00test\x00\x00"...)
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)+4))
	frame = append(frame, payload...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}

	var pid, secret uint32
	for {
		msgType, body := c.read(t)
		if msgType == 'K' {
			pid = binary.BigEndian.Uint32(body[:4])
			secret = binary.BigEndian.Uint32(body[4:8])
		}
		if msgType == 'Z' {
			break
		}
	}
	if pid == 0 {
		t.Fatal("server did not send BackendKeyData")
	}
	return c, pid, secret
}

// sendCancelRequest opens a fresh connection and sends the PostgreSQL
// CancelRequest packet (code 80877102). Per protocol the server must not
// write ANY response on this connection — it returns what the server sent
// back (want: nothing, just EOF).
func sendCancelRequest(t *testing.T, addr string, pid, secret uint32) []byte {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()

	var pkt []byte
	pkt = binary.BigEndian.AppendUint32(pkt, 16)
	pkt = binary.BigEndian.AppendUint32(pkt, 80877102)
	pkt = binary.BigEndian.AppendUint32(pkt, pid)
	pkt = binary.BigEndian.AppendUint32(pkt, secret)
	if _, err := conn.Write(pkt); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	n, _ := conn.Read(buf) // EOF (n=0) is the correct outcome
	return buf[:n]
}

// parseErrorCode extracts the SQLSTATE ('C') field from an ErrorResponse.
func parseErrorCode(payload []byte) string {
	for len(payload) > 0 && payload[0] != 0 {
		code := payload[0]
		payload = payload[1:]
		idx := 0
		for payload[idx] != 0 {
			idx++
		}
		if code == 'C' {
			return string(payload[:idx])
		}
		payload = payload[idx+1:]
	}
	return ""
}

// addSlowTable registers a table big enough that the self-join slowQuery
// below runs for several times the 50 ms the cancel tests wait before they
// fire (150 ms on a 2-core box) — a wide window to cancel into.
func addSlowTable(t *testing.T, e *pipeline.Engine) {
	t.Helper()
	tbl := storage.NewTable("big", []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64},
		{Name: "s", Type: types.TypeString},
	}, 1000, e.Config().UseMvcc)
	for i := 0; i < 480_000; i++ {
		if _, err := tbl.AppendRow([]types.Value{
			types.Int(int64(i)),
			types.Str(fmt.Sprintf("payload-%d-abcdefghijklmnopqrstuvwxyz", i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	concurrency.MarkTableLoaded(tbl)
	if err := e.StorageManager().AddTable(tbl); err != nil {
		t.Fatal(err)
	}
}

const slowQuery = `SELECT count(*) FROM big a JOIN big b ON a.id = b.id
	WHERE a.s LIKE '%payload%' AND b.s LIKE '%abcdefghijklmnopqrstuvwxyz%'`

func TestCancelRequestStopsInFlightQuery(t *testing.T) {
	addr, e := startServer(t)
	addSlowTable(t, e)
	c, pid, secret := dialWithKey(t, addr)

	// Fire the slow query, then cancel it from a second connection while it
	// is executing — exactly what psql's Ctrl-C does.
	c.send(t, 'Q', append([]byte(slowQuery), 0))
	go func() {
		time.Sleep(50 * time.Millisecond)
		var pkt []byte
		pkt = binary.BigEndian.AppendUint32(pkt, 16)
		pkt = binary.BigEndian.AppendUint32(pkt, 80877102)
		pkt = binary.BigEndian.AppendUint32(pkt, pid)
		pkt = binary.BigEndian.AppendUint32(pkt, secret)
		if conn, err := net.Dial("tcp", addr); err == nil {
			_, _ = conn.Write(pkt)
			_ = conn.Close()
		}
	}()

	var errCode, errMsg string
	for {
		msgType, payload := c.read(t)
		if msgType == 'E' {
			errCode = parseErrorCode(payload)
			errMsg = parseError(payload)
		}
		if msgType == 'Z' {
			break
		}
	}
	if errCode != "57014" {
		t.Fatalf("SQLSTATE = %q (msg %q), want 57014 query_canceled", errCode, errMsg)
	}
	if !strings.Contains(errMsg, "canceling statement") {
		t.Errorf("error message = %q", errMsg)
	}
	if v, _ := e.Metrics().Get("engine.statements.canceled"); v < 1 {
		t.Errorf("engine.statements.canceled = %d, want >= 1", v)
	}

	// The session survives the cancellation and keeps answering.
	res := c.simpleQuery(t, "SELECT count(*) FROM big WHERE id < 5")
	if res.err != "" || len(res.rows) != 1 || res.rows[0][0] != "5" {
		t.Errorf("query after cancel: %+v", res)
	}
}

func TestCancelRequestConnectionIsSilent(t *testing.T) {
	addr, _ := startServer(t)
	_, pid, secret := dialWithKey(t, addr)

	// Whether the key matches or not, the cancel connection must be closed
	// without a single response byte (PG protocol: CancelRequest gets no
	// reply, so an attacker can't probe for valid pids).
	if got := sendCancelRequest(t, addr, pid, secret); len(got) != 0 {
		t.Errorf("server wrote %d bytes (% x) on a valid cancel connection, want none", len(got), got)
	}
	if got := sendCancelRequest(t, addr, pid, secret+1); len(got) != 0 {
		t.Errorf("server wrote %d bytes on a wrong-secret cancel connection, want none", len(got))
	}
	if got := sendCancelRequest(t, addr, pid+999, secret); len(got) != 0 {
		t.Errorf("server wrote %d bytes on an unknown-pid cancel connection, want none", len(got))
	}
}

func TestCancelRequestWrongSecretHasNoEffect(t *testing.T) {
	addr, e := startServer(t)
	addSlowTable(t, e)
	c, pid, secret := dialWithKey(t, addr)

	// A cancel with the wrong secret must not kill the victim's statements.
	sendCancelRequest(t, addr, pid, secret^0xdeadbeef)
	res := c.simpleQuery(t, "SELECT count(*) FROM big WHERE id < 7")
	if res.err != "" || res.rows[0][0] != "7" {
		t.Errorf("query after wrong-secret cancel: %+v", res)
	}
	if v, _ := e.Metrics().Get("engine.statements.canceled"); v != 0 {
		t.Errorf("engine.statements.canceled = %d after wrong-secret cancel, want 0", v)
	}
}

// TestCancelQueryTakesAnInt: cancel_query's argument is typed when the
// statement is prepared. A VARCHAR, FLOAT or BOOL fails with 42883 (each
// answered 0 before, and `1 > 0` read as query id 1); its slot is INT, so
// text '7' decodes as the query id 7.
func TestCancelQueryTakesAnInt(t *testing.T) {
	addr, _, _ := startServerWith(t, nil)
	c := confClient(t, addr)
	for _, arg := range []string{"'abc'", "2.5", "1 > 0"} {
		if _, err := c.SimpleQuery("SELECT cancel_query(" + arg + ")"); err == nil || pgErr(t, err).Code != codeUndefinedFunction {
			t.Errorf("cancel_query(%s): %v, want SQLSTATE %s", arg, err, codeUndefinedFunction)
		}
	}
	st, err := c.Prepare("cancel", "SELECT cancel_query($1)", nil)
	if err != nil || len(st.ParamOIDs) != 1 || st.ParamOIDs[0] != 20 {
		t.Fatalf("prepare cancel_query($1): %+v, %v; want one int8 parameter", st, err)
	}
	res, err := c.Exec("cancel", []pgclient.Param{pgclient.Text("7")}, nil)
	if err != nil || len(res.Rows) != 1 || string(res.Rows[0][0]) != "0" {
		t.Errorf("cancel_query('7'): %+v, %v; want 0", res, err)
	}
}

func TestBackendKeysAreUnique(t *testing.T) {
	addr, _ := startServer(t)
	_, pid1, sec1 := dialWithKey(t, addr)
	_, pid2, sec2 := dialWithKey(t, addr)
	if pid1 == pid2 {
		t.Errorf("two sessions share pid %d", pid1)
	}
	if sec1 == sec2 {
		t.Error("two sessions share the same cancel secret")
	}
}

func TestMaxConnectionsAdmissionControl(t *testing.T) {
	e := pipeline.NewEngine(pipeline.DefaultConfig(), nil)
	t.Cleanup(e.Close)
	srv := New(e)
	srv.SetMaxConnections(1)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	t.Cleanup(srv.Close)

	// First session is admitted.
	c1 := dial(t, addr)
	if res := c1.simpleQuery(t, "SELECT 1 AS one"); res.err != "" {
		t.Fatalf("admitted session: %s", res.err)
	}

	// Second connection is refused with SQLSTATE 53300 and closed.
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	var payload []byte
	payload = binary.BigEndian.AppendUint32(payload, 196608)
	payload = append(payload, "user\x00late\x00\x00"...)
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)+4))
	frame = append(frame, payload...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	c2 := &pgClient{conn: conn, r: r}
	msgType, body := c2.read(t)
	if msgType != 'E' {
		t.Fatalf("refused connection got %c, want ErrorResponse", msgType)
	}
	if code := parseErrorCode(body); code != "53300" {
		t.Errorf("SQLSTATE = %q, want 53300 too_many_connections", code)
	}

	// Closing the admitted session frees the slot.
	_ = c1.conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		conn3, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn3.Write(frame); err != nil {
			t.Fatal(err)
		}
		c3 := &pgClient{conn: conn3, r: bufio.NewReader(conn3)}
		msgType, _ := c3.read(t)
		_ = conn3.Close()
		if msgType != 'E' {
			return // admitted — got AuthenticationOk first
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after the admitted session disconnected")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCancelRequestWhileQueued cancels a statement that waits for a slot of
// a full executor-pool class: a slow join holds the read class's one slot,
// and a second and a third statement wait behind it. A CancelRequest for the
// third answers 57014, the statement never runs — it leaves no
// meta_statement_stats row — and the class counts it as rejected; the
// second still runs once the slot frees.
func TestCancelRequestWhileQueued(t *testing.T) {
	addr, srv, e := startServerWith(t, func(s *Server) { s.EnableExecutorPool(1, time.Hour) })
	addSlowTable(t, e)
	read := srv.pool.Load().read

	run := func(sql string) (*pgclient.Conn, <-chan error) {
		c := confClient(t, addr)
		done := make(chan error, 1)
		go func() { _, err := c.SimpleQuery(sql); done <- err }()
		return c, done
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	slow, slowDone := run(slowQuery)
	waitFor("the slow join to hold the slot", func() bool { return read.submitted.Load() == 1 && len(read.held) == 1 })
	_, queuedDone := run("SELECT count(*) FROM big WHERE id < 3")
	waitFor("the second statement to wait", func() bool { return read.waiting.Load() == 1 })
	victim, victimDone := run("SELECT s FROM big WHERE id = 7 ORDER BY s")
	waitFor("the third statement to wait", func() bool { return read.waiting.Load() == 2 })

	sendCancelRequest(t, addr, victim.BackendPID, victim.SecretKey)
	select {
	case err := <-victimDone:
		if err == nil || pgErr(t, err).Code != codeQueryCanceled {
			t.Fatalf("queued statement after CancelRequest: %v, want SQLSTATE %s", err, codeQueryCanceled)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a CancelRequest did not release the statement waiting for a slot")
	}
	if got := read.rejected.Load(); got != 1 {
		t.Errorf("read class rejected = %d, want 1", got)
	}

	sendCancelRequest(t, addr, slow.BackendPID, slow.SecretKey)
	<-slowDone
	if err := <-queuedDone; err != nil {
		t.Fatalf("the statement waiting behind the slow join: %v", err)
	}
	res, err := victim.SimpleQuery("SELECT rejected FROM meta_executor_pool WHERE queue = 'read'")
	if err != nil || len(res) != 1 || len(res[0].Rows) != 1 || string(res[0].Rows[0][0]) != "1" {
		t.Fatalf("meta_executor_pool read rejected: %+v, %v; want 1", res, err)
	}
	for _, row := range e.StatementStats() {
		if strings.Contains(row.Query, "ORDER BY") {
			t.Errorf("the canceled statement ran: %+v", row)
		}
	}
}
