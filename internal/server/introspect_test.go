package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"hyrise/internal/pipeline"
)

// TestCancelQueryOverWire exercises the SQL-level kill path exactly as a DBA
// would: one connection runs a long join, a second one finds it in
// meta_active_queries and calls cancel_query(id), and the victim receives
// SQLSTATE 57014 (query_canceled).
func TestCancelQueryOverWire(t *testing.T) {
	addr, e := startServer(t)
	addSlowTable(t, e)
	c1, pid1, _ := dialWithKey(t, addr)
	c2 := dial(t, addr)

	c1.send(t, 'Q', append([]byte(slowQuery), 0))

	// Find the in-flight join from the second connection.
	var id int64 = -1
	deadline := time.Now().Add(10 * time.Second)
	for id < 0 && time.Now().Before(deadline) {
		res := c2.simpleQuery(t, "SELECT id, backend_pid, sql FROM meta_active_queries")
		if res.err != "" {
			t.Fatalf("meta_active_queries: %s", res.err)
		}
		for _, r := range res.rows {
			if !strings.Contains(r[2], "FROM big") {
				continue
			}
			v, err := strconv.ParseInt(r[0], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			id = v
			if r[1] != strconv.FormatUint(uint64(pid1), 10) {
				t.Errorf("backend_pid = %s, want %d", r[1], pid1)
			}
		}
		if id < 0 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if id < 0 {
		t.Fatal("slow query never appeared in meta_active_queries over the wire")
	}

	res := c2.simpleQuery(t, fmt.Sprintf("SELECT cancel_query(%d)", id))
	if res.err != "" {
		t.Fatalf("cancel_query: %s", res.err)
	}
	if len(res.rows) != 1 || res.rows[0][0] != "1" {
		t.Fatalf("cancel_query rows = %v, want [[1]]", res.rows)
	}
	if len(res.columns) != 1 || res.columns[0] != "cancel_query" {
		t.Errorf("cancel_query columns = %v", res.columns)
	}

	// The victim connection gets an ErrorResponse with the cancellation
	// SQLSTATE, then returns to ReadyForQuery.
	var code string
	for {
		msgType, body := c1.read(t)
		if msgType == 'E' {
			code = parseErrorCode(body)
		}
		if msgType == 'Z' {
			break
		}
	}
	if code != "57014" {
		t.Errorf("victim SQLSTATE = %q, want 57014 query_canceled", code)
	}
	// The connection stays usable after the cancel.
	if res := c1.simpleQuery(t, "SELECT 1 AS one"); res.err != "" {
		t.Errorf("victim connection unusable after cancel: %s", res.err)
	}
}

// TestSlowQueryLogTrace turns on trace capture for the slow-query log and
// checks that entries carry the stage breakdown and the annotated plan.
func TestSlowQueryLogTrace(t *testing.T) {
	addr, srv, _ := startObservedServer(t)
	var buf syncBuffer
	srv.EnableSlowQueryLog(&buf, time.Nanosecond) // everything is slow
	srv.EnableSlowQueryTrace()

	c := dial(t, addr)
	for _, sql := range []string{
		"CREATE TABLE tr (a INT NOT NULL)",
		"INSERT INTO tr VALUES (1), (2), (3)",
		"SELECT a FROM tr WHERE a > 1",
	} {
		if res := c.simpleQuery(t, sql); res.err != "" {
			t.Fatalf("%s: %s", sql, res.err)
		}
	}

	logged := buf.String()
	if !strings.Contains(logged, "slow query:") {
		t.Fatalf("no slow-query entries: %q", logged)
	}
	if !strings.Contains(logged, "stages:") || !strings.Contains(logged, "parse=") {
		t.Errorf("log entry missing stage breakdown:\n%s", logged)
	}
	if !strings.Contains(logged, "TableScan") {
		t.Errorf("log entry missing annotated plan:\n%s", logged)
	}
}

// startAdmissionServer builds a 1-slot server with the given wait budget.
func startAdmissionServer(t *testing.T, wait time.Duration) (string, *Server, *pipeline.Engine) {
	t.Helper()
	return startServerWith(t, func(s *Server) {
		s.SetMaxConnections(1)
		s.SetAdmissionWait(wait)
	})
}

// startupAttempt opens a raw connection, sends the startup packet, and
// returns the first message type the server answered with ('R' when
// admitted, 'E' when refused).
func startupAttempt(t *testing.T, addr string) (byte, []byte) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	var payload []byte
	payload = binary.BigEndian.AppendUint32(payload, 196608)
	payload = append(payload, "user\x00late\x00\x00"...)
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)+4))
	frame = append(frame, payload...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	c := &pgClient{conn: conn, r: bufio.NewReader(conn)}
	return c.read(t)
}

// TestAdmissionWaitAdmitsWhenSlotFrees holds the only slot, releases it
// shortly after a second connection starts waiting, and expects the waiter
// to be admitted instead of refused — with the wait recorded in the
// wait.admission_ns histogram.
func TestAdmissionWaitAdmitsWhenSlotFrees(t *testing.T) {
	addr, _, e := startAdmissionServer(t, 5*time.Second)

	c1 := dial(t, addr)
	if res := c1.simpleQuery(t, "SELECT 1 AS one"); res.err != "" {
		t.Fatalf("admitted session: %s", res.err)
	}
	go func() {
		time.Sleep(150 * time.Millisecond)
		_ = c1.conn.Close()
	}()

	start := time.Now()
	msgType, body := startupAttempt(t, addr)
	elapsed := time.Since(start)
	if msgType == 'E' {
		t.Fatalf("waiter refused (%s) instead of admitted", parseErrorCode(body))
	}
	if elapsed < 100*time.Millisecond {
		t.Errorf("waiter admitted after %v — it cannot have waited for the slot", elapsed)
	}
	if cnt, ok := e.Metrics().Get("wait.admission_ns_count"); !ok || cnt < 1 {
		t.Errorf("wait.admission_ns_count = %d, %v — admission wait not recorded", cnt, ok)
	}
}

// TestAdmissionWaitTimesOut keeps the slot occupied past the wait budget:
// the waiter is still refused with 53300, and the fruitless wait is recorded.
func TestAdmissionWaitTimesOut(t *testing.T) {
	addr, _, e := startAdmissionServer(t, 60*time.Millisecond)

	c1 := dial(t, addr)
	if res := c1.simpleQuery(t, "SELECT 1 AS one"); res.err != "" {
		t.Fatalf("admitted session: %s", res.err)
	}

	start := time.Now()
	msgType, body := startupAttempt(t, addr)
	elapsed := time.Since(start)
	if msgType != 'E' {
		t.Fatalf("waiter got %c, want ErrorResponse", msgType)
	}
	if code := parseErrorCode(body); code != "53300" {
		t.Errorf("SQLSTATE = %q, want 53300 too_many_connections", code)
	}
	if elapsed < 40*time.Millisecond {
		t.Errorf("refused after %v, want the ~60ms budget spent first", elapsed)
	}
	if cnt, ok := e.Metrics().Get("wait.admission_ns_count"); !ok || cnt < 1 {
		t.Errorf("wait.admission_ns_count = %d, %v — timed-out wait not recorded", cnt, ok)
	}
}

// TestAdmissionWaitEndsOnShutdown: a connection waiting for a session slot
// when a drain starts is turned away at once with an ErrorResponse — not
// admitted into the draining server when the drain closes the idle session
// that held the slot — and Shutdown returns.
func TestAdmissionWaitEndsOnShutdown(t *testing.T) {
	addr, srv, _ := startAdmissionServer(t, time.Minute)
	c1 := dial(t, addr)
	if res := c1.simpleQuery(t, "SELECT 1 AS one"); res.err != "" {
		t.Fatalf("admitted session: %s", res.err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for deadline := time.Now().Add(10 * time.Second); srv.sessions.waiting.Load() == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		srv.Shutdown(time.Minute)
	}()

	if msgType, _ := startupAttempt(t, addr); msgType != 'E' {
		t.Fatalf("waiter got %c during a drain, want ErrorResponse", msgType)
	}
	select {
	case <-drained:
	case <-time.After(20 * time.Second):
		t.Fatal("Shutdown did not return")
	}
}
