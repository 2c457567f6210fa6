package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hyrise/internal/pgclient"
	"hyrise/internal/pipeline"
)

// The extended-query conformance suite drives a live server through
// internal/pgclient, an in-repo client shaped like a database/sql driver's
// connection layer (Parse → Describe → Bind → Execute → Sync with format
// codes). No external driver (pgx, lib/pq) is vendored in this module, so
// the suite encodes the same message sequences those drivers send.

func startServerWith(t *testing.T, configure func(*Server)) (string, *Server, *pipeline.Engine) {
	t.Helper()
	e := pipeline.NewEngine(pipeline.DefaultConfig(), nil)
	t.Cleanup(e.Close)
	srv := New(e)
	if configure != nil {
		configure(srv)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	t.Cleanup(srv.Close)
	return addr, srv, e
}

func confClient(t *testing.T, addr string) *pgclient.Conn {
	t.Helper()
	c, err := pgclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func confSetup(t *testing.T) (string, *Server, *pgclient.Conn) {
	t.Helper()
	addr, srv, _ := startServerWith(t, nil)
	c := confClient(t, addr)
	mustSimple(t, c, "CREATE TABLE conf (id INT NOT NULL, name VARCHAR(20), price FLOAT)")
	mustSimple(t, c, "INSERT INTO conf VALUES (1, 'apple', 1.5), (2, '123', 2.5), (3, 'cherry', 3.5)")
	return addr, srv, c
}

func mustSimple(t *testing.T, c *pgclient.Conn, sql string) {
	t.Helper()
	if _, err := c.SimpleQuery(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

func pgErr(t *testing.T, err error) *pgclient.PgError {
	t.Helper()
	var pe *pgclient.PgError
	if !errors.As(err, &pe) {
		t.Fatalf("expected PgError, got %v", err)
	}
	return pe
}

func TestConformanceDescribeStatement(t *testing.T) {
	_, _, c := confSetup(t)
	st, err := c.Prepare("s1", "SELECT id, name FROM conf WHERE id = $1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.ParamOIDs) != 1 || st.ParamOIDs[0] != 20 {
		t.Fatalf("ParamOIDs = %v, want [20] (int8 inferred from the id column)", st.ParamOIDs)
	}
	if len(st.Fields) != 2 || st.Fields[0].Name != "id" || st.Fields[1].Name != "name" {
		t.Fatalf("Fields = %+v", st.Fields)
	}
	if st.Fields[0].OID != 20 || st.Fields[1].OID != 25 {
		t.Fatalf("field OIDs = %d,%d want 20,25", st.Fields[0].OID, st.Fields[1].OID)
	}
	// DML prepares to NoData.
	dml, err := c.Prepare("s2", "INSERT INTO conf VALUES ($1, $2, $3)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dml.Fields) != 0 {
		t.Fatalf("INSERT described fields %+v, want NoData", dml.Fields)
	}
	if want := []uint32{20, 25, 701}; fmt.Sprint(dml.ParamOIDs) != fmt.Sprint(want) {
		t.Fatalf("INSERT ParamOIDs = %v, want %v", dml.ParamOIDs, want)
	}
}

func TestConformanceExecuteAndReuse(t *testing.T) {
	_, _, c := confSetup(t)
	if _, err := c.Prepare("s1", "SELECT name FROM conf WHERE id = $1", nil); err != nil {
		t.Fatal(err)
	}
	for id, want := range map[string]string{"1": "apple", "3": "cherry"} {
		res, err := c.Exec("s1", []pgclient.Param{pgclient.Text(id)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || string(res.Rows[0][0]) != want {
			t.Fatalf("id=%s: rows %v, want %q", id, res.Rows, want)
		}
		if res.Tag != "SELECT 1" {
			t.Fatalf("tag = %q", res.Tag)
		}
	}
}

func TestConformanceStringParamKeepsNumericText(t *testing.T) {
	// The old wire path coerced '123' to int64 before comparing against a
	// VARCHAR column, matching nothing. The statement's inferred parameter
	// type must keep it a string end to end.
	_, _, c := confSetup(t)
	if _, err := c.Prepare("s1", "SELECT id FROM conf WHERE name = $1", nil); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("s1", []pgclient.Param{pgclient.Text("123")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || string(res.Rows[0][0]) != "2" {
		t.Fatalf("rows = %v, want the name='123' row (id 2)", res.Rows)
	}
}

func TestConformanceBinaryFormats(t *testing.T) {
	_, _, c := confSetup(t)
	// Declare int8 + float8 parameter types in Parse and bind them binary.
	if _, err := c.Prepare("s1",
		"SELECT id, price FROM conf WHERE id = $1 AND price < $2", []uint32{20, 701}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("s1",
		[]pgclient.Param{pgclient.BinaryInt8(2), pgclient.BinaryFloat8(99.5)},
		[]int16{1, 1}) // binary results for both columns
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if got := pgclient.DecodeInt8(res.Rows[0][0]); got != 2 {
		t.Fatalf("binary id = %d, want 2", got)
	}
	if got := pgclient.DecodeFloat8(res.Rows[0][1]); got != 2.5 {
		t.Fatalf("binary price = %g, want 2.5", got)
	}
	// int4-width binary parameter with a declared int4 OID.
	if _, err := c.Prepare("s2", "SELECT name FROM conf WHERE id = $1", []uint32{23}); err != nil {
		t.Fatal(err)
	}
	res, err = c.Exec("s2", []pgclient.Param{pgclient.BinaryInt4(3)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || string(res.Rows[0][0]) != "cherry" {
		t.Fatalf("rows = %v, want cherry", res.Rows)
	}
}

func TestConformanceBadParameterRejected(t *testing.T) {
	_, _, c := confSetup(t)
	if _, err := c.Prepare("s1", "SELECT name FROM conf WHERE id = $1", nil); err != nil {
		t.Fatal(err)
	}
	// Unparsable text for an int8 slot.
	_, err := c.Exec("s1", []pgclient.Param{pgclient.Text("not-a-number")}, nil)
	if pe := pgErr(t, err); pe.Code != "22P02" {
		t.Fatalf("code = %s, want 22P02", pe.Code)
	}
	// Wrong parameter count.
	_, err = c.Exec("s1", nil, nil)
	if pe := pgErr(t, err); pe.Code != "08P01" {
		t.Fatalf("code = %s, want 08P01", pe.Code)
	}
	// Bad binary width.
	_, err = c.Exec("s1", []pgclient.Param{{Format: 1, Data: []byte{1, 2, 3}}}, nil)
	if pe := pgErr(t, err); pe.Code != "22P02" {
		t.Fatalf("code = %s, want 22P02", pe.Code)
	}
	// The session survives all of it.
	res, err := c.Exec("s1", []pgclient.Param{pgclient.Text("1")}, nil)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("after errors: %v %v", res, err)
	}
}

// TestConformanceLikeEscape: '\' is LIKE's default escape, and a pattern
// that ends in a lone one fails with 22025 invalid_escape_sequence.
func TestConformanceLikeEscape(t *testing.T) {
	_, _, c := confSetup(t)
	res, err := c.SimpleQuery(`SELECT 'a%c' LIKE 'a\%c', 'abc' LIKE 'a\%c'`)
	if err != nil || len(res) != 1 || len(res[0].Rows) != 1 ||
		string(res[0].Rows[0][0]) != "t" || string(res[0].Rows[0][1]) != "f" {
		t.Fatalf("escaped %% = %v %v, want t and f", res, err)
	}
	_, err = c.SimpleQuery(`SELECT name FROM conf WHERE name LIKE 'a\'`)
	if pe := pgErr(t, err); pe.Code != "22025" {
		t.Fatalf("code = %s, want 22025", pe.Code)
	}
}

// TestConformanceIntOverflow: an INT result or SUM that is no INT fails with
// 22003 numeric_value_out_of_range, over the simple and the extended protocol.
func TestConformanceIntOverflow(t *testing.T) {
	_, _, c := confSetup(t)
	mustSimple(t, c, "CREATE TABLE ovf (a INT)")
	mustSimple(t, c, "INSERT INTO ovf VALUES (1), (2)")
	for _, sql := range []string{
		"SELECT -9223372036854775807 - a - a FROM ovf WHERE a = 1",
		"SELECT sum(a * 4611686018427387904) FROM ovf",
		"SELECT sum(a + 4611686018427387903) FROM ovf",
	} {
		_, err := c.SimpleQuery(sql)
		if pe := pgErr(t, err); pe.Code != "22003" || pe.Message != "bigint out of range" {
			t.Fatalf("%s: %s %q, want 22003 %q", sql, pe.Code, pe.Message, "bigint out of range")
		}
	}
	if _, err := c.Prepare("neg", "SELECT -a FROM ovf WHERE a = $1", nil); err != nil {
		t.Fatal(err)
	}
	_, err := c.Exec("neg", []pgclient.Param{pgclient.Text("1")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustSimple(t, c, "INSERT INTO ovf VALUES (-9223372036854775808)")
	_, err = c.Exec("neg", []pgclient.Param{pgclient.Text("-9223372036854775808")}, nil)
	if pe := pgErr(t, err); pe.Code != "22003" {
		t.Fatalf("-a of the INT minimum: %s, want 22003", pe.Code)
	}
}

func TestConformanceParseErrorsReportedAtParseTime(t *testing.T) {
	_, _, c := confSetup(t)
	cases := map[string]string{
		"syntax":          "SELEC nope",
		"unknown table":   "SELECT * FROM no_such_table",
		"multi-statement": "SELECT 1; SELECT 2",
	}
	for label, sql := range cases {
		if _, err := c.Prepare("bad", sql, nil); err == nil {
			t.Errorf("%s: Parse did not fail", label)
		}
	}
	// Statement name was never registered by the failed Parse attempts.
	_, err := c.Exec("bad", nil, nil)
	if pe := pgErr(t, err); pe.Code != "26000" {
		t.Fatalf("code = %s, want 26000 after failed Parse", pe.Code)
	}
}

func TestConformanceErrorDiscardsUntilSync(t *testing.T) {
	_, _, c := confSetup(t)
	// A failing Parse followed by Bind/Describe/Execute: everything after
	// the error must be discarded; only ErrorResponse then ReadyForQuery
	// arrive.
	mustRaw(t, c, 'P', parsePayload("bad", "SELEC nope", nil))
	mustRaw(t, c, 'B', bindPayload("", "bad", nil))
	mustRaw(t, c, 'D', []byte{'P', 0})
	mustRaw(t, c, 'E', executePayload("", 0))
	mustRaw(t, c, 'S', nil)
	var seen []byte
	for {
		mt, _, err := c.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if mt == 'Z' {
			break
		}
		seen = append(seen, mt)
	}
	if string(seen) != "E" {
		t.Fatalf("messages before ReadyForQuery = %q, want exactly one ErrorResponse", seen)
	}
	// Connection remains fully usable.
	res, err := c.SimpleQuery("SELECT id FROM conf WHERE id = 1")
	if err != nil || len(res) != 1 || len(res[0].Rows) != 1 {
		t.Fatalf("after recovery: %+v, %v", res, err)
	}
}

func TestConformanceCloseDeallocates(t *testing.T) {
	_, _, c := confSetup(t)
	if _, err := c.Prepare("s1", "SELECT id FROM conf", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseStmt("s1"); err != nil {
		t.Fatal(err)
	}
	_, err := c.Exec("s1", nil, nil)
	if pe := pgErr(t, err); pe.Code != "26000" {
		t.Fatalf("code after Close = %s, want 26000", pe.Code)
	}
	// Closing a nonexistent name is not an error, per the protocol.
	if err := c.CloseStmt("never-existed"); err != nil {
		t.Fatalf("close of unknown statement errored: %v", err)
	}
	// Portal deallocation inside one batch: Bind px, Close px, Execute px.
	if _, err := c.Prepare("s2", "SELECT id FROM conf", nil); err != nil {
		t.Fatal(err)
	}
	mustRaw(t, c, 'B', bindPayload("px", "s2", nil))
	mustRaw(t, c, 'C', append([]byte{'P'}, "px\x00"...))
	mustRaw(t, c, 'E', executePayload("px", 0))
	mustRaw(t, c, 'S', nil)
	var errCode string
	var seen []byte
	for {
		mt, payload, err := c.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if mt == 'Z' {
			break
		}
		if mt == 'E' {
			errCode = pgclient.DecodeError(payload).Code
		}
		seen = append(seen, mt)
	}
	if string(seen) != "23E" { // BindComplete, CloseComplete, ErrorResponse
		t.Fatalf("messages = %q, want BindComplete+CloseComplete+Error", seen)
	}
	if errCode != "34000" {
		t.Fatalf("Execute after Close portal = %s, want 34000", errCode)
	}
}

func TestConformancePortalSuspension(t *testing.T) {
	_, _, c := confSetup(t)
	if _, err := c.Prepare("s1", "SELECT id FROM conf ORDER BY id", nil); err != nil {
		t.Fatal(err)
	}
	res, err := c.ExecRows("s1", nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Suspended || len(res.Rows) != 2 {
		t.Fatalf("first execute: suspended=%v rows=%v", res.Suspended, res.Rows)
	}
	res, err = c.FetchMore(2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Suspended || len(res.Rows) != 1 || res.Tag != "SELECT 3" {
		t.Fatalf("second execute: %+v", res)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestConformanceUnnamedPortalDestroyedAtSync(t *testing.T) {
	_, _, c := confSetup(t)
	if _, err := c.Prepare("s1", "SELECT id FROM conf", nil); err != nil {
		t.Fatal(err)
	}
	mustRaw(t, c, 'B', bindPayload("", "s1", nil))
	mustRaw(t, c, 'S', nil)
	if err := drainToReady(t, c); err != nil {
		t.Fatal(err)
	}
	// The unnamed portal did not survive the Sync.
	mustRaw(t, c, 'E', executePayload("", 0))
	mustRaw(t, c, 'S', nil)
	err := drainToReady(t, c)
	if pe := pgErr(t, err); pe.Code != "34000" {
		t.Fatalf("code = %s, want 34000", pe.Code)
	}
}

func TestConformanceDuplicateNamedStatement(t *testing.T) {
	_, _, c := confSetup(t)
	if _, err := c.Prepare("dup", "SELECT id FROM conf", nil); err != nil {
		t.Fatal(err)
	}
	_, err := c.Prepare("dup", "SELECT name FROM conf", nil)
	if pe := pgErr(t, err); pe.Code != "42P05" {
		t.Fatalf("code = %s, want 42P05", pe.Code)
	}
	// The unnamed statement may be re-parsed freely.
	if _, err := c.Prepare("", "SELECT id FROM conf", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Prepare("", "SELECT name FROM conf", nil); err != nil {
		t.Fatal(err)
	}
}

func TestConformanceEmptyStatement(t *testing.T) {
	_, _, c := confSetup(t)
	st, err := c.Prepare("", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Fields) != 0 || len(st.ParamOIDs) != 0 {
		t.Fatalf("empty statement described as %+v", st)
	}
	res, err := c.Exec("", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Empty {
		t.Fatal("expected EmptyQueryResponse")
	}
}

func TestConformancePreparedDML(t *testing.T) {
	_, _, c := confSetup(t)
	if _, err := c.Prepare("ins", "INSERT INTO conf VALUES ($1, $2, $3)", nil); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("ins", []pgclient.Param{
		pgclient.Text("10"), pgclient.Text("kiwi"), pgclient.Text("0.5"),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tag != "INSERT 0 1" {
		t.Fatalf("tag = %q", res.Tag)
	}
	// NULL parameter.
	res, err = c.Exec("ins", []pgclient.Param{
		pgclient.Text("11"), pgclient.Null, pgclient.Text("0.25"),
	}, nil)
	if err != nil || res.Tag != "INSERT 0 1" {
		t.Fatalf("NULL insert: %+v, %v", res, err)
	}
	got, err := c.SimpleQuery("SELECT name FROM conf WHERE id = 11")
	if err != nil || len(got[0].Rows) != 1 || got[0].Rows[0][0] != nil {
		t.Fatalf("NULL round trip: %+v, %v", got, err)
	}
}

func TestExecutorPoolServesConcurrentClients(t *testing.T) {
	addr, _, e := startServerWith(t, func(s *Server) {
		s.EnableExecutorPool(2, 2, time.Hour)
	})
	setup := confClient(t, addr)
	mustSimple(t, setup, "CREATE TABLE pool_t (v INT NOT NULL)")

	const clients = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := pgclient.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if _, err := c.Prepare("ins", "INSERT INTO pool_t VALUES ($1)", nil); err != nil {
				errs <- err
				return
			}
			for j := 0; j < 10; j++ {
				if _, err := c.Exec("ins", []pgclient.Param{pgclient.BinaryInt8(int64(i*100 + j))}, nil); err != nil {
					errs <- err
					return
				}
				if _, err := c.SimpleQuery("SELECT v FROM pool_t WHERE v >= 0"); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res, err := setup.SimpleQuery("SELECT v FROM pool_t")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res[0].Rows); got != clients*10 {
		t.Fatalf("rows = %d, want %d", got, clients*10)
	}
	// The pool actually executed work, and the meta table reports it.
	meta, err := setup.SimpleQuery("SELECT queue, executed FROM meta_executor_pool")
	if err != nil {
		t.Fatal(err)
	}
	executed := int64(0)
	queues := map[string]bool{}
	for _, row := range meta[0].Rows {
		queues[string(row[0])] = true
		var n int64
		fmt.Sscan(string(row[1]), &n)
		executed += n
	}
	if !queues["read"] || !queues["write"] || !queues["slow"] {
		t.Fatalf("queues = %v, want read/write/slow", queues)
	}
	if executed == 0 {
		t.Fatal("pool executed no statements")
	}
	_ = e
}

func TestGracefulDrainIdleConnection(t *testing.T) {
	addr, srv, _ := startServerWith(t, nil)
	c := confClient(t, addr)
	mustSimple(t, c, "SELECT 1")
	// ReadyForQuery reaches the client before the connection's goroutine marks
	// itself idle; wait for that, so the drain finds it parked in its read.
	for idle := false; !idle; {
		srv.mu.Lock()
		idle = true
		for _, st := range srv.conns {
			st.mu.Lock()
			idle = idle && !st.busy
			st.mu.Unlock()
		}
		srv.mu.Unlock()
		runtime.Gosched()
	}

	done := make(chan struct{})
	go func() {
		srv.Shutdown(5 * time.Second)
		close(done)
	}()
	// The idle connection receives FATAL 57P01, then the socket closes.
	mt, payload, err := c.ReadMessage()
	if err != nil {
		t.Fatalf("expected shutdown notice, got read error %v", err)
	}
	if mt != 'E' {
		t.Fatalf("message = %q, want ErrorResponse", mt)
	}
	pe := pgclient.DecodeError(payload)
	if pe.Code != "57P01" || pe.Severity != "FATAL" {
		t.Fatalf("notice = %+v, want FATAL 57P01", pe)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return")
	}
	// New connections are refused after drain.
	if _, err := pgclient.Dial(addr); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

func TestGracefulDrainLetsBatchFinish(t *testing.T) {
	addr, srv, _ := startServerWith(t, nil)
	setup := confClient(t, addr)
	mustSimple(t, setup, "CREATE TABLE dr (v INT NOT NULL)")
	mustSimple(t, setup, "INSERT INTO dr VALUES (7)")
	_ = setup.Close()

	c := confClient(t, addr)
	// Open an extended-protocol batch: Parse + Flush makes the connection
	// busy until its Sync.
	mustRaw(t, c, 'P', parsePayload("s1", "SELECT v FROM dr", nil))
	mustRaw(t, c, 'H', nil)
	if mt, _, err := c.ReadMessage(); err != nil || mt != '1' {
		t.Fatalf("ParseComplete: %q, %v", mt, err)
	}

	done := make(chan struct{})
	go func() {
		srv.Shutdown(10 * time.Second)
		close(done)
	}()

	// Mid-drain, the open batch still completes: Bind/Execute/Sync answer
	// normally before the server disconnects at the boundary.
	mustRaw(t, c, 'B', bindPayload("", "s1", nil))
	mustRaw(t, c, 'E', executePayload("", 0))
	mustRaw(t, c, 'S', nil)
	var rows int
	var tag string
	sawReady := false
collect:
	for {
		mt, payload, err := c.ReadMessage()
		if err != nil {
			t.Fatalf("batch did not finish during drain: %v", err)
		}
		switch mt {
		case 'D':
			rows++
		case 'C':
			tag = strings.TrimRight(string(payload), "\x00")
		case 'E':
			t.Fatalf("batch errored during drain: %+v", pgclient.DecodeError(payload))
		case 'Z':
			sawReady = true
			break collect
		}
	}
	if rows != 1 || tag != "SELECT 1" || !sawReady {
		t.Fatalf("rows=%d tag=%q ready=%v", rows, tag, sawReady)
	}
	// After the boundary, the drain disconnects this connection too.
	for {
		mt, payload, err := c.ReadMessage()
		if err != nil {
			break // closed without a notice is possible if the read raced the close
		}
		if mt == 'E' {
			if pe := pgclient.DecodeError(payload); pe.Code != "57P01" {
				t.Fatalf("post-batch notice = %+v", pe)
			}
			break
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return")
	}
}

// TestGracefulDrainBusyAcrossRequestClose: a connection that a drain flags
// while it is busy disconnects itself at its next statement boundary, and the
// notice it writes there must be the FATAL 57P01 an idle connection gets from
// requestClose — it said ERROR, which is what TestGracefulDrainIdleConnection
// saw whenever Shutdown caught its connection between answering and looping
// back to the boundary.
func TestGracefulDrainBusyAcrossRequestClose(t *testing.T) {
	addr, srv, _ := startServerWith(t, nil)
	c := confClient(t, addr)
	// Parse + Flush opens a batch: once ParseComplete is read the connection
	// is busy and stays so until its Sync is answered.
	mustRaw(t, c, 'P', parsePayload("", "SELECT 1", nil))
	mustRaw(t, c, 'H', nil)
	if mt, _, err := c.ReadMessage(); err != nil || mt != '1' {
		t.Fatalf("ParseComplete: %q, %v", mt, err)
	}
	srv.mu.Lock()
	for _, st := range srv.conns {
		st.requestClose() // busy: only flags the connection
	}
	srv.mu.Unlock()
	mustRaw(t, c, 'S', nil)
	for {
		mt, payload, err := c.ReadMessage()
		if err != nil {
			t.Fatalf("no shutdown notice at the statement boundary: %v", err)
		}
		if mt == 'E' {
			if pe := pgclient.DecodeError(payload); pe.Code != "57P01" || pe.Severity != "FATAL" {
				t.Fatalf("boundary notice = %+v, want FATAL 57P01", pe)
			}
			return
		}
	}
}

// --- raw payload builders ---------------------------------------------------

func mustRaw(t *testing.T, c *pgclient.Conn, msgType byte, payload []byte) {
	t.Helper()
	if err := c.Raw(msgType, payload); err != nil {
		t.Fatal(err)
	}
}

func parsePayload(name, sql string, oids []uint32) []byte {
	var p []byte
	p = append(p, name...)
	p = append(p, 0)
	p = append(p, sql...)
	p = append(p, 0)
	p = binary.BigEndian.AppendUint16(p, uint16(len(oids)))
	for _, oid := range oids {
		p = binary.BigEndian.AppendUint32(p, oid)
	}
	return p
}

func bindPayload(portal, stmt string, textParams []string) []byte {
	var p []byte
	p = append(p, portal...)
	p = append(p, 0)
	p = append(p, stmt...)
	p = append(p, 0)
	p = binary.BigEndian.AppendUint16(p, 0) // all-text parameter formats
	p = binary.BigEndian.AppendUint16(p, uint16(len(textParams)))
	for _, v := range textParams {
		p = binary.BigEndian.AppendUint32(p, uint32(len(v)))
		p = append(p, v...)
	}
	p = binary.BigEndian.AppendUint16(p, 0) // default result formats
	return p
}

func executePayload(portal string, maxRows int32) []byte {
	var p []byte
	p = append(p, portal...)
	p = append(p, 0)
	p = binary.BigEndian.AppendUint32(p, uint32(maxRows))
	return p
}

func drainToReady(t *testing.T, c *pgclient.Conn) error {
	t.Helper()
	var firstErr error
	for {
		mt, payload, err := c.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		switch mt {
		case 'E':
			if firstErr == nil {
				firstErr = pgclient.DecodeError(payload)
			}
		case 'Z':
			return firstErr
		}
	}
}
