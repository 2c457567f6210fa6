package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"hyrise/internal/pgclient"
	"hyrise/internal/pipeline"
)

// pgClient is a minimal PostgreSQL wire protocol client for the tests —
// exactly what the paper gains by reusing the protocol: any client works.
type pgClient struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, addr string) *pgClient {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := &pgClient{conn: conn, r: bufio.NewReader(conn)}
	t.Cleanup(func() { _ = conn.Close() })

	// Startup message: protocol 3, user parameter.
	var payload []byte
	payload = binary.BigEndian.AppendUint32(payload, 196608)
	payload = append(payload, "user\x00test\x00\x00"...)
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)+4))
	frame = append(frame, payload...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	// Read until ReadyForQuery.
	c.waitReady(t)
	return c
}

func (c *pgClient) send(t *testing.T, msgType byte, payload []byte) {
	t.Helper()
	frame := []byte{msgType}
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(payload)+4))
	frame = append(frame, payload...)
	if _, err := c.conn.Write(frame); err != nil {
		t.Fatal(err)
	}
}

func (c *pgClient) read(t *testing.T) (byte, []byte) {
	t.Helper()
	header := make([]byte, 5)
	if _, err := io.ReadFull(c.r, header); err != nil {
		t.Fatalf("read header: %v", err)
	}
	length := binary.BigEndian.Uint32(header[1:])
	payload := make([]byte, length-4)
	if _, err := io.ReadFull(c.r, payload); err != nil {
		t.Fatalf("read payload: %v", err)
	}
	return header[0], payload
}

func (c *pgClient) waitReady(t *testing.T) {
	t.Helper()
	for {
		msgType, _ := c.read(t)
		if msgType == 'Z' {
			return
		}
	}
}

type queryResult struct {
	columns []string
	rows    [][]string
	tag     string
	err     string
}

// simpleQuery runs 'Q' and gathers messages until ReadyForQuery.
func (c *pgClient) simpleQuery(t *testing.T, sql string) queryResult {
	t.Helper()
	c.send(t, 'Q', append([]byte(sql), 0))
	var res queryResult
	for {
		msgType, payload := c.read(t)
		switch msgType {
		case 'T':
			res.columns = parseRowDescription(payload)
		case 'D':
			res.rows = append(res.rows, parseDataRow(payload))
		case 'C':
			res.tag = strings.TrimRight(string(payload), "\x00")
		case 'E':
			res.err = parseError(payload)
		case 'Z':
			return res
		}
	}
}

func parseRowDescription(payload []byte) []string {
	n := int(binary.BigEndian.Uint16(payload[:2]))
	cols := make([]string, 0, n)
	rest := payload[2:]
	for i := 0; i < n; i++ {
		idx := 0
		for rest[idx] != 0 {
			idx++
		}
		cols = append(cols, string(rest[:idx]))
		rest = rest[idx+1+18:]
	}
	return cols
}

func parseDataRow(payload []byte) []string {
	n := int(binary.BigEndian.Uint16(payload[:2]))
	rest := payload[2:]
	row := make([]string, 0, n)
	for i := 0; i < n; i++ {
		length := int32(binary.BigEndian.Uint32(rest[:4]))
		rest = rest[4:]
		if length < 0 {
			row = append(row, "NULL")
			continue
		}
		row = append(row, string(rest[:length]))
		rest = rest[length:]
	}
	return row
}

func parseError(payload []byte) string {
	for len(payload) > 0 && payload[0] != 0 {
		code := payload[0]
		payload = payload[1:]
		idx := 0
		for payload[idx] != 0 {
			idx++
		}
		if code == 'M' {
			return string(payload[:idx])
		}
		payload = payload[idx+1:]
	}
	return "unknown error"
}

func startServer(t testing.TB) (string, *pipeline.Engine) {
	t.Helper()
	e := pipeline.NewEngine(pipeline.DefaultConfig(), nil)
	t.Cleanup(e.Close)
	srv := New(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	t.Cleanup(srv.Close)
	return addr, e
}

func TestSimpleQueryRoundTrip(t *testing.T) {
	addr, _ := startServer(t)
	c := dial(t, addr)

	res := c.simpleQuery(t, "CREATE TABLE t (a INT NOT NULL, b VARCHAR(10))")
	if res.err != "" {
		t.Fatalf("create: %s", res.err)
	}
	res = c.simpleQuery(t, "INSERT INTO t VALUES (1, 'x'), (2, NULL)")
	if res.err != "" || !strings.HasPrefix(res.tag, "INSERT") {
		t.Fatalf("insert: %+v", res)
	}
	res = c.simpleQuery(t, "SELECT a, b FROM t ORDER BY a")
	if res.err != "" {
		t.Fatalf("select: %s", res.err)
	}
	if len(res.columns) != 2 || res.columns[0] != "a" {
		t.Errorf("columns = %v", res.columns)
	}
	if len(res.rows) != 2 || res.rows[0][0] != "1" || res.rows[0][1] != "x" {
		t.Errorf("rows = %v", res.rows)
	}
	if res.rows[1][1] != "NULL" {
		t.Errorf("NULL cell = %q", res.rows[1][1])
	}
	if res.tag != "SELECT 2" {
		t.Errorf("tag = %q", res.tag)
	}
}

func TestQueryErrorsReported(t *testing.T) {
	addr, _ := startServer(t)
	c := dial(t, addr)
	res := c.simpleQuery(t, "SELECT * FROM missing")
	if res.err == "" {
		t.Error("expected error for missing table")
	}
	// The connection survives errors.
	res = c.simpleQuery(t, "SELECT 1 + 1 AS two")
	if res.err != "" || len(res.rows) != 1 || res.rows[0][0] != "2" {
		t.Errorf("after error: %+v", res)
	}
}

func TestTransactionStateInReady(t *testing.T) {
	addr, _ := startServer(t)
	c := dial(t, addr)
	c.simpleQuery(t, "CREATE TABLE tx (v INT NOT NULL)")

	// BEGIN flips the ReadyForQuery state to 'T'.
	c.send(t, 'Q', append([]byte("BEGIN"), 0))
	state := byte(0)
	for {
		msgType, payload := c.read(t)
		if msgType == 'Z' {
			state = payload[0]
			break
		}
	}
	if state != 'T' {
		t.Errorf("state after BEGIN = %c, want T", state)
	}
	c.simpleQuery(t, "ROLLBACK")
}

// TestProtocolDisconnectRollsBack: a client that drops its socket inside a
// transaction leaves nothing behind — the row it claimed is free for another
// connection's UPDATE at once (no lock wait is configured), its insert never
// appears, and the low-water mark it held returns to the last commit.
func TestProtocolDisconnectRollsBack(t *testing.T) {
	addr, e := startServer(t)
	tm := e.TransactionManager()
	must := func(c *pgClient, sql string) queryResult {
		t.Helper()
		res := c.simpleQuery(t, sql)
		if res.err != "" {
			t.Fatalf("%s: %s", sql, res.err)
		}
		return res
	}
	a, b := dial(t, addr), dial(t, addr)
	must(b, "CREATE TABLE d (id INT NOT NULL, v INT NOT NULL)")
	must(b, "INSERT INTO d VALUES (1, 10)")
	must(a, "BEGIN")
	must(a, "UPDATE d SET v = 11 WHERE id = 1")
	must(a, "INSERT INTO d VALUES (2, 20)")
	must(b, "INSERT INTO d VALUES (3, 30)") // a commit a's snapshot trails
	if res := b.simpleQuery(t, "UPDATE d SET v = 12 WHERE id = 1"); !strings.Contains(res.err, "conflict") {
		t.Fatalf("update of a held row: %+v", res)
	}
	if tm.LowWaterMark() >= tm.LastCommitID() {
		t.Fatalf("an open transaction does not hold the mark: %d, last commit %d", tm.LowWaterMark(), tm.LastCommitID())
	}

	_ = a.conn.Close()
	for deadline := time.Now().Add(5 * time.Second); tm.LowWaterMark() != tm.LastCommitID(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the dropped connection still holds the mark at %d, last commit %d", tm.LowWaterMark(), tm.LastCommitID())
		}
	}
	must(b, "UPDATE d SET v = 12 WHERE id = 1")
	if got := must(b, "SELECT id, v FROM d ORDER BY id").rows; fmt.Sprint(got) != "[[1 12] [3 30]]" {
		t.Errorf("rows = %v, want [[1 12] [3 30]]", got)
	}
	if tm.LowWaterMark() != tm.LastCommitID() {
		t.Errorf("mark %d, last commit %d with no transaction open", tm.LowWaterMark(), tm.LastCommitID())
	}
}

// TestProtocolBoolAggregateKeepsServing: an aggregate over a BOOL argument
// answers over the wire, and the connection (and the server) keep serving.
func TestProtocolBoolAggregateKeepsServing(t *testing.T) {
	addr, _ := startServer(t)
	c := dial(t, addr)
	for _, sql := range []string{"CREATE TABLE t (a INT NOT NULL)", "INSERT INTO t VALUES (-1), (2), (0)"} {
		if res := c.simpleQuery(t, sql); res.err != "" {
			t.Fatalf("%s: %s", sql, res.err)
		}
	}
	if res := c.simpleQuery(t, "SELECT min(a > 0) FROM t"); res.err != "" || fmt.Sprint(res.rows) != "[[0]]" {
		t.Fatalf("min(a > 0): %+v", res)
	}
	if res := c.simpleQuery(t, "SELECT 1"); res.err != "" || fmt.Sprint(res.rows) != "[[1]]" {
		t.Fatalf("SELECT 1 after the aggregate: %+v", res)
	}
}

// TestProtocolMistypedCaseKeepsServing: a CASE whose branches have no
// common type is refused when it is parsed, with SQLSTATE 42804, over the
// extended and the simple protocol, and the connection keeps serving; an
// operator with no rule reports 42883 and an unknown column 42703.
func TestProtocolMistypedCaseKeepsServing(t *testing.T) {
	addr, _ := startServer(t)
	c := dial(t, addr)
	for _, sql := range []string{"CREATE TABLE t (a INT, s VARCHAR(10))", "INSERT INTO t VALUES (1, 'x'), (NULL, NULL)"} {
		if res := c.simpleQuery(t, sql); res.err != "" {
			t.Fatalf("%s: %s", sql, res.err)
		}
	}
	const mixed = "SELECT CASE WHEN a > 5 THEN a ELSE s END FROM t"
	// errorCode sends the messages and returns the SQLSTATE of the
	// ErrorResponse before ReadyForQuery.
	errorCode := func(msgs ...[]byte) string {
		for _, m := range msgs {
			c.send(t, m[0], m[1:])
		}
		code := ""
		for {
			msgType, payload := c.read(t)
			switch msgType {
			case 'E':
				code = parseErrorCode(payload)
			case 'Z':
				return code
			}
		}
	}
	parse := append(append([]byte{'P'}, "mixed\x00"+mixed+"\x00"...), 0, 0)
	for name, msgs := range map[string][][]byte{
		"parse":  {parse, {'S'}},
		"simple": {append(append([]byte{'Q'}, mixed...), 0)},
	} {
		if code := errorCode(msgs...); code != codeDatatypeMismatch {
			t.Errorf("%s of the mixed CASE: SQLSTATE %q, want %s", name, code, codeDatatypeMismatch)
		}
		if res := c.simpleQuery(t, "SELECT 1"); res.err != "" || fmt.Sprint(res.rows) != "[[1]]" {
			t.Fatalf("SELECT 1 after the %s: %+v", name, res)
		}
	}
	for sql, want := range map[string]string{
		"SELECT a FROM t WHERE s = 1":      codeUndefinedFunction,
		"SELECT a FROM t WHERE nosuch = 1": codeUndefinedColumn,
	} {
		if code := errorCode(append(append([]byte{'Q'}, sql...), 0)); code != want {
			t.Errorf("%s: SQLSTATE %q, want %s", sql, code, want)
		}
	}
}

// TestProtocolBindConvertsToSlotType: a client's Parse OIDs choose how Bind
// decodes a parameter's bytes, the plan's slot decides its type. A binary
// float8 2.5 bound to an INT slot is refused at Bind with 22P02, as the text
// '2.5' is (it was truncated to 2 before: `$1 + 1` answered 3, the CASE 2);
// 2.0 binds as 2. The assignment rule's plan errors carry PostgreSQL's
// SQLSTATEs, and the connection keeps serving.
func TestProtocolBindConvertsToSlotType(t *testing.T) {
	addr, _, _ := startServerWith(t, nil)
	c := confClient(t, addr)
	mustSimple(t, c, "CREATE TABLE t (a INT, f FLOAT, s VARCHAR(10))")
	mustSimple(t, c, "INSERT INTO t VALUES (1, 1.5, 'x')")
	const float8 = 701
	for _, st := range []struct{ name, sql, one string }{ // one: the answer to 1.0
		{"plus", "SELECT $1 + 1 FROM t", "2"},
		{"case", "SELECT CASE WHEN a > 0 THEN $1 ELSE 2 END FROM t", "1"},
		{"eq", "SELECT a + 2 FROM t WHERE a = $1", "3"},
	} {
		if _, err := c.Prepare(st.name, st.sql, []uint32{float8}); err != nil {
			t.Fatalf("%s: %v", st.sql, err)
		}
		for _, p := range []pgclient.Param{pgclient.BinaryFloat8(2.5), pgclient.Text("2.5"), pgclient.BinaryFloat8(1.5)} {
			if res, err := c.Exec(st.name, []pgclient.Param{p}, nil); err == nil || pgErr(t, err).Code != codeInvalidTextRepresentation {
				t.Errorf("%s with %v: %v, %v; want SQLSTATE %s", st.sql, p, res, err, codeInvalidTextRepresentation)
			}
		}
		res, err := c.Exec(st.name, []pgclient.Param{pgclient.BinaryFloat8(1.0)}, nil)
		if err != nil || len(res.Rows) != 1 || string(res.Rows[0][0]) != st.one {
			t.Errorf("%s with 1.0: %v, %v; want %s", st.sql, res, err, st.one)
		}
	}
	// The error answers the Bind: no BindComplete comes first.
	bind := []byte("\x00plus\x00\x00\x01\x00\x01\x00\x01")
	bind = append(binary.BigEndian.AppendUint32(bind, 8), pgclient.BinaryFloat8(2.5).Data...)
	bind = append(bind, 0, 0)
	for _, m := range []struct {
		typ     byte
		payload []byte
	}{{'B', bind}, {'E', []byte{0, 0, 0, 0, 0}}, {'S', nil}} {
		if err := c.Raw(m.typ, m.payload); err != nil {
			t.Fatal(err)
		}
	}
	var seen []byte
	for {
		typ, _, err := c.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if seen = append(seen, typ); typ == 'Z' {
			break
		}
	}
	if string(seen) != "EZ" {
		t.Errorf("Bind of float8 2.5 into an INT slot answered %q, want an ErrorResponse then ReadyForQuery", seen)
	}

	for sql, want := range map[string]string{
		"INSERT INTO t (a) VALUES ('z')":     codeDatatypeMismatch,
		"UPDATE t SET a = s":                 codeDatatypeMismatch,
		"INSERT INTO t (a, a) VALUES (2, 3)": codeDuplicateColumn,
		"INSERT INTO t (a) VALUES (1, 2)":    codeSyntaxError,
		"UPDATE t SET a = 1, a = 2":          codeSyntaxError,
		"INSERT INTO t (zz) VALUES (1)":      codeUndefinedColumn,
		"UPDATE t SET zz = 1":                codeUndefinedColumn,
		"INSERT INTO t (a) VALUES (2.5)":     codeInvalidTextRepresentation,
	} {
		if _, err := c.SimpleQuery(sql); err == nil || pgErr(t, err).Code != want {
			t.Errorf("%s: %v, want SQLSTATE %s", sql, err, want)
		}
	}
	if res, err := c.SimpleQuery("SELECT 1"); err != nil || string(res[0].Rows[0][0]) != "1" {
		t.Fatalf("SELECT 1 afterwards: %v, %v", res, err)
	}
}

func TestExtendedQueryProtocol(t *testing.T) {
	addr, _ := startServer(t)
	c := dial(t, addr)
	c.simpleQuery(t, "CREATE TABLE e (a INT NOT NULL)")
	c.simpleQuery(t, "INSERT INTO e VALUES (1), (2), (3)")

	// Parse.
	parse := append([]byte("stmt1\x00"), []byte("SELECT a FROM e WHERE a > ?\x00")...)
	parse = binary.BigEndian.AppendUint16(parse, 0) // no parameter type OIDs
	c.send(t, 'P', parse)

	// Bind with one text parameter "1".
	var bind []byte
	bind = append(bind, "portal1\x00stmt1\x00"...)
	bind = binary.BigEndian.AppendUint16(bind, 0) // format codes
	bind = binary.BigEndian.AppendUint16(bind, 1) // one parameter
	bind = binary.BigEndian.AppendUint32(bind, 1)
	bind = append(bind, '1')
	bind = binary.BigEndian.AppendUint16(bind, 0) // result formats
	c.send(t, 'B', bind)

	// Execute + Sync.
	c.send(t, 'E', append([]byte("portal1\x00"), 0, 0, 0, 0))
	c.send(t, 'S', nil)

	var rows [][]string
	sawParse, sawBind := false, false
	for {
		msgType, payload := c.read(t)
		switch msgType {
		case '1':
			sawParse = true
		case '2':
			sawBind = true
		case 'D':
			rows = append(rows, parseDataRow(payload))
		case 'E':
			t.Fatalf("error: %s", parseError(payload))
		case 'Z':
			goto done
		}
	}
done:
	if !sawParse || !sawBind {
		t.Error("missing ParseComplete/BindComplete")
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v, want a>1 -> 2 rows", rows)
	}
}

func TestConcurrentConnections(t *testing.T) {
	addr, _ := startServer(t)
	setup := dial(t, addr)
	setup.simpleQuery(t, "CREATE TABLE cc (v INT NOT NULL)")

	const clients = 4
	done := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				done <- err
				return
			}
			defer func() { _ = conn.Close() }()
			c := &pgClient{conn: conn, r: bufio.NewReader(conn)}
			var payload []byte
			payload = binary.BigEndian.AppendUint32(payload, 196608)
			payload = append(payload, "user\x00t\x00\x00"...)
			frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)+4))
			frame = append(frame, payload...)
			if _, err := conn.Write(frame); err != nil {
				done <- err
				return
			}
			// Drain to ready, then insert.
			for {
				header := make([]byte, 5)
				if _, err := io.ReadFull(c.r, header); err != nil {
					done <- err
					return
				}
				length := binary.BigEndian.Uint32(header[1:])
				buf := make([]byte, length-4)
				if _, err := io.ReadFull(c.r, buf); err != nil {
					done <- err
					return
				}
				if header[0] == 'Z' {
					break
				}
			}
			sql := fmt.Sprintf("INSERT INTO cc VALUES (%d)", i)
			frame = []byte{'Q'}
			frame = binary.BigEndian.AppendUint32(frame, uint32(len(sql)+1+4))
			frame = append(frame, sql...)
			frame = append(frame, 0)
			if _, err := conn.Write(frame); err != nil {
				done <- err
				return
			}
			for {
				header := make([]byte, 5)
				if _, err := io.ReadFull(c.r, header); err != nil {
					done <- err
					return
				}
				length := binary.BigEndian.Uint32(header[1:])
				buf := make([]byte, length-4)
				if _, err := io.ReadFull(c.r, buf); err != nil {
					done <- err
					return
				}
				if header[0] == 'Z' {
					break
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	res := setup.simpleQuery(t, "SELECT count(*) FROM cc")
	if res.rows[0][0] != "4" {
		t.Errorf("count = %v", res.rows)
	}
}
