// Package pgclient is a minimal PostgreSQL v3 frontend, shaped like the
// connection layer of a database/sql driver: it speaks the extended query
// protocol the way pgx and lib/pq do (Parse → Describe → Bind → Execute →
// Sync), decodes ErrorResponse into typed errors, and tracks ReadyForQuery.
//
// It exists because this repository vendors no external driver: the server's
// protocol conformance suite and the load harness need a client that
// exercises the same message sequences a real driver would, without a `go
// get`. It is a test/tooling client, not a general-purpose driver — no TLS,
// no authentication (the server implements neither, per the paper).
package pgclient

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
)

// PgError is an ErrorResponse decoded into its fields.
type PgError struct {
	Severity string
	Code     string // SQLSTATE
	Message  string
}

func (e *PgError) Error() string {
	return fmt.Sprintf("%s %s: %s", e.Severity, e.Code, e.Message)
}

// Field describes one result column from RowDescription.
type Field struct {
	Name   string
	OID    uint32
	Len    int16 // the type's length in bytes; -1 for a variable one
	Format int16
}

// Result is the outcome of executing one statement.
type Result struct {
	Fields    []Field
	Rows      [][][]byte // raw column bytes; nil = NULL
	Tag       string     // CommandComplete tag ("SELECT 2", "INSERT 0 1", ...)
	Suspended bool       // Execute hit its row limit (PortalSuspended)
	Empty     bool       // EmptyQueryResponse
}

// Stmt is a prepared statement's shape as reported by Describe.
type Stmt struct {
	Name      string
	ParamOIDs []uint32
	Fields    []Field // empty for statements with no result set
}

// Param is one bound parameter value. Data nil means NULL.
type Param struct {
	Format int16 // 0 text, 1 binary
	Data   []byte
}

// Text builds a text-format parameter.
func Text(s string) Param { return Param{Format: 0, Data: []byte(s)} }

// Null is the NULL parameter.
var Null = Param{Data: nil}

// BinaryInt8 builds a binary int8 parameter (8 bytes big-endian).
func BinaryInt8(v int64) Param {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(v))
	return Param{Format: 1, Data: b}
}

// BinaryInt4 builds a binary int4 parameter.
func BinaryInt4(v int32) Param {
	b := make([]byte, 4)
	binary.BigEndian.PutUint32(b, uint32(v))
	return Param{Format: 1, Data: b}
}

// BinaryFloat8 builds a binary float8 parameter (IEEE-754 big-endian).
func BinaryFloat8(v float64) Param {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, math.Float64bits(v))
	return Param{Format: 1, Data: b}
}

// DecodeInt8 reads a binary int8 result column.
func DecodeInt8(b []byte) int64 { return int64(binary.BigEndian.Uint64(b)) }

// DecodeFloat8 reads a binary float8 result column.
func DecodeFloat8(b []byte) float64 { return math.Float64frombits(binary.BigEndian.Uint64(b)) }

// Conn is one frontend connection.
type Conn struct {
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer

	BackendPID uint32
	SecretKey  uint32
	// TxStatus is the last ReadyForQuery status byte: 'I' idle, 'T' in
	// transaction, 'E' failed transaction.
	TxStatus byte

	// Kept per connection, so that a message costs no allocation of its
	// own: the header read last, the header written last, and the Bind and
	// Execute payloads. Received payloads stay fresh — results keep slices
	// of them.
	readHdr, writeHdr [5]byte
	out               []byte
}

// Dial connects and completes the startup handshake.
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Conn{c: nc, r: bufio.NewReader(nc), w: bufio.NewWriter(nc)}
	var body []byte
	body = binary.BigEndian.AppendUint32(body, 196608) // protocol 3.0
	body = append(body, "user\x00pgclient\x00\x00"...)
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)+4))
	frame = append(frame, body...)
	if _, err := nc.Write(frame); err != nil {
		nc.Close()
		return nil, err
	}
	// Drain the startup response up to ReadyForQuery.
	for {
		t, payload, err := c.readMessage()
		if err != nil {
			nc.Close()
			return nil, err
		}
		switch t {
		case 'K':
			if len(payload) >= 8 {
				c.BackendPID = binary.BigEndian.Uint32(payload[:4])
				c.SecretKey = binary.BigEndian.Uint32(payload[4:8])
			}
		case 'E':
			nc.Close()
			return nil, parseError(payload)
		case 'Z':
			if len(payload) > 0 {
				c.TxStatus = payload[0]
			}
			return c, nil
		}
	}
}

// Close sends Terminate and closes the socket.
func (c *Conn) Close() error {
	c.writeMessage('X', nil)
	_ = c.w.Flush()
	return c.c.Close()
}

// SimpleQuery runs sql through the simple protocol ('Q') and returns one
// Result per statement. The first error is returned after draining to
// ReadyForQuery, like drivers do.
func (c *Conn) SimpleQuery(sql string) ([]*Result, error) {
	payload := append([]byte(sql), 0)
	c.writeMessage('Q', payload)
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	var (
		results []*Result
		cur     *Result
		firstEr error
	)
	ensure := func() *Result {
		if cur == nil {
			cur = &Result{}
		}
		return cur
	}
	for {
		t, payload, err := c.readMessage()
		if err != nil {
			return results, err
		}
		switch t {
		case 'T':
			ensure().Fields, err = parseRowDescription(payload)
		case 'D':
			r := ensure()
			var row [][]byte
			row, err = parseDataRow(payload)
			r.Rows = append(r.Rows, row)
		case 'C':
			r := ensure()
			r.Tag, err = cString(payload)
			results = append(results, r)
			cur = nil
		case 'I':
			r := ensure()
			r.Empty = true
			results = append(results, r)
			cur = nil
		case 'E':
			if firstEr == nil {
				firstEr = parseError(payload)
			}
		case 'Z':
			if len(payload) > 0 {
				c.TxStatus = payload[0]
			}
			return results, firstEr
		default:
			err = unexpected(t)
		}
		if err != nil {
			return results, err
		}
	}
}

// Prepare sends Parse + Describe('S') + Sync — the sequence drivers use to
// validate a statement and learn its shape before the first execution.
// paramOIDs may be nil to let the server infer every parameter type.
func (c *Conn) Prepare(name, sql string, paramOIDs []uint32) (*Stmt, error) {
	var p []byte
	p = append(p, name...)
	p = append(p, 0)
	p = append(p, sql...)
	p = append(p, 0)
	p = binary.BigEndian.AppendUint16(p, uint16(len(paramOIDs)))
	for _, oid := range paramOIDs {
		p = binary.BigEndian.AppendUint32(p, oid)
	}
	c.writeMessage('P', p)
	c.writeMessage('D', append([]byte{'S'}, append([]byte(name), 0)...))
	c.writeMessage('S', nil)
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	st := &Stmt{Name: name}
	var firstEr error
	for {
		t, payload, err := c.readMessage()
		if err != nil {
			return nil, err
		}
		switch t {
		case '1': // ParseComplete
		case 't':
			st.ParamOIDs, err = parseParameterDescription(payload)
		case 'T':
			st.Fields, err = parseRowDescription(payload)
		case 'n': // NoData
		case 'E':
			if firstEr == nil {
				firstEr = parseError(payload)
			}
		case 'Z':
			if len(payload) > 0 {
				c.TxStatus = payload[0]
			}
			if firstEr != nil {
				return nil, firstEr
			}
			return st, nil
		default:
			err = unexpected(t)
		}
		if err != nil {
			return nil, err
		}
	}
}

// Exec runs one full extended-protocol execution against a prepared
// statement: Bind (unnamed portal) + Describe('P') + Execute + Sync.
// resultFormats requests per-column (or uniform, single-entry) wire formats.
func (c *Conn) Exec(stmtName string, params []Param, resultFormats []int16) (*Result, error) {
	c.sendBind("", stmtName, params, resultFormats)
	c.writeMessage('D', []byte{'P', 0})
	c.sendExecute("", 0)
	c.writeMessage('S', nil)
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	return c.collectExec()
}

// ExecRows is Exec returning up to maxRows rows without Sync-ing the portal
// away: Bind + Execute(maxRows) + Flush. Use FetchMore to continue and
// Sync to finish. This mirrors driver cursor support (pgx's QueryRow limits).
func (c *Conn) ExecRows(stmtName string, params []Param, maxRows int32) (*Result, error) {
	c.sendBind("p0", stmtName, params, nil)
	c.sendExecute("p0", maxRows)
	c.writeMessage('H', nil) // Flush: answers without closing the batch
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	return c.collectPortalRun()
}

// FetchMore continues a suspended portal.
func (c *Conn) FetchMore(maxRows int32) (*Result, error) {
	c.sendExecute("p0", maxRows)
	c.writeMessage('H', nil)
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	return c.collectPortalRun()
}

// Sync closes the current extended-protocol batch and waits ReadyForQuery.
func (c *Conn) Sync() error {
	c.writeMessage('S', nil)
	if err := c.w.Flush(); err != nil {
		return err
	}
	var firstEr error
	for {
		t, payload, err := c.readMessage()
		if err != nil {
			return err
		}
		switch t {
		case 'E':
			if firstEr == nil {
				firstEr = parseError(payload)
			}
		case 'Z':
			if len(payload) > 0 {
				c.TxStatus = payload[0]
			}
			return firstEr
		}
	}
}

// CloseStmt deallocates a named prepared statement (Close 'S' + Sync).
func (c *Conn) CloseStmt(name string) error { return c.closeObject('S', name) }

func (c *Conn) closeObject(kind byte, name string) error {
	c.writeMessage('C', append([]byte{kind}, append([]byte(name), 0)...))
	return c.Sync()
}

// Raw sends a hand-built message — the conformance suite uses it to produce
// out-of-spec sequences a well-behaved driver never would.
func (c *Conn) Raw(msgType byte, payload []byte) error {
	c.writeMessage(msgType, payload)
	return c.w.Flush()
}

// ReadMessage exposes the raw message stream for protocol-level assertions.
func (c *Conn) ReadMessage() (byte, []byte, error) { return c.readMessage() }

// DecodeError parses a raw ErrorResponse payload (for use with ReadMessage).
func DecodeError(payload []byte) *PgError { return parseError(payload) }

// --- internals --------------------------------------------------------------

func (c *Conn) sendBind(portal, stmt string, params []Param, resultFormats []int16) {
	p := c.out[:0]
	p = append(p, portal...)
	p = append(p, 0)
	p = append(p, stmt...)
	p = append(p, 0)
	p = binary.BigEndian.AppendUint16(p, uint16(len(params)))
	for _, a := range params {
		p = binary.BigEndian.AppendUint16(p, uint16(a.Format))
	}
	p = binary.BigEndian.AppendUint16(p, uint16(len(params)))
	for _, a := range params {
		if a.Data == nil {
			p = binary.BigEndian.AppendUint32(p, 0xFFFFFFFF)
			continue
		}
		p = binary.BigEndian.AppendUint32(p, uint32(len(a.Data)))
		p = append(p, a.Data...)
	}
	p = binary.BigEndian.AppendUint16(p, uint16(len(resultFormats)))
	for _, f := range resultFormats {
		p = binary.BigEndian.AppendUint16(p, uint16(f))
	}
	c.out = p
	c.writeMessage('B', p)
}

func (c *Conn) sendExecute(portal string, maxRows int32) {
	p := append(c.out[:0], portal...)
	p = append(p, 0)
	p = binary.BigEndian.AppendUint32(p, uint32(maxRows))
	c.out = p
	c.writeMessage('E', p)
}

// collectExec drains one Bind/Describe/Execute/Sync round.
func (c *Conn) collectExec() (*Result, error) {
	res := &Result{}
	var firstEr error
	for {
		t, payload, err := c.readMessage()
		if err != nil {
			return nil, err
		}
		switch t {
		case '2': // BindComplete
		case 'T':
			res.Fields, err = parseRowDescription(payload)
		case 'n': // NoData
		case 'D':
			var row [][]byte
			row, err = parseDataRow(payload)
			res.Rows = append(res.Rows, row)
		case 'C':
			res.Tag, err = cString(payload)
		case 'I':
			res.Empty = true
		case 's':
			res.Suspended = true
		case 'E':
			if firstEr == nil {
				firstEr = parseError(payload)
			}
		case 'Z':
			if len(payload) > 0 {
				c.TxStatus = payload[0]
			}
			if firstEr != nil {
				return nil, firstEr
			}
			return res, nil
		default:
			err = unexpected(t)
		}
		if err != nil {
			return nil, err
		}
	}
}

// collectPortalRun drains one Execute answered via Flush: it returns at
// CommandComplete, PortalSuspended, EmptyQueryResponse, or ErrorResponse
// without expecting ReadyForQuery.
func (c *Conn) collectPortalRun() (*Result, error) {
	res := &Result{}
	for {
		t, payload, err := c.readMessage()
		if err != nil {
			return nil, err
		}
		switch t {
		case '2':
		case 'D':
			var row [][]byte
			if row, err = parseDataRow(payload); err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		case 'C':
			if res.Tag, err = cString(payload); err != nil {
				return nil, err
			}
			return res, nil
		case 's':
			res.Suspended = true
			return res, nil
		case 'I':
			res.Empty = true
			return res, nil
		case 'E':
			return nil, parseError(payload)
		default:
			return nil, unexpected(t)
		}
	}
}

// readMessage reads one backend message. A payload already buffered is read
// in one allocation; a longer one grows as its bytes arrive, so a peer's length
// alone allocates nothing.
func (c *Conn) readMessage() (byte, []byte, error) {
	header := c.readHdr[:]
	if _, err := io.ReadFull(c.r, header); err != nil {
		return 0, nil, err
	}
	length := int(binary.BigEndian.Uint32(header[1:])) - 4
	if length < 0 {
		return 0, nil, errors.New("pgclient: message length below 4")
	}
	if length <= c.r.Buffered() {
		payload := make([]byte, length)
		_, _ = io.ReadFull(c.r, payload) // buffered: cannot fail
		return header[0], payload, nil
	}
	payload, err := io.ReadAll(io.LimitReader(c.r, int64(length)))
	if err != nil {
		return 0, nil, err
	}
	if len(payload) < length {
		return 0, nil, fmt.Errorf("pgclient: message %q ends after %d of %d bytes: %w", header[0], len(payload), length, io.ErrUnexpectedEOF)
	}
	return header[0], payload, nil
}

// unexpected is the error for a message the exchange does not allow.
func unexpected(t byte) error { return fmt.Errorf("pgclient: unexpected message %q", t) }

// errTruncated is the error for a payload that ends inside a field.
var errTruncated = errors.New("pgclient: truncated message")

func (c *Conn) writeMessage(msgType byte, payload []byte) {
	c.writeHdr[0] = msgType
	binary.BigEndian.PutUint32(c.writeHdr[1:], uint32(len(payload)+4))
	_, _ = c.w.Write(c.writeHdr[:])
	_, _ = c.w.Write(payload)
}

func parseParameterDescription(payload []byte) ([]uint32, error) {
	if len(payload) < 2 {
		return nil, errTruncated
	}
	n := int(binary.BigEndian.Uint16(payload))
	if len(payload) != 2+4*n {
		return nil, errTruncated
	}
	oids := make([]uint32, n)
	for i := range oids {
		oids[i] = binary.BigEndian.Uint32(payload[2+4*i:])
	}
	return oids, nil
}

func parseRowDescription(payload []byte) ([]Field, error) {
	if len(payload) < 2 {
		return nil, errTruncated
	}
	n := int(binary.BigEndian.Uint16(payload))
	rest := payload[2:]
	fields := make([]Field, 0, min(n, len(rest)/19)) // a field takes at least 19 bytes
	for i := 0; i < n; i++ {
		name, tail, err := splitCString(rest)
		if err != nil {
			return nil, err
		}
		if len(tail) < 18 {
			return nil, errTruncated
		}
		fields = append(fields, Field{
			Name:   name,
			OID:    binary.BigEndian.Uint32(tail[6:10]),
			Len:    int16(binary.BigEndian.Uint16(tail[10:12])),
			Format: int16(binary.BigEndian.Uint16(tail[16:18])),
		})
		rest = tail[18:]
	}
	return fields, nil
}

// parseDataRow returns the row's columns as slices of payload, which no
// later read reuses.
func parseDataRow(payload []byte) ([][]byte, error) {
	if len(payload) < 2 {
		return nil, errTruncated
	}
	n := int(binary.BigEndian.Uint16(payload))
	rest := payload[2:]
	row := make([][]byte, 0, min(n, len(rest)/4)) // a column takes at least 4 bytes
	for i := 0; i < n; i++ {
		if len(rest) < 4 {
			return nil, errTruncated
		}
		length := int32(binary.BigEndian.Uint32(rest))
		rest = rest[4:]
		if length < 0 {
			row = append(row, nil)
			continue
		}
		if int64(length) > int64(len(rest)) {
			return nil, fmt.Errorf("pgclient: column %d claims %d bytes, %d left: %w", i, length, len(rest), errTruncated)
		}
		row = append(row, rest[:length:length])
		rest = rest[length:]
	}
	return row, nil
}

func parseError(payload []byte) *PgError {
	e := &PgError{}
	rest := payload
	for len(rest) > 0 && rest[0] != 0 {
		field := rest[0]
		val, tail, err := splitCString(rest[1:])
		if err != nil {
			break // an unterminated field ends the fields read
		}
		rest = tail
		switch field {
		case 'S':
			e.Severity = val
		case 'C':
			e.Code = val
		case 'M':
			e.Message = val
		}
	}
	return e
}

func cString(b []byte) (string, error) {
	s, _, err := splitCString(b)
	return s, err
}

// splitCString splits a NUL-terminated string off the front of b.
func splitCString(b []byte) (string, []byte, error) {
	i := bytes.IndexByte(b, 0)
	if i < 0 {
		return "", nil, errors.New("pgclient: string without its NUL terminator")
	}
	return string(b[:i]), b[i+1:], nil
}
