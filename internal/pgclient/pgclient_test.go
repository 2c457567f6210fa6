package pgclient

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
)

// msg frames one backend message.
func msg(t byte, payload []byte) []byte {
	b := append([]byte{t}, binary.BigEndian.AppendUint32(nil, uint32(len(payload)+4))...)
	return append(b, payload...)
}

// header frames a message header that claims length payload bytes.
func header(t byte, length uint32) []byte {
	return append([]byte{t}, binary.BigEndian.AppendUint32(nil, length+4)...)
}

// dataRow builds a DataRow payload; a nil column is NULL.
func dataRow(cols ...[]byte) []byte {
	p := binary.BigEndian.AppendUint16(nil, uint16(len(cols)))
	for _, c := range cols {
		if c == nil {
			p = binary.BigEndian.AppendUint32(p, 0xFFFFFFFF)
			continue
		}
		p = binary.BigEndian.AppendUint32(p, uint32(len(c)))
		p = append(p, c...)
	}
	return p
}

// errorResponse builds an ErrorResponse payload.
func errorResponse(code, message string) []byte {
	return []byte("SERROR\x00C" + code + "\x00M" + message + "\x00\x00")
}

// scripted connects a Conn over net.Pipe to a peer that discards what the
// client writes, sends script, and closes.
func scripted(t *testing.T, script ...[]byte) *Conn {
	t.Helper()
	client, peer := net.Pipe()
	go func() { _, _ = io.Copy(io.Discard, peer) }()
	go func() {
		for _, b := range script {
			if _, err := peer.Write(b); err != nil {
				return
			}
		}
		_ = peer.Close()
	}()
	t.Cleanup(func() { _ = client.Close() })
	return &Conn{c: client, r: bufio.NewReader(client), w: bufio.NewWriter(client)}
}

// TestReadMessageRejectsBrokenFrames: a header or payload cut off by the
// peer, and a length below the header's own four bytes, are errors.
func TestReadMessageRejectsBrokenFrames(t *testing.T) {
	for name, script := range map[string][]byte{
		"cut header":  {'C', 0, 0},
		"cut payload": append(header('C', 20), "SELECT"...),
		"length 3":    {'C', 0, 0, 0, 3},
	} {
		_, _, err := scripted(t, script).ReadMessage()
		if err == nil {
			t.Errorf("%s: no error", name)
		}
		if name == "cut payload" && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: %v, want io.ErrUnexpectedEOF", name, err)
		}
	}
}

// TestReadMessageDoesNotAllocateClaimedLength: a header claiming a gigabyte
// followed by a few bytes and EOF fails having allocated about what arrived.
func TestReadMessageDoesNotAllocateClaimedLength(t *testing.T) {
	c := scripted(t, header('D', 1<<30), []byte("only a few bytes"))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := c.ReadMessage()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadMessage = %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reading a message cut at 16 bytes allocated %d bytes", grew)
	}
}

// TestParsersRejectLengthsPastTheFrame: every count or length a payload
// claims beyond its own end is an error, not a panic or a short result.
func TestParsersRejectLengthsPastTheFrame(t *testing.T) {
	field := append([]byte("a\x00"), make([]byte, 18)...)
	rowDesc := func(n uint16, body ...byte) []byte { return append(binary.BigEndian.AppendUint16(nil, n), body...) }
	for name, payload := range map[string][]byte{
		"no count":          {0},
		"two of one field":  rowDesc(2, field...),
		"unterminated name": rowDesc(1, 'a', 'b'),
		"cut field":         rowDesc(1, field[:10]...),
	} {
		if _, err := parseRowDescription(payload); err == nil {
			t.Errorf("RowDescription %s: no error", name)
		}
	}
	if fields, err := parseRowDescription(rowDesc(1, field...)); err != nil || len(fields) != 1 || fields[0].Name != "a" {
		t.Errorf("RowDescription of one field = %+v, %v", fields, err)
	}

	long := binary.BigEndian.AppendUint16(nil, 1)
	long = binary.BigEndian.AppendUint32(long, 1<<30) // a column past the frame
	for name, payload := range map[string][]byte{
		"no count":         {0},
		"length past end":  append(long, "abc"...),
		"cut length":       {0, 1, 0, 0},
		"cut column":       dataRow([]byte("x"))[:6],
		"65535 of nothing": {0xFF, 0xFF},
	} {
		if _, err := parseDataRow(payload); err == nil {
			t.Errorf("DataRow %s: no error", name)
		}
	}
	row, err := parseDataRow(dataRow([]byte("x"), nil, []byte{}))
	if err != nil || len(row) != 3 || string(row[0]) != "x" || row[1] != nil || row[2] == nil {
		t.Errorf("DataRow x, NULL, '' = %q, %v", row, err)
	}

	for name, payload := range map[string][]byte{
		"no count":       {0},
		"one of two":     {0, 2, 0, 0, 0, 23},
		"trailing bytes": {0, 0, 1},
	} {
		if _, err := parseParameterDescription(payload); err == nil {
			t.Errorf("ParameterDescription %s: no error", name)
		}
	}

	if _, _, err := splitCString([]byte("no terminator")); err == nil {
		t.Error("splitCString without a NUL: no error")
	}
	if s, rest, err := splitCString([]byte("tag\x00more")); err != nil || s != "tag" || string(rest) != "more" {
		t.Errorf("splitCString = %q, %q, %v", s, rest, err)
	}
}

// TestExchangesRejectBrokenPeers drives each collecting loop against a peer
// that breaks the protocol mid-answer: an unknown message type, a DataRow
// with a column past its frame, and a close before ReadyForQuery.
func TestExchangesRejectBrokenPeers(t *testing.T) {
	bad := map[string][]byte{
		"unknown type":   msg('x', nil),
		"column too far": msg('D', append(binary.BigEndian.AppendUint32([]byte{0, 1}, 99), "ab"...)),
		"bad tag":        msg('C', []byte("SELECT 1")),
		"closed":         nil,
	}
	for name, b := range bad {
		if _, err := scripted(t, msg('2', nil), b).ExecRows("s", nil, 10); err == nil {
			t.Errorf("ExecRows, %s: no error", name)
		}
		if _, err := scripted(t, msg('2', nil), b).Exec("s", nil, nil); err == nil {
			t.Errorf("Exec, %s: no error", name)
		}
		if _, err := scripted(t, b).SimpleQuery("SELECT 1"); err == nil {
			t.Errorf("SimpleQuery, %s: no error", name)
		}
		if _, err := scripted(t, msg('1', nil), b).Prepare("s", "SELECT 1", nil); err == nil {
			t.Errorf("Prepare, %s: no error", name)
		}
	}
	if _, err := scripted(t, msg('1', nil), msg('t', []byte{0, 3, 0, 0}), msg('Z', []byte{'I'})).Prepare("s", "SELECT ?", nil); err == nil {
		t.Error("Prepare with a cut ParameterDescription: no error")
	}
}

// TestErrorResponseMidPortal: a portal that fails after sending rows returns
// the server's error, typed, and no result.
func TestErrorResponseMidPortal(t *testing.T) {
	c := scripted(t,
		msg('2', nil),
		msg('D', dataRow([]byte("1"))),
		msg('D', dataRow([]byte("2"))),
		msg('E', errorResponse("22012", "division by zero")),
	)
	res, err := c.ExecRows("s", nil, 10)
	var pe *PgError
	if res != nil || !errors.As(err, &pe) || pe.Code != "22012" {
		t.Fatalf("ExecRows = %+v, %v, want a 22012 PgError", res, err)
	}
	if !strings.Contains(pe.Error(), "22012") || !strings.Contains(pe.Error(), "division by zero") {
		t.Errorf("Error() = %q", pe.Error())
	}
	// A well-formed suspended run reads its rows, NULL included.
	ok := scripted(t, msg('2', nil), msg('D', dataRow([]byte("7"), nil)), msg('s', nil))
	res, err = ok.ExecRows("s", nil, 1)
	if err != nil || !res.Suspended || len(res.Rows) != 1 || string(res.Rows[0][0]) != "7" || res.Rows[0][1] != nil {
		t.Fatalf("ExecRows = %+v, %v", res, err)
	}
}
