package server

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// frame builds one frontend message: type byte, length word, body.
func frame(msgType byte, body ...[]byte) []byte {
	n := 4
	for _, b := range body {
		n += len(b)
	}
	out := binary.BigEndian.AppendUint32([]byte{msgType}, uint32(n))
	for _, b := range body {
		out = append(out, b...)
	}
	return out
}

func cstr(s string) []byte { return append([]byte(s), 0) }

func u16(v uint16) []byte { return binary.BigEndian.AppendUint16(nil, v) }

func u32(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }

// answersSelect1 checks that a fresh connection still gets SELECT 1 answered.
func answersSelect1(t *testing.T, addr string) {
	t.Helper()
	res := dial(t, addr).simpleQuery(t, "SELECT 1")
	if res.err != "" || len(res.rows) != 1 || res.rows[0][0] != "1" {
		t.Fatalf("a fresh connection answered SELECT 1 with %+v", res)
	}
}

// TestMessageLengthOutOfRange: a message whose length word is below its own
// four bytes used to panic the connection goroutine (makeslice) and with it
// the process, and a length near 2³¹ allocated that much before a byte
// arrived. Both are protocol violations: ErrorResponse 08P01, the connection
// closes, the server keeps answering.
func TestMessageLengthOutOfRange(t *testing.T) {
	addr, _ := startServer(t)
	for _, length := range []uint32{0, 3, maxMessageLength + 1, 1<<31 - 1, 1 << 31} {
		c := dial(t, addr)
		if _, err := c.conn.Write(append([]byte{'Q'}, u32(length)...)); err != nil {
			t.Fatal(err)
		}
		_ = c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		msgType, payload := c.read(t)
		if msgType != 'E' || !strings.Contains(string(payload), "C08P01\x00") {
			t.Fatalf("length %d: got %q %q, want ErrorResponse 08P01", length, msgType, payload)
		}
		if _, err := c.r.ReadByte(); err != io.EOF {
			t.Fatalf("length %d: connection still open after the error (%v)", length, err)
		}
	}
	answersSelect1(t, addr)
}

// FuzzFrontendMessages sends arbitrary bytes into one connection of a live
// server after a valid startup, then closes its write side. The server must
// not panic, the connection must answer and close within the deadline, and a
// fresh connection must still answer SELECT 1.
func FuzzFrontendMessages(f *testing.F) {
	addr, e := startServer(f)
	if _, err := e.NewSession().Execute("CREATE TABLE f (id INT NOT NULL, name VARCHAR(20)); INSERT INTO f VALUES (1, 'one')"); err != nil {
		f.Fatal(err)
	}
	const query = "SELECT name FROM f WHERE id = $1"
	// Seeds: a length word below its own four bytes; Parse, Bind, Execute,
	// Sync; a Bind with fewer parameters than its Parse.
	f.Add([]byte{'Q', 0, 0, 0, 0})
	f.Add(append(append(append(
		frame('P', cstr(""), cstr(query), u16(0)),
		frame('B', cstr(""), cstr(""), u16(0), u16(1), u32(1), []byte("1"), u16(0))...),
		frame('E', cstr(""), u32(0))...),
		frame('S')...))
	f.Add(append(append(
		frame('P', cstr("s"), cstr(query), u16(0)),
		frame('B', cstr(""), cstr("s"), u16(0), u16(0), u16(0))...),
		frame('S')...))
	f.Fuzz(func(t *testing.T, in []byte) {
		c := dial(t, addr)
		// Both may fail once the server has dropped the connection over a
		// malformed message; what it answered is read below either way.
		_, _ = c.conn.Write(in)
		_ = c.conn.(*net.TCPConn).CloseWrite()
		_ = c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		var ne net.Error
		if _, err := io.Copy(io.Discard, c.r); errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("the connection neither answered nor closed: %v", err)
		}
		answersSelect1(t, addr)
	})
}
