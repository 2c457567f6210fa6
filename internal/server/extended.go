// Extended-query protocol (Parse/Bind/Describe/Execute/Close/Sync). Unlike
// the simple protocol, the extended protocol splits statement processing into
// named phases so drivers can validate once, bind many times, and fetch
// incrementally. The state machine here follows the PostgreSQL v3 rules:
// Parse validates and plans the statement up front, Bind materializes a
// portal honoring parameter and result format codes, Describe reports the
// real parameter and row shapes, Execute streams rows with suspension
// support, and any error discards everything until the next Sync.
package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"hyrise/internal/pipeline"
	"hyrise/internal/types"
)

// preparedStmt is a server-side prepared statement: the engine's parsed and
// planned form plus the wire-level parameter typing (client-declared OIDs
// override inference, per PostgreSQL semantics).
type preparedStmt struct {
	ps         *pipeline.PreparedStatement
	paramOIDs  []uint32         // reported in ParameterDescription
	paramTypes []types.DataType // decode target per parameter slot
}

// portal is a bound, executable statement. Execution materializes the result
// once; Execute with a row limit streams from the cursor and suspends, so a
// later Execute on the same portal resumes where it left off.
type portal struct {
	stmt       *preparedStmt
	params     []types.Value
	resultFmts []int16

	executed     bool
	rows         [][]types.Value
	pos          int
	tag          string
	rowsAffected int64
}

// clientConn carries one connection's protocol state: its session, named
// prepared statements and portals, and the error latch that makes the
// connection ignore everything until Sync after a failed extended-protocol
// step.
type clientConn struct {
	srv     *Server
	w       *wire
	session *pipeline.Session
	b       *backend

	stmts   map[string]*preparedStmt
	portals map[string]*portal

	// bind and unnamed are the Bind scratch every Bind of the connection
	// reuses: the decoded message, and the unnamed portal — a later Bind to
	// it replaces it anyway.
	bind    bindMessage
	unnamed portal

	// syncErr is set when an extended-protocol message fails. While set, all
	// messages except Sync and Terminate are read and discarded, per the
	// protocol ("reads and discards messages until a Sync is reached").
	syncErr bool
}

// protoError reports an extended-protocol failure and flips the connection
// into discard-until-Sync mode.
func (c *clientConn) protoError(code, msg string) {
	c.w.writeErrorCode(code, msg)
	// Flush eagerly: the client may be waiting on this error before it sends
	// the Sync that ends the batch.
	_ = c.w.w.Flush()
	c.syncErr = true
}

// handleParse validates and prepares a statement at Parse time — syntax
// errors, unknown tables, and multi-statement strings are reported here, not
// deferred to Execute. Client-declared parameter type OIDs choose only how
// Bind decodes the bytes; the plan's slot types decide the values' types.
func (c *clientConn) handleParse(payload []byte) {
	name, rest := splitCString(payload)
	sql, rest := splitCString(rest)
	if len(rest) < 2 {
		c.protoError(codeProtocolViolation, "malformed Parse message")
		return
	}
	nOIDs := int(binary.BigEndian.Uint16(rest[:2]))
	rest = rest[2:]
	if len(rest) < 4*nOIDs {
		c.protoError(codeProtocolViolation, "Parse message truncated in parameter types")
		return
	}
	oids := make([]uint32, nOIDs)
	for i := range oids {
		oids[i] = binary.BigEndian.Uint32(rest[4*i : 4*i+4])
	}
	if name != "" {
		if _, exists := c.stmts[name]; exists {
			c.protoError(codeDuplicateStatement,
				fmt.Sprintf("prepared statement %q already exists", name))
			return
		}
	}
	ps, err := c.session.PrepareStatement(sql)
	if err != nil {
		c.protoError(sqlStateFor(err), err.Error())
		return
	}
	st := &preparedStmt{
		ps:         ps,
		paramOIDs:  make([]uint32, ps.NumParams),
		paramTypes: make([]types.DataType, ps.NumParams),
	}
	copy(st.paramTypes, ps.ParamTypes)
	for i := 0; i < ps.NumParams; i++ {
		st.paramOIDs[i] = oidForType(st.paramTypes[i])
		if i < len(oids) && oids[i] != 0 && oids[i] != oidUnknown {
			dt, err := typeForOID(oids[i])
			if err != nil {
				c.protoError(codeProtocolViolation, err.Error())
				return
			}
			st.paramTypes[i], st.paramOIDs[i] = dt, oids[i]
		}
	}
	c.stmts[name] = st
	c.w.writeMessage('1', nil) // ParseComplete
}

// handleBind creates a portal from a prepared statement, decoding parameters
// according to their format codes (text or binary) and the statement's
// parameter types, and recording the requested result formats.
func (c *clientConn) handleBind(payload []byte) {
	bind := &c.bind
	if err := parseBind(payload, bind); err != nil {
		c.protoError(codeProtocolViolation, err.Error())
		return
	}
	st, ok := c.stmts[string(bind.stmt)]
	if !ok {
		c.protoError(codeInvalidStatementName,
			fmt.Sprintf("prepared statement %q does not exist", bind.stmt))
		return
	}
	if bind.portal != "" {
		// Named portals must be closed before reuse; only the unnamed portal
		// is silently replaced by a new Bind.
		if _, exists := c.portals[bind.portal]; exists {
			c.protoError(codeDuplicateCursor,
				fmt.Sprintf("portal %q already exists", bind.portal))
			return
		}
	}
	if len(bind.params) != st.ps.NumParams {
		c.protoError(codeProtocolViolation, fmt.Sprintf(
			"bind message supplies %d parameters, but prepared statement %q requires %d",
			len(bind.params), bind.stmt, st.ps.NumParams))
		return
	}
	if n := len(st.ps.Columns); len(bind.resultFmts) > 1 && len(bind.resultFmts) != n {
		c.protoError(codeProtocolViolation, fmt.Sprintf(
			"bind message has %d result formats but query has %d columns",
			len(bind.resultFmts), n))
		return
	}
	p := &c.unnamed
	if bind.portal != "" {
		p = &portal{}
	}
	*p = portal{stmt: st, params: p.params[:0], resultFmts: append(p.resultFmts[:0], bind.resultFmts...)}
	for i, raw := range bind.params {
		format := formatFor(bind.paramFmts, i)
		v, err := decodeParam(raw, format, st.paramTypes[i], st.paramOIDs[i])
		if err != nil {
			c.protoError(codeInvalidTextRepresentation,
				fmt.Sprintf("parameter $%d: %v", i+1, err))
			return
		}
		p.params = append(p.params, v)
	}
	var err error
	if p.params, err = st.ps.Bind(p.params); err != nil {
		c.protoError(sqlStateFor(err), err.Error())
		return
	}
	c.portals[bind.portal] = p
	c.w.writeMessage('2', nil) // BindComplete
}

// handleDescribe reports the real shape of a statement ('S': parameter types
// then result columns) or a portal ('P': result columns with the bound
// formats). Statements and portals without a result set answer NoData.
func (c *clientConn) handleDescribe(payload []byte) {
	if len(payload) < 1 {
		c.protoError(codeProtocolViolation, "malformed Describe message")
		return
	}
	name := cString(payload[1:])
	switch payload[0] {
	case 'S':
		st, ok := c.stmts[name]
		if !ok {
			c.protoError(codeInvalidStatementName,
				fmt.Sprintf("prepared statement %q does not exist", name))
			return
		}
		c.w.writeParameterDescription(st.paramOIDs)
		if st.ps.ReturnsRows() {
			c.w.writeRowDescriptionCols(st.ps.Columns, st.ps.ColumnTypes, nil)
		} else {
			c.w.writeMessage('n', nil) // NoData
		}
	case 'P':
		p, ok := c.portals[name]
		if !ok {
			c.protoError(codeInvalidCursorName,
				fmt.Sprintf("portal %q does not exist", name))
			return
		}
		if p.stmt.ps.ReturnsRows() {
			c.w.writeRowDescriptionCols(p.stmt.ps.Columns, p.stmt.ps.ColumnTypes, p.resultFmts)
		} else {
			c.w.writeMessage('n', nil)
		}
	default:
		c.protoError(codeProtocolViolation,
			fmt.Sprintf("invalid Describe kind %q", payload[0]))
	}
}

// handleExecute runs a portal. The first Execute submits the statement to
// the executor pool and materializes the result; every Execute then streams
// up to maxRows rows from the cursor, answering PortalSuspended when rows
// remain and CommandComplete once the portal is drained.
func (c *clientConn) handleExecute(payload []byte) {
	name, rest := splitCString(payload)
	if len(rest) < 4 {
		c.protoError(codeProtocolViolation, "malformed Execute message")
		return
	}
	maxRows := int(int32(binary.BigEndian.Uint32(rest[:4])))
	p, ok := c.portals[name]
	if !ok {
		c.protoError(codeInvalidCursorName,
			fmt.Sprintf("portal %q does not exist", name))
		return
	}
	if p.stmt.ps.Empty() {
		c.w.writeMessage('I', nil) // EmptyQueryResponse
		return
	}
	if !p.executed {
		ps := p.stmt.ps
		res, err := c.execute(c.session, ps, p.params)
		if err != nil {
			c.protoError(sqlStateFor(err), err.Error())
			return
		}
		p.executed = true
		p.tag, p.rowsAffected = res.Tag, res.RowsAffected
		if ps.ReturnsRows() && res.Table != nil {
			p.rows = pipeline.ValueRows(res.Table)
		}
	}
	limit := len(p.rows) - p.pos
	if maxRows > 0 && maxRows < limit {
		limit = maxRows
	}
	for i := 0; i < limit; i++ {
		c.w.writeDataRowFormats(p.rows[p.pos+i], p.resultFmts)
	}
	p.pos += limit
	if p.pos < len(p.rows) {
		c.w.writeMessage('s', nil) // PortalSuspended
		return
	}
	selected := -1
	if p.stmt.ps.ReturnsRows() {
		selected = len(p.rows)
	}
	c.w.writeCompletion(p.tag, p.rowsAffected, selected)
}

// handleClose deallocates a named statement or portal. Closing a name that
// does not exist is not an error, per the protocol.
func (c *clientConn) handleClose(payload []byte) {
	if len(payload) < 1 {
		c.protoError(codeProtocolViolation, "malformed Close message")
		return
	}
	name := cString(payload[1:])
	switch payload[0] {
	case 'S':
		delete(c.stmts, name)
	case 'P':
		delete(c.portals, name)
	default:
		c.protoError(codeProtocolViolation,
			fmt.Sprintf("invalid Close kind %q", payload[0]))
		return
	}
	c.w.writeMessage('3', nil) // CloseComplete
}

// handleSync closes the current extended-protocol batch: the error latch is
// cleared, the unnamed portal is destroyed, and ReadyForQuery reports the
// transaction state. Outside an explicit transaction Sync also ends the
// implicit transaction, which destroys named portals too (PostgreSQL portal
// lifetime rules); inside a transaction block named portals survive.
func (c *clientConn) handleSync() {
	c.syncErr = false
	if c.session.InTransaction() {
		delete(c.portals, "")
	} else {
		clear(c.portals)
	}
	c.w.writeReady(c.session)
}

// --- bind parsing -----------------------------------------------------------

// bindMessage is the decoded wire form of Bind: parameter format codes,
// raw parameter bytes (nil = NULL), and result-column format codes. stmt and
// params are slices of the message's payload.
type bindMessage struct {
	portal     string
	stmt       []byte
	paramFmts  []int16
	params     [][]byte
	resultFmts []int16
}

// parseBind decodes a Bind payload into m, reusing m's slices.
func parseBind(payload []byte, m *bindMessage) error {
	m.paramFmts, m.params, m.resultFmts = m.paramFmts[:0], m.params[:0], m.resultFmts[:0]
	var rest []byte
	m.portal, rest = splitCString(payload)
	m.stmt, rest, _ = bytes.Cut(rest, []byte{0})
	if len(rest) < 2 {
		return fmt.Errorf("malformed Bind message")
	}
	nFmts := int(binary.BigEndian.Uint16(rest[:2]))
	rest = rest[2:]
	if len(rest) < 2*nFmts {
		return fmt.Errorf("Bind message truncated in parameter formats")
	}
	for i := 0; i < nFmts; i++ {
		f := int16(binary.BigEndian.Uint16(rest[2*i : 2*i+2]))
		if f != 0 && f != 1 {
			return fmt.Errorf("invalid parameter format code %d", f)
		}
		m.paramFmts = append(m.paramFmts, f)
	}
	rest = rest[2*nFmts:]
	if len(rest) < 2 {
		return fmt.Errorf("malformed Bind message")
	}
	nParams := int(binary.BigEndian.Uint16(rest[:2]))
	rest = rest[2:]
	if len(m.paramFmts) > 1 && len(m.paramFmts) != nParams {
		return fmt.Errorf("bind message has %d parameter formats but %d parameters",
			len(m.paramFmts), nParams)
	}
	for i := 0; i < nParams; i++ {
		if len(rest) < 4 {
			return fmt.Errorf("Bind message truncated in parameters")
		}
		length := int32(binary.BigEndian.Uint32(rest[:4]))
		rest = rest[4:]
		if length < 0 {
			m.params = append(m.params, nil) // NULL
			continue
		}
		if len(rest) < int(length) {
			return fmt.Errorf("Bind message truncated in parameter body")
		}
		m.params = append(m.params, rest[:length])
		rest = rest[length:]
	}
	if len(rest) < 2 {
		return fmt.Errorf("malformed Bind message")
	}
	nResults := int(binary.BigEndian.Uint16(rest[:2]))
	rest = rest[2:]
	if len(rest) < 2*nResults {
		return fmt.Errorf("Bind message truncated in result formats")
	}
	for i := 0; i < nResults; i++ {
		f := int16(binary.BigEndian.Uint16(rest[2*i : 2*i+2]))
		if f != 0 && f != 1 {
			return fmt.Errorf("invalid result format code %d", f)
		}
		m.resultFmts = append(m.resultFmts, f)
	}
	return nil
}

// formatFor resolves the per-index format code: an empty list means all
// text, a single entry applies to every position.
func formatFor(fmts []int16, i int) int16 {
	switch {
	case len(fmts) == 0:
		return 0
	case len(fmts) == 1:
		return fmts[0]
	case i < len(fmts):
		return fmts[i]
	default:
		return 0
	}
}

// --- parameter decoding -----------------------------------------------------

// decodeParam turns one raw Bind parameter into a value of type dt, the
// slot's type or the one its declared OID names. Text is parsed as dt
// (types.ParseValue) — a numeric-looking string bound to a string slot stays
// a string. Binary is decoded by oid, the declared OID or the slot type's;
// unsupported binary encodings are rejected rather than misread.
func decodeParam(raw []byte, format int16, dt types.DataType, oid uint32) (types.Value, error) {
	switch {
	case raw == nil:
		return types.NullValue, nil
	case format == 0:
		return types.ParseValue(dt, string(raw))
	}
	switch oid {
	case oidInt2, oidInt4, oidInt8:
		iv, err := decodeBinaryInt(raw)
		return types.Int(iv), err
	case oidFloat4, oidFloat8:
		fv, err := decodeBinaryFloat(raw)
		return types.Float(fv), err
	case oidBool:
		if len(raw) != 1 {
			return types.NullValue, fmt.Errorf("binary bool must be 1 byte, got %d", len(raw))
		}
		return types.Bool(raw[0] != 0), nil
	case oidText, oidVarchar, oidBpchar:
		return types.Str(string(raw)), nil
	default:
		return types.NullValue, fmt.Errorf("unsupported binary parameter type OID %d", oid)
	}
}

func decodeBinaryInt(raw []byte) (int64, error) {
	switch len(raw) {
	case 2:
		return int64(int16(binary.BigEndian.Uint16(raw))), nil
	case 4:
		return int64(int32(binary.BigEndian.Uint32(raw))), nil
	case 8:
		return int64(binary.BigEndian.Uint64(raw)), nil
	default:
		return 0, fmt.Errorf("binary integer must be 2, 4, or 8 bytes, got %d", len(raw))
	}
}

func decodeBinaryFloat(raw []byte) (float64, error) {
	switch len(raw) {
	case 4:
		return float64(math.Float32frombits(binary.BigEndian.Uint32(raw))), nil
	case 8:
		return math.Float64frombits(binary.BigEndian.Uint64(raw)), nil
	default:
		return 0, fmt.Errorf("binary float must be 4 or 8 bytes, got %d", len(raw))
	}
}

// --- OID mapping ------------------------------------------------------------

// PostgreSQL type OIDs understood at Bind time.
const (
	oidBool    = 16
	oidInt8    = 20
	oidInt2    = 21
	oidInt4    = 23
	oidText    = 25
	oidFloat4  = 700
	oidFloat8  = 701
	oidBpchar  = 1042
	oidVarchar = 1043
	oidUnknown = 705
)

// typeForOID maps a client-declared parameter OID to the type its value
// decodes as.
func typeForOID(oid uint32) (types.DataType, error) {
	switch oid {
	case oidBool:
		return types.TypeBool, nil
	case oidInt2, oidInt4, oidInt8:
		return types.TypeInt64, nil
	case oidFloat4, oidFloat8:
		return types.TypeFloat64, nil
	case oidText, oidVarchar, oidBpchar:
		return types.TypeString, nil
	default:
		return types.TypeNull, fmt.Errorf("unsupported parameter type OID %d", oid)
	}
}

// oidForType reports the OID advertised in ParameterDescription and
// RowDescription for an engine type; a column of type NULL reports text.
func oidForType(dt types.DataType) uint32 {
	switch dt {
	case types.TypeBool:
		return oidBool
	case types.TypeInt64:
		return oidInt8
	case types.TypeFloat64:
		return oidFloat8
	default:
		return oidText
	}
}

// --- wire output ------------------------------------------------------------

// writeParameterDescription answers Describe('S') with the statement's
// parameter OIDs.
func (w *wire) writeParameterDescription(oids []uint32) {
	payload := make([]byte, 2+4*len(oids))
	binary.BigEndian.PutUint16(payload[:2], uint16(len(oids)))
	for i, oid := range oids {
		binary.BigEndian.PutUint32(payload[2+4*i:], oid)
	}
	w.writeMessage('t', payload)
}

// writeRowDescriptionCols emits RowDescription from a column name/type list,
// reporting the format each column will use on the wire (text when fmts is
// empty).
func (w *wire) writeRowDescriptionCols(names []string, dts []types.DataType, fmts []int16) {
	b := binary.BigEndian.AppendUint16(w.out[:0], uint16(len(names)))
	for i, name := range names {
		b = append(append(b, name...), 0)
		dt := types.TypeString
		if i < len(dts) {
			dt = dts[i]
		}
		b = binary.BigEndian.AppendUint32(b, 0) // table OID
		b = binary.BigEndian.AppendUint16(b, 0) // column number
		b = binary.BigEndian.AppendUint32(b, oidForType(dt))
		b = binary.BigEndian.AppendUint16(b, typlenFor(dt))
		b = binary.BigEndian.AppendUint32(b, 0xFFFFFFFF) // typmod -1
		b = binary.BigEndian.AppendUint16(b, uint16(formatFor(fmts, i)))
	}
	w.out = b
	w.writeMessage('T', b)
}

// typlenFor reports the wire type length: fixed 8 bytes for int8/float8,
// 1 for bool, variable (-1) for text.
func typlenFor(dt types.DataType) uint16 {
	switch dt {
	case types.TypeBool:
		return 1
	case types.TypeInt64, types.TypeFloat64:
		return 8
	default:
		return 0xFFFF
	}
}

// writeDataRowFormats emits one DataRow honoring per-column result formats:
// binary int8/float8 big-endian encodings where requested, text otherwise.
func (w *wire) writeDataRowFormats(row []types.Value, fmts []int16) {
	b := binary.BigEndian.AppendUint16(w.out[:0], uint16(len(row)))
	for i, v := range row {
		if v.IsNull() {
			b = binary.BigEndian.AppendUint32(b, 0xFFFFFFFF)
			continue
		}
		at := len(b)
		b = append(b, 0, 0, 0, 0) // the length, set below
		switch {
		case formatFor(fmts, i) == 1:
			b = appendBinaryValue(b, v)
		case v.Type == types.TypeBool:
			b = append(b, "ft"[v.I])
		default:
			b = appendText(b, v)
		}
		binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	}
	w.out = b
	w.writeMessage('D', b)
}

// appendBinaryValue appends a value in its wire binary format: int8 and
// float8 as 8 bytes big-endian, bool as one byte, strings as raw bytes.
func appendBinaryValue(b []byte, v types.Value) []byte {
	switch v.Type {
	case types.TypeBool:
		return append(b, byte(v.I))
	case types.TypeInt64:
		return binary.BigEndian.AppendUint64(b, uint64(v.I))
	case types.TypeFloat64:
		return binary.BigEndian.AppendUint64(b, math.Float64bits(v.F))
	default:
		return appendText(b, v)
	}
}

// appendText appends v.String().
func appendText(b []byte, v types.Value) []byte {
	switch v.Type {
	case types.TypeInt64:
		return strconv.AppendInt(b, v.I, 10)
	case types.TypeFloat64:
		return strconv.AppendFloat(b, v.F, 'g', -1, 64)
	case types.TypeString:
		return append(b, v.S...)
	default:
		return append(b, v.String()...)
	}
}
