package encoding

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"unsafe"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Segment serialization: every segment type — unencoded value segments and
// all encoded forms — can be written to and rebuilt from a byte stream. The
// persistence layer snapshots immutable chunks in their encoded segment
// form, so on-disk size inherits the compression wins and recovery I/O is
// proportional to compressed size.
//
// The format is self-describing: a one-byte segment tag, followed by
// tag-specific fields. Integers use unsigned varints (zig-zag varints where
// signed), floats use IEEE-754 bits, strings and bitmaps are
// length-prefixed. Integrity (CRC) is the caller's concern — the WAL and
// snapshot framings both checksum whole records/files. The same primitives
// (AppendString, AppendBools and Reader) write and read the persistence
// layer's WAL records and snapshot bodies around the segments.

// Segment tags. The numeric values are part of the on-disk format.
const (
	segValueInt64 byte = iota + 1
	segValueFloat64
	segValueString
	segDictInt64
	segDictFloat64
	segDictString
	segRunLengthInt64
	segRunLengthFloat64
	segRunLengthString
	segFrameOfReference
	segDictStringFSST   // a string dictionary packed with its symbol table (fsst.go)
	segDecimal          // a decimal column's exponent, then its integers as segFrameOfReference's body
	segDecimalPatched   // segDecimal's fields, then the patches: their offsets (uvarints) and values (float64s)
	segDecimalCorrected // a decimal column's exponent and correction width, then segDecimalPatched's integers and patches
)

// UintVector tags.
const (
	vecFixed8 byte = iota + 1
	vecFixed16
	vecFixed32
	vecFixed64
	vecBP128
)

// --- primitive append helpers ------------------------------------------

// AppendString appends s with its length as a uvarint prefix.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBools appends b as a length-prefixed LSB-first bitmap; a zero length
// reads back as a nil slice.
func AppendBools(dst []byte, b []bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	var cur byte
	for i, v := range b {
		if v {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			dst = append(dst, cur)
			cur = 0
		}
	}
	if len(b)%8 != 0 {
		dst = append(dst, cur)
	}
	return dst
}

// Reader consumes the primitive encodings with sticky error state: after the
// first failure every read returns its zero value and Err reports the
// failure, so decoding truncated or corrupt input ends in an error, never a
// panic. It is the one reader of untrusted bytes for segments, snapshot
// bodies and WAL records alike.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over buf; reads slice buf, they do not copy it.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of bytes not read yet.
func (r *Reader) Len() int { return len(r.buf) }

// Fail records a failure unless one is recorded already.
func (r *Reader) Fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("encoding: corrupt input: %s", msg)
	}
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.next(1); b != nil {
		return b[0]
	}
	return 0
}

// next reads the next n bytes without copying them.
func (r *Reader) next(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf) {
		r.Fail("unexpected end of input")
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.Fail("bad uvarint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a zig-zag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.Fail("bad varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Uint64LE reads a little-endian uint64, the form float bits take.
func (r *Reader) Uint64LE() uint64 {
	if b := r.next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *Reader) length(what string) int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.buf))+1 { // +1: bitmap lengths count bits, not bytes
		// A cheap sanity bound; exact bounds are checked by the consumers.
		if v > uint64(len(r.buf))*8+8 {
			r.Fail(what + " length exceeds input")
			return 0
		}
	}
	return int(v)
}

// Str reads what AppendString wrote.
func (r *Reader) Str() string { return string(r.Prefixed()) }

// Prefixed reads what AppendString wrote without copying it out of the input.
func (r *Reader) Prefixed() []byte { return r.next(r.length("string")) }

// Bools reads what AppendBools wrote.
func (r *Reader) Bools() []bool {
	n := r.length("bitmap")
	if r.err != nil || n == 0 {
		return nil
	}
	nBytes := (n + 7) / 8
	if nBytes > len(r.buf) {
		r.Fail("bitmap length exceeds input")
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = r.buf[i/8]&(1<<(i%8)) != 0
	}
	r.buf = r.buf[nBytes:]
	return out
}

// --- typed slice helpers -----------------------------------------------

func appendInt64s(dst []byte, vs []int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

func (r *Reader) int64s() []int64 {
	n := r.length("int64 slice")
	if r.err != nil {
		return nil
	}
	out := make([]int64, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.Varint())
	}
	if r.err != nil {
		return nil
	}
	return out
}

func appendFloat64s(dst []byte, vs []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func (r *Reader) float64s() []float64 {
	n := r.length("float64 slice")
	if r.err != nil {
		return nil
	}
	if n*8 > len(r.buf) {
		r.Fail("float64 slice exceeds input")
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.buf[i*8:]))
	}
	r.buf = r.buf[n*8:]
	return out
}

func appendStrings(dst []byte, vs []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = AppendString(dst, v)
	}
	return dst
}

func (r *Reader) strings_() []string {
	n := r.length("string slice")
	if r.err != nil {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if r.err != nil {
			return nil
		}
		out = append(out, r.Str())
	}
	return out
}

// packedStrings reads what appendStrings wrote straight into a string
// dictionary's layout: one pass sizes the blob and packs its ends (packEnds),
// a second fills it, so the values cost one allocation, not one each.
func (r *Reader) packedStrings() packedStrings {
	n := r.length("string slice")
	values, ends, total := *r, make([]uint64, 0, min(n, r.Len())), 0 // values: where the second pass starts
	for i := 0; i < n && r.err == nil; i++ {
		total += len(r.Prefixed())
		ends = append(ends, uint64(total))
	}
	if r.err != nil {
		return packedStrings{}
	}
	var blob strings.Builder
	blob.Grow(total)
	for range n {
		blob.Write(values.Prefixed())
	}
	return packedStrings{blob: blob.String(), ends: packEnds(ends, blockMaxima(ends))}
}

// appendFSSTTable writes a symbol table: its symbol count, then each symbol as
// its length and its bytes.
func appendFSSTTable(dst []byte, t *fsstTable) []byte {
	dst = append(dst, byte(t.n))
	for c := range t.n {
		dst = append(dst, t.lens[c])
		for k := range t.lens[c] {
			dst = append(dst, byte(t.syms[c]>>(8*k)))
		}
	}
	return dst
}

// fsstPacked reads what appendFSSTTable and appendStrings wrote of a packed
// dictionary. Symbols of 0 or more than 8 bytes, codes past the table and an
// escape that ends a value fail the read: decoding trusts all three.
func (r *Reader) fsstPacked() packedStrings {
	t := &fsstTable{n: int(r.Byte())}
	for c := 0; c < t.n && r.err == nil; c++ {
		n := int(r.Byte())
		if n < 1 || n > 8 || n > len(r.buf) {
			r.Fail("FSST symbol length outside 1-8 or past the input")
			return packedStrings{}
		}
		for k := range n {
			t.syms[c] |= uint64(r.buf[k]) << (8 * k)
		}
		t.lens[c], r.buf = uint8(n), r.buf[n:]
	}
	p := r.packedStrings()
	p.table = t
	for id := range p.n() {
		from, to := p.span(uint64(id))
		for i := from; i < to; i++ {
			if c := p.blob[i]; c == fsstEscape && i+1 < to {
				i++
			} else if int(c) >= t.n {
				r.Fail("FSST code past the table or escape at the end of a value")
				return packedStrings{}
			}
		}
	}
	return p
}

// --- UintVector ---------------------------------------------------------

func appendUintVector(dst []byte, v UintVector) []byte {
	switch vec := v.(type) {
	case *FixedWidthVector[uint8]:
		dst = append(dst, vecFixed8)
		dst = binary.AppendUvarint(dst, uint64(len(vec.data)))
		dst = append(dst, vec.data...)
	case *FixedWidthVector[uint16]:
		dst = append(dst, vecFixed16)
		dst = binary.AppendUvarint(dst, uint64(len(vec.data)))
		for _, w := range vec.data {
			dst = binary.LittleEndian.AppendUint16(dst, w)
		}
	case *FixedWidthVector[uint32]:
		dst = append(dst, vecFixed32)
		dst = binary.AppendUvarint(dst, uint64(len(vec.data)))
		for _, w := range vec.data {
			dst = binary.LittleEndian.AppendUint32(dst, w)
		}
	case *FixedWidthVector[uint64]:
		dst = append(dst, vecFixed64)
		dst = binary.AppendUvarint(dst, uint64(len(vec.data)))
		for _, w := range vec.data {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
	case *BP128Vector:
		dst = append(dst, vecBP128)
		dst = binary.AppendUvarint(dst, uint64(vec.n))
		dst = binary.AppendUvarint(dst, uint64(len(vec.words)))
		for _, w := range vec.words {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
		dst = binary.AppendUvarint(dst, uint64(len(vec.blockBits)))
		dst = append(dst, vec.blockBits...)
		dst = binary.AppendUvarint(dst, uint64(len(vec.blockStart)))
		for _, w := range vec.blockStart {
			dst = binary.LittleEndian.AppendUint32(dst, w)
		}
	}
	return dst
}

// wellFormed reports that v has one block per 128 codes, each 1 to 64 bits
// wide and inside the words: what GetFast and group index unchecked.
func (v *BP128Vector) wellFormed() bool {
	blocks := (v.n + bp128BlockSize - 1) / bp128BlockSize
	if v.n < 0 || len(v.blockBits) != blocks || len(v.blockStart) != blocks {
		return false
	}
	for b, width := range v.blockBits {
		rows := min(v.n-b*bp128BlockSize, bp128BlockSize)
		if width == 0 || width > 64 || int(v.blockStart[b])+(int(width)*rows+63)/64 > len(v.words) {
			return false
		}
	}
	return true
}

// littleEndians reads a length-prefixed array of little-endian W.
func littleEndians[W uint8 | uint16 | uint32 | uint64](r *Reader) []W {
	n, size := r.length("vector"), int(unsafe.Sizeof(W(0)))
	if r.err != nil || n*size > len(r.buf) {
		r.Fail("vector exceeds input")
		return nil
	}
	data := make([]W, n)
	for i := range data {
		switch b := r.buf[i*size:]; size {
		case 1:
			data[i] = W(b[0])
		case 2:
			data[i] = W(binary.LittleEndian.Uint16(b))
		case 4:
			data[i] = W(binary.LittleEndian.Uint32(b))
		default:
			data[i] = W(binary.LittleEndian.Uint64(b))
		}
	}
	r.buf = r.buf[n*size:]
	return data
}

// uintVector reads what appendUintVector wrote; the caller checks r.Err.
func (r *Reader) uintVector() UintVector {
	tag := r.Byte()
	if r.err != nil {
		return nil
	}
	switch tag {
	case vecFixed8:
		return &FixedWidthVector[uint8]{data: littleEndians[uint8](r)}
	case vecFixed16:
		return &FixedWidthVector[uint16]{data: littleEndians[uint16](r)}
	case vecFixed32:
		return &FixedWidthVector[uint32]{data: littleEndians[uint32](r)}
	case vecFixed64:
		return &FixedWidthVector[uint64]{data: littleEndians[uint64](r)}
	case vecBP128:
		v := &BP128Vector{n: int(r.Uvarint())}
		v.words, v.blockBits, v.blockStart = littleEndians[uint64](r), littleEndians[uint8](r), littleEndians[uint32](r)
		if r.err == nil && !v.wellFormed() {
			r.Fail("bp128 blocks do not match the vector")
		}
		return v
	default:
		r.Fail(fmt.Sprintf("unknown vector tag %d", tag))
		return nil
	}
}

// --- segments -----------------------------------------------------------

// AppendSegment serializes a segment (unencoded or encoded) to dst and
// returns the extended slice. Reference segments cannot be serialized.
func AppendSegment(dst []byte, seg storage.Segment) ([]byte, error) {
	switch s := seg.(type) {
	case *storage.ValueSegment[int64]:
		dst = append(dst, segValueInt64)
		dst = appendValueSegmentMeta(dst, s.Nullable(), s.Nulls())
		return appendInt64s(dst, s.Values()), nil
	case *storage.ValueSegment[float64]:
		dst = append(dst, segValueFloat64)
		dst = appendValueSegmentMeta(dst, s.Nullable(), s.Nulls())
		return appendFloat64s(dst, s.Values()), nil
	case *storage.StringSegment: // its entries are AppendString's: the blob, in row order
		dst = append(dst, segValueString)
		dst = appendValueSegmentMeta(dst, s.Nullable(), s.Nulls())
		return s.AppendEntries(binary.AppendUvarint(dst, uint64(s.Len()))), nil
	case *DictionarySegment[int64]:
		dst = append(dst, segDictInt64)
		dst = appendInt64s(dst, s.dict)
		return appendUintVector(dst, s.av), nil
	case *DictionarySegment[float64]:
		dst = append(dst, segDictFloat64)
		dst = appendFloat64s(dst, s.dict)
		return appendUintVector(dst, s.av), nil
	case *DictionarySegment[string]:
		if s.strs.table != nil {
			dst = appendFSSTTable(append(dst, segDictStringFSST), s.strs.table)
		} else {
			dst = append(dst, segDictString)
		}
		dst = binary.AppendUvarint(dst, uint64(s.nullID))
		for id := range uint64(s.nullID) {
			dst = AppendString(dst, s.strs.raw(id))
		}
		return appendUintVector(dst, s.av), nil
	case *RunLengthSegment[int64]:
		dst = append(dst, segRunLengthInt64)
		dst = appendRunLengthMeta(dst, s.n, s.ends, s.nulls)
		return appendInt64s(dst, s.values), nil
	case *RunLengthSegment[float64]:
		dst = append(dst, segRunLengthFloat64)
		dst = appendRunLengthMeta(dst, s.n, s.ends, s.nulls)
		return appendFloat64s(dst, s.values), nil
	case *RunLengthSegment[string]:
		dst = append(dst, segRunLengthString)
		dst = appendRunLengthMeta(dst, s.n, s.ends, s.nulls)
		return appendStrings(dst, s.values), nil
	case *FrameOfReferenceSegment:
		return appendFrameOfReference(append(dst, segFrameOfReference), s), nil
	case *DecimalSegment:
		switch {
		case s.bits > 0:
			dst = appendFrameOfReference(append(dst, segDecimalCorrected, s.exp, s.bits), s.ints)
		case len(s.patches.rows) == 0:
			return appendFrameOfReference(append(dst, segDecimal, s.exp), s.ints), nil
		default:
			dst = appendFrameOfReference(append(dst, segDecimalPatched, s.exp), s.ints)
		}
		dst = binary.AppendUvarint(dst, uint64(len(s.patches.rows)))
		for _, r := range s.patches.rows {
			dst = binary.AppendUvarint(dst, uint64(r))
		}
		return appendFloat64s(dst, s.patches.vals), nil
	default:
		return nil, fmt.Errorf("encoding: cannot serialize segment of type %T", seg)
	}
}

func appendFrameOfReference(dst []byte, s *FrameOfReferenceSegment) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.n))
	dst = appendInt64s(dst, s.frames)
	dst = AppendBools(dst, s.nulls)
	return appendUintVector(dst, s.offsets)
}

func appendValueSegmentMeta(dst []byte, nullable bool, nulls []bool) []byte {
	if nullable {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return AppendBools(dst, nulls)
}

func appendRunLengthMeta(dst []byte, n int, ends []types.ChunkOffset, nulls []bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, uint64(len(ends)))
	for _, e := range ends {
		dst = binary.AppendUvarint(dst, uint64(e))
	}
	return AppendBools(dst, nulls)
}

// DecodeSegment rebuilds a segment from buf and returns it together with
// the remaining bytes. It never panics on corrupt input.
func DecodeSegment(buf []byte) (storage.Segment, []byte, error) {
	r := NewReader(buf)
	if seg := r.Segment(); r.err == nil {
		return seg, r.buf, nil
	}
	return nil, nil, r.err
}

// Segment reads what AppendSegment wrote; it is nil once Err is set.
func (r *Reader) Segment() storage.Segment {
	tag := r.Byte()
	var seg storage.Segment
	switch tag {
	case segValueInt64:
		nullable, nulls := r.Byte() == 1, r.Bools()
		seg = valueSegmentFromParts(r, r.int64s(), nulls, nullable)
	case segValueFloat64:
		nullable, nulls := r.Byte() == 1, r.Bools()
		seg = valueSegmentFromParts(r, r.float64s(), nulls, nullable)
	case segValueString:
		nullable, nulls := r.Byte() == 1, r.Bools()
		seg = r.stringSegment(nulls, nullable)
	case segDictInt64:
		seg = restoreDictionary(r, &DictionarySegment[int64]{dict: r.int64s()})
	case segDictFloat64:
		seg = restoreDictionary(r, &DictionarySegment[float64]{dict: r.float64s()})
	case segDictString: // packed by the rule a seal packs by
		seg = restoreDictionary(r, &DictionarySegment[string]{strs: r.packedStrings().pack()})
	case segDictStringFSST:
		seg = restoreDictionary(r, &DictionarySegment[string]{strs: r.fsstPacked()})
	case segRunLengthInt64:
		n, ends, nulls := r.runLengthMeta()
		seg = restoreRunLength(r, &RunLengthSegment[int64]{n: n, ends: ends, nulls: nulls, values: r.int64s()})
	case segRunLengthFloat64:
		n, ends, nulls := r.runLengthMeta()
		seg = restoreRunLength(r, &RunLengthSegment[float64]{n: n, ends: ends, nulls: nulls, values: r.float64s()})
	case segRunLengthString:
		n, ends, nulls := r.runLengthMeta()
		seg = restoreRunLength(r, &RunLengthSegment[string]{n: n, ends: ends, nulls: nulls, values: r.strings_()})
	case segFrameOfReference:
		seg = r.frameOfReference()
	case segDecimal, segDecimalPatched, segDecimalCorrected:
		seg = r.decimal(tag)
	default:
		r.Fail(fmt.Sprintf("unknown segment tag %d", tag))
	}
	if r.err != nil {
		return nil
	}
	return seg
}

// frameOfReference reads what appendFrameOfReference wrote. The per-block
// scan statistics are derived state, rebuilt from the codes; frames, codes or
// NULL flags that do not match the row count fail the read.
func (r *Reader) frameOfReference() *FrameOfReferenceSegment {
	s := &FrameOfReferenceSegment{n: int(r.Uvarint())}
	s.frames = r.int64s()
	s.nulls = r.Bools()
	if s.offsets = r.uintVector(); r.err != nil {
		return nil
	}
	if s.offsets.Len() != s.n || len(s.frames) != (s.n+forBlockSize-1)/forBlockSize || (s.nulls != nil && len(s.nulls) != s.n) {
		r.Fail("frame-of-reference blocks do not match its rows")
		return nil
	}
	s.initBlockStats(blockMaxima(s.offsets.DecodeAll(make([]uint64, 0, s.n))))
	return s
}

// decimal reads what AppendSegment wrote of a DecimalSegment. An exponent past
// 18, a correction width past maxCorrection, a block whose integers decode
// outside [-2^53, 2^53], or integers that are not ordered fail the read: a
// value decodes exactly, and a scan finds it, only inside all four. So do
// patch offsets that do not ascend strictly, lie past the rows or on a NULL row.
func (r *Reader) decimal(tag byte) *DecimalSegment {
	exp, bits := r.Byte(), byte(0)
	if tag == segDecimalCorrected {
		bits = r.Byte()
	}
	ints := r.frameOfReference()
	if r.err != nil {
		return nil
	}
	bad := int(exp) >= len(pow10) || bits > maxCorrection
	least, most := int64(-maxDecimal)<<bits, int64(maxDecimal)<<bits|(1<<bits-1) // the integers of ±2^53
	for b, frame := range ints.frames {
		top := ints.blockMax[b]
		bad = bad || ints.blockNonNull[b] > 0 && (frame < least || frame > most || top > uint64(most-least) || frame+int64(top) > most)
	}
	if lo, hi := ints.bounds(); bad || !ordered(exp, bits, lo, hi) {
		r.Fail("decimal exponent past 18, correction width past 4, integers past 2^53 or out of order")
		return nil
	}
	s := &DecimalSegment{ints: ints, exp: exp, bits: bits}
	if tag == segDecimal {
		return s
	}
	n := r.length("patches")
	for i := 0; i < n && r.err == nil; i++ {
		row := r.Uvarint()
		if row >= uint64(ints.n) || (i > 0 && row <= uint64(s.patches.rows[i-1])) || ints.IsNullAt(types.ChunkOffset(row)) {
			r.Fail("patch offsets do not ascend within the non-NULL rows")
			return nil
		}
		s.patches.rows = append(s.patches.rows, types.ChunkOffset(row))
	}
	if s.patches.vals = r.float64s(); r.err == nil && len(s.patches.vals) != n {
		r.Fail("patch values do not match their offsets")
	}
	if r.err != nil {
		return nil
	}
	return s
}

func (r *Reader) runLengthMeta() (int, []types.ChunkOffset, []bool) {
	n := int(r.Uvarint())
	nRuns := r.length("run ends")
	if r.err != nil {
		return 0, nil, nil
	}
	ends := make([]types.ChunkOffset, 0, nRuns)
	for i := 0; i < nRuns; i++ {
		ends = append(ends, types.ChunkOffset(r.Uvarint()))
	}
	return n, ends, r.Bools()
}

// restoreRunLength fails the read of runs whose last rows do not ascend to the
// segment's last, or that do not match their values and NULL flags.
func restoreRunLength[T types.Ordered](r *Reader, s *RunLengthSegment[T]) *RunLengthSegment[T] {
	ok := len(s.values) == len(s.ends) && (s.nulls == nil || len(s.nulls) == len(s.ends)) && (len(s.ends) > 0) == (s.n > 0)
	for i, e := range s.ends {
		ok = ok && int(e) < s.n && (i == 0 || e > s.ends[i-1]) && (i < len(s.ends)-1 || int(e) == s.n-1)
	}
	if !ok {
		r.Fail("run ends do not match the rows, values or NULL flags")
	}
	return s
}

// valueSegmentFromParts rebuilds a value segment preserving nullability: a
// nullable column written without NULL flags stays nullable, without them;
// Table.AppendChunk drops the all-false flags a restored tail is written with.
func valueSegmentFromParts[T types.Ordered](r *Reader, values []T, nulls []bool, nullable bool) *storage.ValueSegment[T] {
	if nulls != nil && len(nulls) != len(values) {
		r.Fail("null bitmap length does not match value count")
		return nil
	}
	if nullable && nulls == nil {
		// Written without flags: a sealed column that holds no NULL (Clipped).
		return storage.ValueSegmentFromSlice(values, make([]bool, len(values))).Clipped()
	}
	if !nullable {
		nulls = nil
	}
	return storage.ValueSegmentFromSlice(values, nulls)
}

// stringSegment reads a string value segment's entries into one blob and its
// offsets in one pass, with valueSegmentFromParts's rule for the flags.
func (r *Reader) stringSegment(nulls []bool, nullable bool) *storage.StringSegment {
	n := r.length("string slice")
	if r.err != nil {
		return nil
	}
	if !nullable {
		nulls = nil
	}
	s, rest, err := storage.ReadStringEntries(r.buf, n, nulls, nullable)
	if err != nil {
		r.Fail(err.Error())
		return nil
	}
	r.buf = rest
	return s
}

// restoreDictionary completes a dictionary segment whose values s holds with the
// attribute vector that follows them. Values that do not ascend strictly, or a
// code above the NULL id, fail the read here: they would otherwise decode fine
// and break the segment's first read.
func restoreDictionary[T types.Ordered](r *Reader, s *DictionarySegment[T]) *DictionarySegment[T] {
	s.nullID = ValueID(max(len(s.dict), s.strs.n()))
	if s.av = r.uintVector(); r.err != nil {
		return nil
	}
	strs, buf := s.strs.flat()
	defer putEnds(buf)
	for id := uint64(1); id < uint64(s.nullID); id++ {
		if (s.dict != nil && compareTotal(s.dict[id-1], s.dict[id]) >= 0) || (s.dict == nil && strs.at(id-1) >= strs.at(id)) {
			r.Fail("dictionary values do not ascend")
			return nil
		}
	}
	if len(s.av.matchOutside(0, uint64(s.nullID), uint64(s.nullID), nil)) > 0 { // the codes above the NULL id
		r.Fail("dictionary code exceeds the NULL id")
		return nil
	}
	return s
}
