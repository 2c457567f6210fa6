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
	segDictStringFSST // a string dictionary packed with its symbol table (fsst.go)
	segDecimal        // a decimal column's exponent, then its integers as segFrameOfReference's body
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
// dictionary's layout: one pass sizes the blob, a second fills it, so the
// values cost one allocation, not one each.
func (r *Reader) packedStrings() packedStrings {
	n := r.length("string slice")
	values, ends, total := *r, make([]uint32, 0, n), 0 // values: where the second pass starts
	for i := 0; i < n && r.err == nil; i++ {
		if total += len(r.Prefixed()); total > math.MaxUint32 {
			r.Fail("string dictionary exceeds 4 GiB")
		}
		ends = append(ends, uint32(total))
	}
	if r.err != nil {
		return packedStrings{}
	}
	var blob strings.Builder
	blob.Grow(total)
	for range n {
		blob.Write(values.Prefixed())
	}
	return packedStrings{blob: blob.String(), ends: ends}
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
	var from uint32
	for _, to := range p.ends {
		for i := from; i < to; i++ {
			if c := p.blob[i]; c == fsstEscape && i+1 < to {
				i++
			} else if int(c) >= t.n {
				r.Fail("FSST code past the table or escape at the end of a value")
				return packedStrings{}
			}
		}
		from = to
	}
	return p
}

// --- UintVector ---------------------------------------------------------

func appendUintVector(dst []byte, v UintVector) ([]byte, error) {
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
	default:
		return nil, fmt.Errorf("encoding: cannot serialize uint vector of type %T", v)
	}
	return dst, nil
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

// fixedWidth reads the little-endian codes of a FixedWidthVector[W].
func fixedWidth[W uint8 | uint16 | uint32 | uint64](r *Reader) UintVector {
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
	return &FixedWidthVector[W]{data: data}
}

func (r *Reader) uintVector() UintVector {
	tag := r.Byte()
	if r.err != nil {
		return nil
	}
	switch tag {
	case vecFixed8:
		return fixedWidth[uint8](r)
	case vecFixed16:
		return fixedWidth[uint16](r)
	case vecFixed32:
		return fixedWidth[uint32](r)
	case vecFixed64:
		return fixedWidth[uint64](r)
	case vecBP128:
		v := &BP128Vector{n: int(r.Uvarint())}
		nWords := r.length("bp128 words")
		if r.err != nil || nWords*8 > len(r.buf) {
			r.Fail("bp128 words exceed input")
			return nil
		}
		v.words = make([]uint64, nWords)
		for i := range v.words {
			v.words[i] = binary.LittleEndian.Uint64(r.buf[i*8:])
		}
		r.buf = r.buf[nWords*8:]
		nBits := r.length("bp128 block bits")
		if r.err != nil || nBits > len(r.buf) {
			r.Fail("bp128 block bits exceed input")
			return nil
		}
		v.blockBits = make([]uint8, nBits)
		copy(v.blockBits, r.buf[:nBits])
		r.buf = r.buf[nBits:]
		nStarts := r.length("bp128 block starts")
		if r.err != nil || nStarts*4 > len(r.buf) {
			r.Fail("bp128 block starts exceed input")
			return nil
		}
		v.blockStart = make([]uint32, nStarts)
		for i := range v.blockStart {
			v.blockStart[i] = binary.LittleEndian.Uint32(r.buf[i*4:])
		}
		r.buf = r.buf[nStarts*4:]
		if !v.wellFormed() {
			r.Fail("bp128 blocks do not match the vector")
			return nil
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
	case *storage.ValueSegment[string]:
		dst = append(dst, segValueString)
		dst = appendValueSegmentMeta(dst, s.Nullable(), s.Nulls())
		return appendStrings(dst, s.Values()), nil
	case *DictionarySegment[int64]:
		dst = append(dst, segDictInt64)
		dst = appendInt64s(dst, s.dict)
		return appendUintVector(dst, s.av)
	case *DictionarySegment[float64]:
		dst = append(dst, segDictFloat64)
		dst = appendFloat64s(dst, s.dict)
		return appendUintVector(dst, s.av)
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
		return appendUintVector(dst, s.av)
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
		return appendFrameOfReference(append(dst, segFrameOfReference), s)
	case *DecimalSegment:
		return appendFrameOfReference(append(dst, segDecimal, s.exp), s.ints)
	default:
		return nil, fmt.Errorf("encoding: cannot serialize segment of type %T", seg)
	}
}

func appendFrameOfReference(dst []byte, s *FrameOfReferenceSegment) ([]byte, error) {
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
		seg = valueSegmentFromParts(r, r.strings_(), nulls, nullable)
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
		seg = &RunLengthSegment[int64]{n: n, ends: ends, nulls: nulls, values: r.int64s()}
	case segRunLengthFloat64:
		n, ends, nulls := r.runLengthMeta()
		seg = &RunLengthSegment[float64]{n: n, ends: ends, nulls: nulls, values: r.float64s()}
	case segRunLengthString:
		n, ends, nulls := r.runLengthMeta()
		seg = &RunLengthSegment[string]{n: n, ends: ends, nulls: nulls, values: r.strings_()}
	case segFrameOfReference:
		seg = r.frameOfReference()
	case segDecimal:
		seg = r.decimal()
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
	s.initBlockStats(s.offsets.DecodeAll(make([]uint64, 0, s.n)))
	return s
}

// decimal reads what AppendSegment wrote of a DecimalSegment. An exponent past
// 18, or a block whose integers leave [-2^53, 2^53], fails the read: a value
// decodes exactly only inside both.
func (r *Reader) decimal() *DecimalSegment {
	exp := r.Byte()
	ints := r.frameOfReference()
	if r.err != nil {
		return nil
	}
	bad := int(exp) >= len(pow10)
	for b, frame := range ints.frames {
		top := ints.blockMax[b]
		bad = bad || ints.blockNonNull[b] > 0 && (frame < -maxDecimal || frame > maxDecimal || top > 2*maxDecimal || frame+int64(top) > maxDecimal)
	}
	if bad {
		r.Fail("decimal exponent past 18 or integers past 2^53")
		return nil
	}
	return &DecimalSegment{ints: ints, exp: exp}
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

// valueSegmentFromParts rebuilds a value segment preserving nullability: a
// nullable column with no NULLs yet must stay appendable with NULLs, so it
// gets a zeroed (non-nil) null bitmap.
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

// restoreDictionary completes a dictionary segment whose values s holds with the
// attribute vector that follows them. Values that do not ascend strictly, or a
// code above the NULL id, fail the read here: they would otherwise decode fine
// and break the segment's first read.
func restoreDictionary[T types.Ordered](r *Reader, s *DictionarySegment[T]) *DictionarySegment[T] {
	s.nullID = ValueID(max(len(s.dict), len(s.strs.ends)))
	if s.av = r.uintVector(); r.err != nil {
		return nil
	}
	strs := s.strs.unpacked()
	for id := uint64(1); id < uint64(s.nullID); id++ {
		if (s.dict != nil && compareTotal(s.dict[id-1], s.dict[id]) >= 0) || (s.dict == nil && strs.raw(id-1) >= strs.raw(id)) {
			r.Fail("dictionary values do not ascend")
			return nil
		}
	}
	if len(s.matchesOutside(0, s.nullID, nil)) > 0 { // the codes above the NULL id
		r.Fail("dictionary code exceeds the NULL id")
		return nil
	}
	return s
}
