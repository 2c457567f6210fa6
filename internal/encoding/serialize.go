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
// snapshot framings both checksum whole records/files.

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

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBools(dst []byte, b []bool) []byte {
	// Length-prefixed bitmap; a zero length round-trips to a nil slice.
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

// byteReader consumes the primitive encodings with explicit error state so
// segment decoding never panics on truncated or corrupt input.
type byteReader struct {
	buf []byte
	err error
}

func (r *byteReader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("encoding: corrupt segment: %s", msg)
	}
}

func (r *byteReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) == 0 {
		r.fail("unexpected end of input")
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

func (r *byteReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *byteReader) length(what string) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.buf))+1 { // +1: bitmap lengths count bits, not bytes
		// A cheap sanity bound; exact bounds are checked by the consumers.
		if v > uint64(len(r.buf))*8+8 {
			r.fail(what + " length exceeds input")
			return 0
		}
	}
	return int(v)
}

func (r *byteReader) string_() string { return string(r.bytes_()) }

// bytes_ reads a length-prefixed string without copying it out of the input.
func (r *byteReader) bytes_() []byte {
	n := r.length("string")
	if r.err != nil {
		return nil
	}
	if n > len(r.buf) {
		r.fail("string length exceeds input")
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *byteReader) bools() []bool {
	n := r.length("bitmap")
	if r.err != nil || n == 0 {
		return nil
	}
	nBytes := (n + 7) / 8
	if nBytes > len(r.buf) {
		r.fail("bitmap length exceeds input")
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

func (r *byteReader) int64s() []int64 {
	n := r.length("int64 slice")
	if r.err != nil {
		return nil
	}
	out := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		if r.err != nil {
			return nil
		}
		v, sz := binary.Varint(r.buf)
		if sz <= 0 {
			r.fail("bad varint")
			return nil
		}
		r.buf = r.buf[sz:]
		out = append(out, v)
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

func (r *byteReader) float64s() []float64 {
	n := r.length("float64 slice")
	if r.err != nil {
		return nil
	}
	if n*8 > len(r.buf) {
		r.fail("float64 slice exceeds input")
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
		dst = appendString(dst, v)
	}
	return dst
}

func (r *byteReader) strings_() []string {
	n := r.length("string slice")
	if r.err != nil {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if r.err != nil {
			return nil
		}
		out = append(out, r.string_())
	}
	return out
}

// packedStrings reads what appendStrings wrote straight into a string
// dictionary's layout: one pass sizes the blob, a second fills it, so the
// values cost one allocation, not one each.
func (r *byteReader) packedStrings() packedStrings {
	n := r.length("string slice")
	values, ends, total := *r, make([]uint32, 0, n), 0 // values: where the second pass starts
	for i := 0; i < n && r.err == nil; i++ {
		if total += len(r.bytes_()); total > math.MaxUint32 {
			r.fail("string dictionary exceeds 4 GiB")
		}
		ends = append(ends, uint32(total))
	}
	if r.err != nil {
		return packedStrings{}
	}
	var blob strings.Builder
	blob.Grow(total)
	for range n {
		blob.Write(values.bytes_())
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
func (r *byteReader) fsstPacked() packedStrings {
	t := &fsstTable{n: int(r.byte())}
	for c := 0; c < t.n && r.err == nil; c++ {
		n := int(r.byte())
		if n < 1 || n > 8 || n > len(r.buf) {
			r.fail("FSST symbol length outside 1-8 or past the input")
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
				r.fail("FSST code past the table or escape at the end of a value")
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
// wide and inside the words: what Get and DecodeRange index unchecked.
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
func fixedWidth[W uint8 | uint16 | uint32 | uint64](r *byteReader) UintVector {
	n, size := r.length("vector"), int(unsafe.Sizeof(W(0)))
	if r.err != nil || n*size > len(r.buf) {
		r.fail("vector exceeds input")
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

func (r *byteReader) uintVector() UintVector {
	tag := r.byte()
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
		v := &BP128Vector{n: int(r.uvarint())}
		nWords := r.length("bp128 words")
		if r.err != nil || nWords*8 > len(r.buf) {
			r.fail("bp128 words exceed input")
			return nil
		}
		v.words = make([]uint64, nWords)
		for i := range v.words {
			v.words[i] = binary.LittleEndian.Uint64(r.buf[i*8:])
		}
		r.buf = r.buf[nWords*8:]
		nBits := r.length("bp128 block bits")
		if r.err != nil || nBits > len(r.buf) {
			r.fail("bp128 block bits exceed input")
			return nil
		}
		v.blockBits = make([]uint8, nBits)
		copy(v.blockBits, r.buf[:nBits])
		r.buf = r.buf[nBits:]
		nStarts := r.length("bp128 block starts")
		if r.err != nil || nStarts*4 > len(r.buf) {
			r.fail("bp128 block starts exceed input")
			return nil
		}
		v.blockStart = make([]uint32, nStarts)
		for i := range v.blockStart {
			v.blockStart[i] = binary.LittleEndian.Uint32(r.buf[i*4:])
		}
		r.buf = r.buf[nStarts*4:]
		if !v.wellFormed() {
			r.fail("bp128 blocks do not match the vector")
			return nil
		}
		return v
	default:
		r.fail(fmt.Sprintf("unknown vector tag %d", tag))
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
			dst = appendString(dst, s.strs.raw(id))
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
		dst = append(dst, segFrameOfReference)
		dst = binary.AppendUvarint(dst, uint64(s.n))
		dst = appendInt64s(dst, s.frames)
		dst = appendBools(dst, s.nulls)
		return appendUintVector(dst, s.offsets)
	default:
		return nil, fmt.Errorf("encoding: cannot serialize segment of type %T", seg)
	}
}

func appendValueSegmentMeta(dst []byte, nullable bool, nulls []bool) []byte {
	if nullable {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return appendBools(dst, nulls)
}

func appendRunLengthMeta(dst []byte, n int, ends []types.ChunkOffset, nulls []bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, uint64(len(ends)))
	for _, e := range ends {
		dst = binary.AppendUvarint(dst, uint64(e))
	}
	return appendBools(dst, nulls)
}

// DecodeSegment rebuilds a segment from buf and returns it together with
// the remaining bytes. It never panics on corrupt input.
func DecodeSegment(buf []byte) (storage.Segment, []byte, error) {
	r := &byteReader{buf: buf}
	tag := r.byte()
	var seg storage.Segment
	switch tag {
	case segValueInt64:
		nullable, nulls := r.byte() == 1, r.bools()
		seg = valueSegmentFromParts(r, r.int64s(), nulls, nullable)
	case segValueFloat64:
		nullable, nulls := r.byte() == 1, r.bools()
		seg = valueSegmentFromParts(r, r.float64s(), nulls, nullable)
	case segValueString:
		nullable, nulls := r.byte() == 1, r.bools()
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
		s := &FrameOfReferenceSegment{n: int(r.uvarint())}
		s.frames = r.int64s()
		s.nulls = r.bools()
		s.offsets = r.uintVector()
		// The per-block scan statistics are derived state and are not
		// persisted; rebuild them from the decoded codes. Corrupt input can
		// disagree on lengths — initBlockStats indexes codes by row, so only
		// rebuild when the shape is consistent (the segment is rejected by
		// the caller's validation otherwise).
		wantBlocks := (s.n + forBlockSize - 1) / forBlockSize
		if r.err == nil && s.offsets != nil && s.offsets.Len() == s.n &&
			len(s.frames) == wantBlocks && (s.nulls == nil || len(s.nulls) == s.n) {
			s.initBlockStats(s.offsets.DecodeAll(make([]uint64, 0, s.n)))
		} else {
			s.blockMax = make([]uint64, len(s.frames))
			s.blockNonNull = make([]int32, len(s.frames))
		}
		seg = s
	default:
		r.fail(fmt.Sprintf("unknown segment tag %d", tag))
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	return seg, r.buf, nil
}

func (r *byteReader) runLengthMeta() (int, []types.ChunkOffset, []bool) {
	n := int(r.uvarint())
	nRuns := r.length("run ends")
	if r.err != nil {
		return 0, nil, nil
	}
	ends := make([]types.ChunkOffset, 0, nRuns)
	for i := 0; i < nRuns; i++ {
		ends = append(ends, types.ChunkOffset(r.uvarint()))
	}
	return n, ends, r.bools()
}

// valueSegmentFromParts rebuilds a value segment preserving nullability: a
// nullable column with no NULLs yet must stay appendable with NULLs, so it
// gets a zeroed (non-nil) null bitmap.
func valueSegmentFromParts[T types.Ordered](r *byteReader, values []T, nulls []bool, nullable bool) *storage.ValueSegment[T] {
	if nulls != nil && len(nulls) != len(values) {
		r.fail("null bitmap length does not match value count")
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
func restoreDictionary[T types.Ordered](r *byteReader, s *DictionarySegment[T]) *DictionarySegment[T] {
	s.nullID = ValueID(max(len(s.dict), len(s.strs.ends)))
	if s.av = r.uintVector(); r.err != nil {
		return nil
	}
	strs := s.strs.unpacked()
	for id := uint64(1); id < uint64(s.nullID); id++ {
		if (s.dict != nil && compareTotal(s.dict[id-1], s.dict[id]) >= 0) || (s.dict == nil && strs.raw(id-1) >= strs.raw(id)) {
			r.fail("dictionary values do not ascend")
			return nil
		}
	}
	if len(s.matchesOutside(0, s.nullID, nil)) > 0 { // the codes above the NULL id
		r.fail("dictionary code exceeds the NULL id")
		return nil
	}
	return s
}
