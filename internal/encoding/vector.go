// Package encoding implements Hyrise's segment encoding framework
// (paper §2.3). Logical schemes (order-preserving dictionary, run-length,
// frame-of-reference) map input data to small integer codes; physical
// schemes (fixed-size byte alignment and a 128-value block bit-packer
// modeled on SIMD-BP128) compress those integer codes further. Logical and
// physical schemes compose freely: a code vector (UintVector) owns every scan
// and count over its codes, written once per layout, so a logical scheme
// matches and counts codes without knowing how they are stored. Only the
// format and the gathers name the layouts.
//
// Access paths: every encoded segment implements storage.Segment (the
// dynamic, virtual-call-per-value path) and additionally exposes typed
// accessors whose Get methods devirtualize when instantiated through Go
// generics (the static path — the Go analog of the paper's CRTP-based
// iterables). Figure 3b measures exactly this difference.
package encoding

import (
	"encoding/binary"
	"math/bits"
	"unsafe"

	"hyrise/internal/types"
)

// VectorCompressionType selects the physical encoding of an unsigned
// integer vector (attribute vectors, offset vectors).
type VectorCompressionType uint8

const (
	// FixedSizeByteAligned stores each code in the smallest byte-aligned
	// integer (1, 2, 4, or 8 bytes) that fits the largest code.
	FixedSizeByteAligned VectorCompressionType = iota
	// BitPacked128 packs codes in blocks of 128 values with a per-block bit
	// width (the scalar equivalent of SIMD-BP128, cf. DESIGN.md S2).
	BitPacked128
)

// String names the compression scheme like the paper does.
func (v VectorCompressionType) String() string {
	switch v {
	case FixedSizeByteAligned:
		return "FSBA"
	case BitPacked128:
		return "SIMD-BP128"
	default:
		return "?"
	}
}

// compressionOf names the layout of v.
func compressionOf(v UintVector) VectorCompressionType {
	if _, ok := v.(*BP128Vector); ok {
		return BitPacked128
	}
	return FixedSizeByteAligned
}

// UintVector is a compressed vector of unsigned integer codes. Get is the
// dynamic access path; the scans and counts over codes are its own kernels,
// which also keep its implementations to the two layouts below.
type UintVector interface {
	Get(i int) uint64
	Len() int
	MemoryUsage() int64
	// DecodeAll appends all codes to dst and returns it (full
	// materialization path of Figure 3a).
	DecodeAll(dst []uint64) []uint64

	// match appends the positions p in [first, last) whose code c lies in
	// [lo, lo+span] — one unsigned compare, c-lo <= span, so the interval
	// wraps past 2^64-1 to 0 — and that are not NULL (nulls may be nil).
	match(first, last int, lo, span uint64, nulls []bool, dst []types.ChunkOffset) []types.ChunkOffset
	// matchOutside appends the positions whose code c lies outside
	// [lo, lo+n) — c-lo >= n — and is not except.
	matchOutside(lo, n, except uint64, dst []types.ChunkOffset) []types.ChunkOffset
	// count adds one to counts[c] for each code c.
	count(counts []int)
}

// CompressUints encodes the codes with the chosen scheme.
func CompressUints(codes []uint64, t VectorCompressionType) UintVector {
	return packCodes(codes, t, nil)
}

// packCodes is CompressUints given the largest code of each 128-code block
// where the size model has them (nil: read off the codes).
func packCodes(codes []uint64, t VectorCompressionType, maxes []uint64) UintVector {
	switch {
	case t != BitPacked128:
		return NewFixedWidthVector(codes)
	case maxes == nil:
		maxes = blockMaxima(codes)
	}
	return newBP128Vector(codes, maxes)
}

// --- Fixed-size byte-aligned vectors -----------------------------------

// FixedWidthVector stores codes in W-sized slots. W is one of uint8,
// uint16, uint32, uint64; the constructor picks the smallest fitting width.
type FixedWidthVector[W uint8 | uint16 | uint32 | uint64] struct {
	data []W
}

// NewFixedWidthVector picks the smallest byte-aligned width that fits the
// largest code and packs the codes.
func NewFixedWidthVector(codes []uint64) UintVector {
	var maxCode uint64
	for _, c := range codes {
		if c > maxCode {
			maxCode = c
		}
	}
	switch codeWidth(maxCode) {
	case 1:
		return newFixedWidth[uint8](codes)
	case 2:
		return newFixedWidth[uint16](codes)
	case 4:
		return newFixedWidth[uint32](codes)
	default:
		return newFixedWidth[uint64](codes)
	}
}

// codeWidth is the smallest byte-aligned slot that holds codes up to maxCode:
// the one rule the vectors are built by and the size model predicts them by.
func codeWidth(maxCode uint64) int64 {
	switch {
	case maxCode <= 0xFF:
		return 1
	case maxCode <= 0xFFFF:
		return 2
	case maxCode <= 0xFFFFFFFF:
		return 4
	}
	return 8
}

func newFixedWidth[W uint8 | uint16 | uint32 | uint64](codes []uint64) *FixedWidthVector[W] {
	data := make([]W, len(codes))
	for i, c := range codes {
		data[i] = W(c)
	}
	return &FixedWidthVector[W]{data: data}
}

// Get implements UintVector.
func (v *FixedWidthVector[W]) Get(i int) uint64 { return uint64(v.data[i]) }

// Len implements UintVector.
func (v *FixedWidthVector[W]) Len() int { return len(v.data) }

// MemoryUsage implements UintVector.
func (v *FixedWidthVector[W]) MemoryUsage() int64 {
	var z W
	return int64(cap(v.data)) * int64(unsafe.Sizeof(z))
}

// DecodeAll implements UintVector.
func (v *FixedWidthVector[W]) DecodeAll(dst []uint64) []uint64 {
	for _, c := range v.data {
		dst = append(dst, uint64(c))
	}
	return dst
}

// match implements UintVector. A single code of a byte-wide vector without
// NULLs takes the SWAR path (matchEqBytes).
func (v *FixedWidthVector[W]) match(first, last int, lo, span uint64, nulls []bool, dst []types.ChunkOffset) []types.ChunkOffset {
	data := v.data[first:last]
	if bytes, ok := any(data).([]uint8); ok && span == 0 && lo <= 0xFF && nulls == nil {
		return matchEqBytes(bytes, first, uint8(lo), dst)
	}
	if nulls == nil {
		for i, c := range data {
			if uint64(c)-lo <= span {
				dst = append(dst, types.ChunkOffset(first+i))
			}
		}
		return dst
	}
	nulls = nulls[first:last]
	for i, c := range data {
		if uint64(c)-lo <= span && !nulls[i] {
			dst = append(dst, types.ChunkOffset(first+i))
		}
	}
	return dst
}

// matchOutside implements UintVector.
func (v *FixedWidthVector[W]) matchOutside(lo, n, except uint64, dst []types.ChunkOffset) []types.ChunkOffset {
	for i, c := range v.data {
		if uint64(c)-lo >= n && uint64(c) != except {
			dst = append(dst, types.ChunkOffset(i))
		}
	}
	return dst
}

// count implements UintVector.
func (v *FixedWidthVector[W]) count(counts []int) {
	for _, c := range v.data {
		counts[c]++
	}
}

const (
	swarOnes  = 0x0101010101010101
	swarHighs = 0x8080808080808080
)

// matchEqBytes appends the positions first+i of the codes equal to target,
// eight codes per step: XOR against the broadcast target turns matches into
// zero bytes, and the Mycroft zero-byte test skips clean words with three ALU
// ops — the scalar analog of the SIMD scans the paper benchmarks. Single-value
// id ranges (equality probes, IS NULL) hit this.
func matchEqBytes(data []uint8, first int, target uint8, dst []types.ChunkOffset) []types.ChunkOffset {
	pattern := swarOnes * uint64(target)
	i := 0
	for ; i+8 <= len(data); i += 8 {
		w := binary.LittleEndian.Uint64(data[i:])
		v := w ^ pattern
		if (v-swarOnes) & ^v & swarHighs == 0 {
			continue // no byte of this word matches
		}
		for j := i; j < i+8; j++ {
			if data[j] == target {
				dst = append(dst, types.ChunkOffset(first+j))
			}
		}
	}
	for ; i < len(data); i++ {
		if data[i] == target {
			dst = append(dst, types.ChunkOffset(first+i))
		}
	}
	return dst
}

// --- BP128: blocks of 128 values, per-block bit width -------------------

// bp128BlockSize is the number of codes per block (matches SIMD-BP128).
const bp128BlockSize = 128

// BP128Vector packs codes in blocks of 128 values. Each block stores its
// codes with the minimal bit width needed for that block, so locally small
// codes compress well even if the global maximum is large. Random access
// costs one bit-extraction; scans, gathers and DecodeAll unpack 64 codes at a
// time (unpack64).
type BP128Vector struct {
	words      []uint64 // packed payload
	blockBits  []uint8  // bit width per block
	blockStart []uint32 // starting word of each block
	n          int
}

// NewBP128Vector packs the codes; their block widths size the words first, so
// the vector holds exactly what MemoryUsage charges.
func NewBP128Vector(codes []uint64) *BP128Vector { return newBP128Vector(codes, blockMaxima(codes)) }

// newBP128Vector packs the codes whose 128-code blocks have the given largest codes.
func newBP128Vector(codes, maxes []uint64) *BP128Vector {
	v := &BP128Vector{
		blockBits:  make([]uint8, len(maxes)),
		blockStart: make([]uint32, len(maxes)),
		n:          len(codes),
	}
	words := 0
	for b, m := range maxes {
		v.blockBits[b] = uint8(max(1, bits.Len64(m))) // one bit per value at least
		v.blockStart[b] = uint32(words)
		words += bp128Words(int(v.blockBits[b]), min(bp128BlockSize, len(codes)-b*bp128BlockSize))
	}
	v.words = make([]uint64, words)
	for b, width := range v.blockBits {
		// Codes fill a word from its low bits up; the one that fills it
		// carries its remaining bits into the next (shifting right by 1 and
		// then by 63-used leaves none when it ends the word).
		out, w := v.words[v.blockStart[b]:], uint(width)
		var acc uint64
		var used uint
		for _, c := range codes[b*bp128BlockSize : min((b+1)*bp128BlockSize, len(codes))] {
			if acc |= c << used; used+w < 64 {
				used += w
				continue
			}
			out[0], out = acc, out[1:]
			acc, used = c>>1>>(63-used), used+w-64
		}
		if used > 0 {
			out[0] = acc
		}
	}
	return v
}

// bp128Words is how many words a block of rows codes of the given width packs into.
func bp128Words(width, rows int) int { return (width*rows + 63) / 64 }

// blockMaxima is the largest code of each 128-code block.
func blockMaxima(codes []uint64) []uint64 {
	maxes := make([]uint64, (len(codes)+bp128BlockSize-1)/bp128BlockSize)
	for b := range maxes {
		var m uint64
		for _, c := range codes[b*bp128BlockSize : min((b+1)*bp128BlockSize, len(codes))] {
			m = max(m, c)
		}
		maxes[b] = m
	}
	return maxes
}

// codeBytes is the size model of a code vector: the bytes of n codes whose
// 128-code blocks have the given largest codes (all 0 when maxes is nil) under
// the vector that needs fewer — BP128 when its block widths save more than
// its per-block width and start cost, else FSBA.
func codeBytes(n int, maxes []uint64) (int64, VectorCompressionType) {
	var top uint64
	blocks := (n + bp128BlockSize - 1) / bp128BlockSize
	bp128 := int64(blocks) * 5 // a width byte and a 4-byte start per block
	for b := range blocks {
		var m uint64
		if maxes != nil {
			m = maxes[b]
		}
		top = max(top, m)
		bp128 += 8 * int64(bp128Words(max(1, bits.Len64(m)), min(bp128BlockSize, n-b*bp128BlockSize)))
	}
	if fsba := int64(n) * codeWidth(top); fsba <= bp128 {
		return fsba, FixedSizeByteAligned
	}
	return bp128, BitPacked128
}

// Get implements UintVector (random positional access).
func (v *BP128Vector) Get(i int) uint64 { return v.GetFast(i) }

// GetFast is the statically dispatched accessor used by generic code. The
// code starts in word bit/64 and ends in word (bit+w-1)/64, the same one or
// the next; shifting the second left by 1 and then by 63-bit%64 is 0 when the
// code starts a word, so no branch depends on where it lies.
func (v *BP128Vector) GetFast(i int) uint64 {
	b := i / bp128BlockSize
	w := uint(v.blockBits[b])
	bit := uint(v.blockStart[b])*64 + uint(i%bp128BlockSize)*w
	s := bit % 64
	return (v.words[bit/64]>>s | v.words[(bit+w-1)/64]<<1<<(63-s)) & mask(w)
}

// mask has the low width bits set, 0 ≤ width ≤ 64.
func mask(width uint) uint64 { return ^uint64(0) >> (64 - width) }

// Len implements UintVector.
func (v *BP128Vector) Len() int { return v.n }

// MemoryUsage implements UintVector.
func (v *BP128Vector) MemoryUsage() int64 {
	return int64(cap(v.words))*8 + int64(cap(v.blockBits)) + int64(cap(v.blockStart))*4
}

// littleEndian: a word's low byte comes first in memory, so a code of a
// packed block can be read from the eight bytes its first bit lies in.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// unpack64 unpacks the 64 codes of width w that fill in[:w] exactly — a full
// block is two such halves, word-aligned — into out, without a branch per
// code. A code up to 57 bits wide is read from the eight bytes from its first
// bit's byte on — one load, one shift, one mask — where a word follows in[:w]
// for the last code's bytes. Else a code starts in word bit/64 and ends in
// word (bit+w-1)/64, the same one or the next, and shifting the second left
// by 1 and then by 63-bit%64 is 0 when the code starts a word.
func unpack64(in []uint64, w uint, out *[64]uint64) {
	m := mask(w)
	if littleEndian && w <= 57 && len(in) > int(w) {
		bytes := unsafe.Pointer(unsafe.SliceData(in))
		at := func(bit uint) uint64 { return *(*uint64)(unsafe.Add(bytes, bit/8)) >> (bit % 8) & m }
		for i, bit := 0, uint(0); i < len(out); i, bit = i+4, bit+4*w {
			o := (*[4]uint64)(out[i:])
			o[0], o[1], o[2], o[3] = at(bit), at(bit+w), at(bit+2*w), at(bit+3*w)
		}
		return
	}
	words := in[:w]
	for i, bit := 0, uint(0); i < len(out); i, bit = i+1, bit+w {
		s := bit % 64
		out[i] = (words[bit/64]>>s | words[(bit+w-1)/64]<<1<<(63-s)) & m
	}
}

// group unpacks the codes of 64-code group g (positions 64g up to 64g+64)
// into buf and returns them: a full group, whose codes fill as many words as
// they are bits wide, through unpack64, the short last one code by code.
func (v *BP128Vector) group(g int, buf *[64]uint64) []uint64 {
	if rows := v.n - g*64; rows < 64 {
		for i := range rows {
			buf[i] = v.GetFast(g*64 + i)
		}
		return buf[:rows]
	}
	w := uint(v.blockBits[g/2])
	unpack64(v.words[int(v.blockStart[g/2])+g%2*int(w):], w, buf)
	return buf[:]
}

// DecodeAll implements UintVector, 64 codes at a time.
func (v *BP128Vector) DecodeAll(dst []uint64) []uint64 {
	var buf [64]uint64
	for g := 0; g*64 < v.n; g++ {
		dst = append(dst, v.group(g, &buf)...)
	}
	return dst
}

// match implements UintVector, comparing each 64 codes as they are unpacked.
func (v *BP128Vector) match(first, last int, lo, span uint64, nulls []bool, dst []types.ChunkOffset) []types.ChunkOffset {
	var buf [64]uint64
	for g := first / 64; g*64 < last; g++ {
		from := max(first-g*64, 0)
		base := types.ChunkOffset(g*64 + from)
		codes := v.group(g, &buf)
		for j, c := range codes[from:min(last-g*64, len(codes))] {
			if c-lo <= span && (nulls == nil || !nulls[base+types.ChunkOffset(j)]) {
				dst = append(dst, base+types.ChunkOffset(j))
			}
		}
	}
	return dst
}

// matchOutside implements UintVector, 64 codes at a time.
func (v *BP128Vector) matchOutside(lo, n, except uint64, dst []types.ChunkOffset) []types.ChunkOffset {
	var buf [64]uint64
	for g := 0; g*64 < v.n; g++ {
		for j, c := range v.group(g, &buf) {
			if c-lo >= n && c != except {
				dst = append(dst, types.ChunkOffset(g*64+j))
			}
		}
	}
	return dst
}

// count implements UintVector, 64 codes at a time.
func (v *BP128Vector) count(counts []int) {
	var buf [64]uint64
	for g := 0; g*64 < v.n; g++ {
		for _, c := range v.group(g, &buf) {
			counts[c]++
		}
	}
}

// gatherRows is how many rows a gather reads at a time (codeRuns).
const gatherRows = 2048

// gatherSpacing: a gather unpacks whole 64-code groups where it reads at
// least one row in this many, else code by code (GetFast). Unpacking costs
// about a quarter of a GetFast per code, so the two break even near one in
// four rows, at 6 and at 15 bits alike.
const gatherSpacing = 4

// codeRuns reads the codes of a gather at pos, run by run: a run is the
// positions from the next one on that lie within gatherRows rows of the
// 64-code group it falls in. next reads the codes a run needs into codes —
// unpacking each group of those rows once when the run holds at least one
// position in gatherSpacing of them (dense ascending rows, as a scan's output
// is), else code by code.
type codeRuns struct {
	v     *BP128Vector
	pos   []types.ChunkOffset
	to    int                // where the next run starts
	codes [gatherRows]uint64 // the codes of rows first on
}

// runs returns the runs of a gather at pos.
func (v *BP128Vector) runs(pos []types.ChunkOffset) codeRuns {
	return codeRuns{v: v, pos: pos}
}

// next reads the next run: it returns the index in pos of its first position,
// its positions, and the row codes[0] holds; ok is false after the last.
func (r *codeRuns) next() (from int, run []types.ChunkOffset, first int, ok bool) {
	if from = r.to; from == len(r.pos) {
		return from, nil, 0, false
	}
	first, to := int(r.pos[from])/64*64, from+1
	for to < len(r.pos) && uint(int(r.pos[to])-first) < gatherRows {
		to++
	}
	run, r.to = r.pos[from:to], to
	if rows := min(gatherRows, r.v.n-first); gatherSpacing*len(run) < rows {
		for _, p := range run {
			r.codes[int(p)-first] = r.v.GetFast(int(p))
		}
	} else {
		for g := first / 64; g*64 < first+rows; g++ {
			r.v.group(g, (*[64]uint64)(r.codes[g*64-first:]))
		}
	}
	return from, run, first, true
}
