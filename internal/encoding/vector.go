// Package encoding implements Hyrise's segment encoding framework
// (paper §2.3). Logical schemes (order-preserving dictionary, run-length,
// frame-of-reference) map input data to small integer codes; physical
// schemes (fixed-size byte alignment and a 128-value block bit-packer
// modeled on SIMD-BP128) compress those integer codes further. Logical and
// physical schemes compose freely.
//
// Access paths: every encoded segment implements storage.Segment (the
// dynamic, virtual-call-per-value path) and additionally exposes typed
// accessors whose Get methods devirtualize when instantiated through Go
// generics (the static path — the Go analog of the paper's CRTP-based
// iterables). Figure 3b measures exactly this difference.
package encoding

import (
	"math/bits"
	"unsafe"
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

// UintVector is a compressed vector of unsigned integer codes. Get is the
// dynamic access path; the concrete types below additionally provide
// monomorphic access for generic callers.
type UintVector interface {
	Get(i int) uint64
	Len() int
	MemoryUsage() int64
	// DecodeAll appends all codes to dst and returns it (full
	// materialization path of Figure 3a).
	DecodeAll(dst []uint64) []uint64
}

// CompressUints encodes the codes with the chosen scheme.
func CompressUints(codes []uint64, t VectorCompressionType) UintVector {
	switch t {
	case BitPacked128:
		return NewBP128Vector(codes)
	default:
		return NewFixedWidthVector(codes)
	}
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

// --- BP128: blocks of 128 values, per-block bit width -------------------

// bp128BlockSize is the number of codes per block (matches SIMD-BP128).
const bp128BlockSize = 128

// BP128Vector packs codes in blocks of 128 values. Each block stores its
// codes with the minimal bit width needed for that block, so locally small
// codes compress well even if the global maximum is large. Random access
// costs one bit-extraction; DecodeAll unpacks block-wise.
type BP128Vector struct {
	words      []uint64 // packed payload
	blockBits  []uint8  // bit width per block
	blockStart []uint32 // starting word of each block
	n          int
}

// NewBP128Vector packs the codes.
func NewBP128Vector(codes []uint64) *BP128Vector {
	nBlocks := (len(codes) + bp128BlockSize - 1) / bp128BlockSize
	v := &BP128Vector{
		blockBits:  make([]uint8, nBlocks),
		blockStart: make([]uint32, nBlocks),
		n:          len(codes),
	}
	for b := 0; b < nBlocks; b++ {
		lo := b * bp128BlockSize
		hi := min(lo+bp128BlockSize, len(codes))
		var maxCode uint64
		for _, c := range codes[lo:hi] {
			if c > maxCode {
				maxCode = c
			}
		}
		width := uint8(bits.Len64(maxCode))
		if width == 0 {
			width = 1 // avoid zero-width blocks; one bit per value
		}
		v.blockBits[b] = width
		v.blockStart[b] = uint32(len(v.words))
		// Pack the block.
		nWords := (int(width)*(hi-lo) + 63) / 64
		start := len(v.words)
		v.words = append(v.words, make([]uint64, nWords)...)
		bitPos := 0
		for _, c := range codes[lo:hi] {
			word := start + bitPos/64
			shift := uint(bitPos % 64)
			v.words[word] |= c << shift
			if rem := 64 - int(shift); rem < int(width) {
				v.words[word+1] |= c >> uint(rem)
			}
			bitPos += int(width)
		}
	}
	return v
}

// Get implements UintVector (random positional access).
func (v *BP128Vector) Get(i int) uint64 { return v.GetFast(i) }

// GetFast is the statically dispatched accessor used by generic code.
func (v *BP128Vector) GetFast(i int) uint64 {
	b := i / bp128BlockSize
	width := uint(v.blockBits[b])
	bitPos := uint(i%bp128BlockSize) * width
	word := int(v.blockStart[b]) + int(bitPos/64)
	shift := bitPos % 64
	val := v.words[word] >> shift
	if rem := 64 - shift; rem < width {
		val |= v.words[word+1] << rem
	}
	return val & mask(width)
}

func mask(width uint) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (1 << width) - 1
}

// Len implements UintVector.
func (v *BP128Vector) Len() int { return v.n }

// MemoryUsage implements UintVector.
func (v *BP128Vector) MemoryUsage() int64 {
	return int64(cap(v.words))*8 + int64(cap(v.blockBits)) + int64(cap(v.blockStart))*4
}

// DecodeRange appends the codes at positions [lo, hi) to dst, unpacking
// block-wise with the width and block bounds hoisted out of the inner loop.
// Scans use it to process one block at a time through a reusable buffer
// instead of paying the full GetFast dispatch per element.
func (v *BP128Vector) DecodeRange(lo, hi int, dst []uint64) []uint64 {
	if lo < 0 {
		lo = 0
	}
	if hi > v.n {
		hi = v.n
	}
	for i := lo; i < hi; {
		b := i / bp128BlockSize
		blockEnd := min((b+1)*bp128BlockSize, hi)
		width := uint(v.blockBits[b])
		m := mask(width)
		start := int(v.blockStart[b])
		bitPos := uint(i%bp128BlockSize) * width
		for ; i < blockEnd; i++ {
			word := start + int(bitPos/64)
			shift := bitPos % 64
			val := v.words[word] >> shift
			if rem := 64 - shift; rem < width {
				val |= v.words[word+1] << rem
			}
			dst = append(dst, val&m)
			bitPos += width
		}
	}
	return dst
}

// DecodeAll implements UintVector; unpacking proceeds block-wise with the
// width hoisted out of the inner loop.
func (v *BP128Vector) DecodeAll(dst []uint64) []uint64 {
	for b := 0; b < len(v.blockBits); b++ {
		lo := b * bp128BlockSize
		hi := min(lo+bp128BlockSize, v.n)
		width := uint(v.blockBits[b])
		m := mask(width)
		start := int(v.blockStart[b])
		bitPos := uint(0)
		for i := lo; i < hi; i++ {
			word := start + int(bitPos/64)
			shift := bitPos % 64
			val := v.words[word] >> shift
			if rem := 64 - shift; rem < width {
				val |= v.words[word+1] << rem
			}
			dst = append(dst, val&m)
			bitPos += width
		}
	}
	return dst
}
