package encoding

import (
	"math"
	"slices"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// forBlockSize is the number of values that share one reference frame.
// Hyrise uses 2048-value blocks for frame-of-reference encoding.
const forBlockSize = 2048

// FrameOfReferenceSegment encodes int64 values as unsigned offsets from a
// per-block minimum (the "frame"). The offset vector is compressed with a
// physical scheme, so locally clustered values (timestamps, foreign keys)
// shrink dramatically. A float64 column of exact decimals is FOR over its
// integers (DecimalSegment).
type FrameOfReferenceSegment struct {
	frames  []int64 // per-block minimum
	offsets UintVector
	nulls   []bool // nil when no NULLs exist
	n       int

	// Derived per-block statistics for the encoded scan path: the largest
	// offset code in each block (frame+blockMax is the block's true maximum,
	// because the minimum non-null code is 0 by construction) and the number
	// of non-null rows (0 marks the all-null blocks whose frame is
	// meaningless). Recomputed on deserialization.
	blockMax     []uint64
	blockNonNull []int32
}

// EncodeFrameOfReference builds a FOR segment. nulls may be nil. NULL rows
// store offset 0 within their block; the null bitmap is authoritative.
func EncodeFrameOfReference(values []int64, nulls []bool, compression VectorCompressionType) *FrameOfReferenceSegment {
	return encodeFrameOfReference(values, nulls, compression, nil)
}

// encodeFrameOfReference is EncodeFrameOfReference given the largest offset of
// each 128-row block where the size model has them (offsetMaxima; nil: read
// off the offsets).
func encodeFrameOfReference(values []int64, nulls []bool, compression VectorCompressionType, maxes []uint64) *FrameOfReferenceSegment {
	s := &FrameOfReferenceSegment{n: len(values)}
	nBlocks := (len(values) + forBlockSize - 1) / forBlockSize
	s.frames = make([]int64, nBlocks)
	codes := make([]uint64, len(values))
	var anyNull bool
	for b := 0; b < nBlocks; b++ {
		lo := b * forBlockSize
		hi := min(lo+forBlockSize, len(values))
		frame := int64(0)
		frameSet := false
		for i := lo; i < hi; i++ {
			if nulls != nil && nulls[i] {
				anyNull = true
				continue
			}
			if !frameSet || values[i] < frame {
				frame = values[i]
				frameSet = true
			}
		}
		s.frames[b] = frame
		for i := lo; i < hi; i++ {
			if nulls != nil && nulls[i] {
				codes[i] = 0
				continue
			}
			codes[i] = uint64(values[i] - frame)
		}
	}
	if anyNull {
		s.nulls = make([]bool, len(values))
		copy(s.nulls, nulls)
	}
	if maxes == nil {
		maxes = blockMaxima(codes)
	}
	s.offsets = packCodes(codes, compression, maxes)
	s.initBlockStats(maxes)
	return s
}

// initBlockStats derives each block's largest offset from the largest offsets
// of its 128-row blocks, maxes, and counts its non-null rows. NULL rows store
// code 0, which can never exceed a block's true maximum (codes are unsigned
// and the minimum non-null code is 0), so the plain maximum over all codes
// equals the maximum over non-null codes whenever the block has any.
func (s *FrameOfReferenceSegment) initBlockStats(maxes []uint64) {
	const per = forBlockSize / bp128BlockSize
	s.blockMax, s.blockNonNull = make([]uint64, len(s.frames)), make([]int32, len(s.frames))
	for b := range s.frames {
		s.blockMax[b] = slices.Max(maxes[b*per : min((b+1)*per, len(maxes))])
		first, last := b*forBlockSize, min((b+1)*forBlockSize, s.n)
		s.blockNonNull[b] = int32(last - first)
		if s.nulls != nil {
			for _, null := range s.nulls[first:last] {
				if null {
					s.blockNonNull[b]--
				}
			}
		}
	}
}

// bounds returns the least and the largest stored non-NULL value, lo > hi
// without one.
func (s *FrameOfReferenceSegment) bounds() (lo, hi int64) {
	lo, hi = math.MaxInt64, math.MinInt64
	for b, frame := range s.frames {
		if s.blockNonNull[b] > 0 {
			lo, hi = min(lo, frame), max(hi, frame+int64(s.blockMax[b]))
		}
	}
	return lo, hi
}

// Get returns the value and null flag at offset i.
func (s *FrameOfReferenceSegment) Get(i types.ChunkOffset) (int64, bool) {
	if s.nulls != nil && s.nulls[i] {
		return 0, true
	}
	return s.frames[int(i)/forBlockSize] + int64(s.offsets.Get(int(i))), false
}

// DecodeAll materializes all values and null flags.
func (s *FrameOfReferenceSegment) DecodeAll() ([]int64, []bool) {
	codes := s.offsets.DecodeAll(make([]uint64, 0, s.n))
	out := make([]int64, len(codes))
	for i, c := range codes {
		out[i] = s.frames[i/forBlockSize] + int64(c)
	}
	var nulls []bool
	if s.nulls != nil {
		nulls = make([]bool, s.n)
		copy(nulls, s.nulls)
		for i, null := range nulls {
			if null {
				out[i] = 0
			}
		}
	}
	return out, nulls
}

// DataType implements storage.Segment.
func (s *FrameOfReferenceSegment) DataType() types.DataType { return types.TypeInt64 }

// Len implements storage.Segment.
func (s *FrameOfReferenceSegment) Len() int { return s.n }

// ValueAt implements storage.Segment (dynamic path).
func (s *FrameOfReferenceSegment) ValueAt(i types.ChunkOffset) types.Value {
	v, null := s.Get(i)
	if null {
		return types.NullValue
	}
	return types.Int(v)
}

// IsNullAt implements storage.Segment.
func (s *FrameOfReferenceSegment) IsNullAt(i types.ChunkOffset) bool {
	return s.nulls != nil && s.nulls[i]
}

// MemoryUsage implements storage.Segment.
func (s *FrameOfReferenceSegment) MemoryUsage() int64 {
	m := int64(len(s.frames))*8 + s.offsets.MemoryUsage()
	if s.nulls != nil {
		m += int64(len(s.nulls))
	}
	return m
}

var _ storage.Segment = (*FrameOfReferenceSegment)(nil)
