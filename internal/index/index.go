// Package index implements Hyrise's per-chunk secondary indexes
// (paper §2.4): adaptive radix trees (ART), B-trees, and the group-key
// index, which was developed specifically for Hyrise and exploits
// order-preserving dictionaries. Indexes yield qualifying chunk offsets for
// a predicate directly, without scanning the data.
//
// Indexes are built on immutable chunks only, so they never require
// maintenance on inserts, updates, or deletes.
package index

import (
	"encoding/binary"
	"fmt"
	"math"

	"hyrise/internal/encoding"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Type selects an index implementation.
type Type uint8

const (
	// ART is an adaptive radix tree (Leis et al.).
	ART Type = iota
	// BTree is an in-memory B+tree.
	BTree
	// GroupKey is Hyrise's dictionary-position index; it requires a
	// dictionary-encoded segment.
	GroupKey
)

// String names the index type.
func (t Type) String() string {
	switch t {
	case ART:
		return "ART"
	case BTree:
		return "BTree"
	case GroupKey:
		return "GroupKey"
	default:
		return "?"
	}
}

// Create builds an index of the given type over one segment of an immutable
// chunk. The segment may be encoded; the index materializes the values it
// needs during the build. NULL rows are not indexed.
func Create(t Type, seg storage.Segment, col types.ColumnID) (storage.ChunkIndex, error) {
	switch t {
	case ART:
		return buildART(seg, col)
	case BTree:
		return buildBTree(seg, col)
	case GroupKey:
		return buildGroupKey(seg, col)
	default:
		return nil, fmt.Errorf("index: unknown index type %d", t)
	}
}

// AddIndexToChunk builds and attaches an index for a column of an immutable
// chunk.
func AddIndexToChunk(t Type, c *storage.Chunk, col types.ColumnID) error {
	if !c.IsImmutable() {
		return fmt.Errorf("index: chunk must be immutable")
	}
	idx, err := Create(t, c.GetSegment(col), col)
	if err != nil {
		return err
	}
	c.AddIndex(idx)
	return nil
}

// --- binary-comparable key encoding -------------------------------------
//
// ART requires keys whose byte-wise lexicographic order equals the value
// order, and where no key is a prefix of another. Integers flip the sign
// bit of their big-endian form; floats use the standard IEEE-754 total
// order transformation; strings escape NUL bytes (0x00 -> 0x00 0xFF) and
// are terminated with 0x00 0x00.

func keyFromInt64(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v)^(1<<63))
	return b[:]
}

func keyFromFloat64(v float64) []byte {
	bits := math.Float64bits(v)
	if bits&(1<<63) != 0 {
		bits = ^bits // negative floats: flip all bits
	} else {
		bits |= 1 << 63 // positive floats: flip the sign bit
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], bits)
	return b[:]
}

func keyFromString(v string) []byte {
	b := make([]byte, 0, len(v)+2)
	for i := 0; i < len(v); i++ {
		b = append(b, v[i])
		if v[i] == 0x00 {
			b = append(b, 0xFF)
		}
	}
	return append(b, 0x00, 0x00)
}

// keyFromValue converts a dynamic value of the given column type to its
// binary-comparable key. ok is false for NULLs and type mismatches.
func keyFromValue(t types.DataType, v types.Value) ([]byte, bool) {
	if v.IsNull() {
		return nil, false
	}
	switch t {
	case types.TypeInt64:
		if !v.Type.IsNumeric() {
			return nil, false
		}
		return keyFromInt64(v.AsInt()), true
	case types.TypeFloat64:
		if !v.Type.IsNumeric() {
			return nil, false
		}
		return keyFromFloat64(v.AsFloat()), true
	case types.TypeString:
		if v.Type != types.TypeString {
			return nil, false
		}
		return keyFromString(v.S), true
	default:
		return nil, false
	}
}

// materializeKeyed returns the binary-comparable key of every non-NULL row.
func materializeKeyed(seg storage.Segment) (keys [][]byte, offsets []types.ChunkOffset) {
	n := seg.Len()
	keys = make([][]byte, 0, n)
	offsets = make([]types.ChunkOffset, 0, n)
	switch seg.DataType() {
	case types.TypeInt64:
		vals, nulls := encoding.Materialize[int64](seg)
		for i, v := range vals {
			if nulls != nil && nulls[i] {
				continue
			}
			keys = append(keys, keyFromInt64(v))
			offsets = append(offsets, types.ChunkOffset(i))
		}
	case types.TypeFloat64:
		vals, nulls := encoding.Materialize[float64](seg)
		for i, v := range vals {
			if nulls != nil && nulls[i] {
				continue
			}
			keys = append(keys, keyFromFloat64(v))
			offsets = append(offsets, types.ChunkOffset(i))
		}
	case types.TypeString:
		vals, nulls := encoding.Materialize[string](seg)
		for i, v := range vals {
			if nulls != nil && nulls[i] {
				continue
			}
			keys = append(keys, keyFromString(v))
			offsets = append(offsets, types.ChunkOffset(i))
		}
	}
	return keys, offsets
}
