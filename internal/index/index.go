// Package index implements Hyrise's per-chunk secondary indexes (paper §2.4):
// the group-key index, which was developed specifically for Hyrise and
// exploits order-preserving dictionaries, on dictionary segments, and a B+tree
// on every other segment. Indexes yield qualifying chunk offsets for a
// predicate directly, without scanning the data. No probe returns a NULL or
// NaN row: no comparison matches them.
//
// Indexes are built on immutable chunks only, so they never require
// maintenance on inserts, updates, or deletes.
package index

import (
	"fmt"

	"hyrise/internal/encoding"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// AddIndexToChunk builds and attaches an index for a column of an immutable
// chunk. The segment decides the structure (build).
func AddIndexToChunk(c *storage.Chunk, col types.ColumnID) error {
	if !c.IsImmutable() {
		return fmt.Errorf("index: chunk must be immutable")
	}
	idx, err := build(c.GetSegment(col), col)
	if err != nil {
		return err
	}
	c.AddIndex(idx)
	return nil
}

// build indexes one segment: a group-key index when it is dictionary-encoded
// (the dictionary is half the index already), a B+tree over its materialized
// values otherwise.
func build(seg storage.Segment, col types.ColumnID) (storage.ChunkIndex, error) {
	switch s := seg.(type) {
	case *encoding.DictionarySegment[int64]:
		return newGroupKey(s, col), nil
	case *encoding.DictionarySegment[float64]:
		return newGroupKey(s, col), nil
	case *encoding.DictionarySegment[string]:
		return newGroupKey(s, col), nil
	}
	switch seg.DataType() {
	case types.TypeInt64:
		return newBTreeIndex[int64](seg, col), nil
	case types.TypeFloat64:
		return newBTreeIndex[float64](seg, col), nil
	case types.TypeString:
		return newBTreeIndex[string](seg, col), nil
	default:
		return nil, fmt.Errorf("index: cannot index a %s column", seg.DataType())
	}
}
