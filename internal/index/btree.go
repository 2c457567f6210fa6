package index

import (
	"fmt"
	"sort"

	"hyrise/internal/encoding"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// btreeOrder is the maximum number of keys per node.
const btreeOrder = 64

// BTreeIndex is an in-memory B+tree over one segment. It is bulk-loaded
// bottom-up from the sorted (key, positions) pairs of an immutable chunk:
// leaves hold grouped postings and are chained for range scans; inner nodes
// store separator keys.
type BTreeIndex[T types.Ordered] struct {
	root   *btreeNode[T]
	first  *btreeNode[T] // leftmost leaf (range scan entry)
	col    types.ColumnID
	height int
	memory int64
}

type btreeNode[T types.Ordered] struct {
	keys     []T
	children []*btreeNode[T]       // inner nodes only
	postings [][]types.ChunkOffset // leaves only, parallel to keys
	next     *btreeNode[T]         // leaf chain
	leaf     bool
}

// buildBTree constructs a typed B+tree matching the segment's data type.
func buildBTree(seg storage.Segment, col types.ColumnID) (storage.ChunkIndex, error) {
	switch seg.DataType() {
	case types.TypeInt64:
		return newBTreeIndex[int64](seg, col), nil
	case types.TypeFloat64:
		return newBTreeIndex[float64](seg, col), nil
	case types.TypeString:
		return newBTreeIndex[string](seg, col), nil
	default:
		return nil, fmt.Errorf("index: btree unsupported for %s", seg.DataType())
	}
}

func newBTreeIndex[T types.Ordered](seg storage.Segment, col types.ColumnID) *BTreeIndex[T] {
	vals, nulls := encoding.Materialize[T](seg)
	type pair struct {
		v   T
		pos types.ChunkOffset
	}
	pairs := make([]pair, 0, len(vals))
	for i, v := range vals {
		if nulls != nil && nulls[i] {
			continue
		}
		pairs = append(pairs, pair{v, types.ChunkOffset(i)})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].v != pairs[j].v {
			return pairs[i].v < pairs[j].v
		}
		return pairs[i].pos < pairs[j].pos
	})

	idx := &BTreeIndex[T]{col: col}

	// Group equal keys.
	var keys []T
	var postings [][]types.ChunkOffset
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j].v == pairs[i].v {
			j++
		}
		keys = append(keys, pairs[i].v)
		ps := make([]types.ChunkOffset, 0, j-i)
		for k := i; k < j; k++ {
			ps = append(ps, pairs[k].pos)
		}
		postings = append(postings, ps)
		i = j
	}

	// Build the leaf level.
	var leaves []*btreeNode[T]
	for i := 0; i < len(keys); i += btreeOrder {
		j := min(i+btreeOrder, len(keys))
		leaf := &btreeNode[T]{keys: keys[i:j], postings: postings[i:j], leaf: true}
		if len(leaves) > 0 {
			leaves[len(leaves)-1].next = leaf
		}
		leaves = append(leaves, leaf)
	}
	if len(leaves) == 0 {
		leaves = []*btreeNode[T]{{leaf: true}}
	}
	idx.first = leaves[0]

	// Build inner levels bottom-up. Each inner node's keys[i] is the
	// smallest key in children[i]; descent picks the last child whose
	// smallest key is <= probe.
	level := leaves
	idx.height = 1
	for len(level) > 1 {
		var parents []*btreeNode[T]
		for i := 0; i < len(level); i += btreeOrder {
			j := min(i+btreeOrder, len(level))
			node := &btreeNode[T]{}
			for _, child := range level[i:j] {
				node.children = append(node.children, child)
				node.keys = append(node.keys, smallestKey(child))
			}
			parents = append(parents, node)
		}
		level = parents
		idx.height++
	}
	idx.root = level[0]
	idx.memory = idx.computeMemory(idx.root)
	return idx
}

func smallestKey[T types.Ordered](n *btreeNode[T]) T {
	for !n.leaf {
		n = n.children[0]
	}
	if len(n.keys) == 0 {
		var z T
		return z
	}
	return n.keys[0]
}

// seekLeaf descends to the leaf that may contain v and returns the position
// of the first key >= v within it (possibly len(keys), meaning "next leaf").
func (idx *BTreeIndex[T]) seekLeaf(v T) (*btreeNode[T], int) {
	node := idx.root
	for !node.leaf {
		// Last child whose smallest key <= v; children[0] if all > v.
		i := sort.Search(len(node.keys), func(i int) bool { return node.keys[i] > v })
		if i > 0 {
			i--
		}
		node = node.children[i]
	}
	i := sort.Search(len(node.keys), func(i int) bool { return node.keys[i] >= v })
	return node, i
}

// EqualsTyped returns the postings of key v.
func (idx *BTreeIndex[T]) EqualsTyped(v T) []types.ChunkOffset {
	leaf, i := idx.seekLeaf(v)
	if i < len(leaf.keys) && leaf.keys[i] == v {
		out := make([]types.ChunkOffset, len(leaf.postings[i]))
		copy(out, leaf.postings[i])
		return out
	}
	return nil
}

// RangeTyped collects postings for lo <= key <= hi; nil bounds are open.
func (idx *BTreeIndex[T]) RangeTyped(lo, hi *T) []types.ChunkOffset {
	var leaf *btreeNode[T]
	var i int
	if lo != nil {
		leaf, i = idx.seekLeaf(*lo)
	} else {
		leaf, i = idx.first, 0
	}
	var out []types.ChunkOffset
	for leaf != nil {
		for ; i < len(leaf.keys); i++ {
			if hi != nil && leaf.keys[i] > *hi {
				return out
			}
			out = append(out, leaf.postings[i]...)
		}
		leaf = leaf.next
		i = 0
	}
	return out
}

// IndexType implements storage.ChunkIndex.
func (idx *BTreeIndex[T]) IndexType() string { return "BTree" }

// ColumnID implements storage.ChunkIndex.
func (idx *BTreeIndex[T]) ColumnID() types.ColumnID { return idx.col }

// Equals implements storage.ChunkIndex.
func (idx *BTreeIndex[T]) Equals(v types.Value) []types.ChunkOffset {
	probe, ok := probeValue[T](v)
	if !ok {
		return nil
	}
	return idx.EqualsTyped(probe)
}

// Range implements storage.ChunkIndex.
func (idx *BTreeIndex[T]) Range(lo, hi *types.Value) []types.ChunkOffset {
	var loT, hiT *T
	if lo != nil {
		p, ok := probeValue[T](*lo)
		if !ok {
			return nil
		}
		loT = &p
	}
	if hi != nil {
		p, ok := probeValue[T](*hi)
		if !ok {
			return nil
		}
		hiT = &p
	}
	return idx.RangeTyped(loT, hiT)
}

// MemoryUsage implements storage.ChunkIndex.
func (idx *BTreeIndex[T]) MemoryUsage() int64 { return idx.memory }

func (idx *BTreeIndex[T]) computeMemory(n *btreeNode[T]) int64 {
	var sum int64 = 64 + int64(len(n.keys))*16
	if n.leaf {
		for _, ps := range n.postings {
			sum += int64(len(ps))*4 + 24
		}
		return sum
	}
	for _, c := range n.children {
		sum += 8 + idx.computeMemory(c)
	}
	return sum
}

// probeValue converts a dynamic probe value to T; ok is false for NULL or
// incompatible types.
func probeValue[T types.Ordered](v types.Value) (T, bool) {
	var z T
	if v.IsNull() {
		return z, false
	}
	switch any(z).(type) {
	case int64:
		if !v.Type.IsNumeric() {
			return z, false
		}
		return any(v.AsInt()).(T), true
	case float64:
		if !v.Type.IsNumeric() {
			return z, false
		}
		return any(v.AsFloat()).(T), true
	case string:
		if v.Type != types.TypeString {
			return z, false
		}
		return any(v.S).(T), true
	}
	return z, false
}
