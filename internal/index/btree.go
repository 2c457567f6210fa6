package index

import (
	"cmp"
	"math"
	"slices"
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

// newBTreeIndex bulk-loads the B+tree of a segment whose values are of type T.
func newBTreeIndex[T types.Ordered](seg storage.Segment, col types.ColumnID) *BTreeIndex[T] {
	vals, nulls := encoding.Materialize[T](seg)
	type entry struct {
		v   T
		pos types.ChunkOffset
	}
	entries := make([]entry, 0, len(vals))
	for i, v := range vals {
		// NULL and NaN (v != v) rows match no comparison: no probe returns them.
		if (nulls != nil && nulls[i]) || v != v {
			continue
		}
		entries = append(entries, entry{v, types.ChunkOffset(i)})
	}
	slices.SortFunc(entries, func(a, b entry) int {
		if c := cmp.Compare(a.v, b.v); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})

	// Group equal keys; every posting list is a slice of one backing array.
	positions := make([]types.ChunkOffset, len(entries))
	var keys []T
	var postings [][]types.ChunkOffset
	start := 0
	for i, e := range entries {
		positions[i] = e.pos
		if i+1 == len(entries) || entries[i+1].v != e.v {
			keys = append(keys, e.v)
			postings = append(postings, positions[start:i+1:i+1])
			start = i + 1
		}
	}

	// Build the leaf level (one leaf, empty, for a segment without keys).
	nodes := make([]btreeNode[T], max(1, (len(keys)+btreeOrder-1)/btreeOrder))
	leaves := make([]*btreeNode[T], len(nodes))
	for n := range nodes {
		i, j := n*btreeOrder, min((n+1)*btreeOrder, len(keys))
		nodes[n] = btreeNode[T]{keys: keys[i:j], postings: postings[i:j], leaf: true}
		leaves[n] = &nodes[n]
		if n > 0 {
			leaves[n-1].next = leaves[n]
		}
	}
	idx := &BTreeIndex[T]{col: col, first: leaves[0]}

	// Build inner levels bottom-up. Each inner node's keys[i] is the
	// smallest key in children[i]; descent picks the last child whose
	// smallest key is <= probe.
	level := leaves
	idx.height = 1
	for len(level) > 1 {
		var parents []*btreeNode[T]
		for i := 0; i < len(level); i += btreeOrder {
			j := min(i+btreeOrder, len(level))
			node := &btreeNode[T]{children: level[i:j:j], keys: make([]T, 0, j-i)}
			for _, child := range node.children {
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

// probeValue converts a dynamic probe value to T; ok is false for NULL, NaN
// (which equals nothing and bounds nothing) and incompatible types.
func probeValue[T types.Ordered](v types.Value) (T, bool) {
	var z T
	if v.IsNull() || (v.Type == types.TypeFloat64 && math.IsNaN(v.F)) {
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
