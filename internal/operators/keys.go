package operators

import (
	stdcmp "cmp" // the package's tests have a helper named cmp
	"fmt"
	"hash/maphash"
	"math"
	"slices"

	"hyrise/internal/expression"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// This file holds the only key logic of the package: how the rows of a set of
// typed key vectors hash, when two of them are equal, and the table that maps
// a key to a dense id. Hash join, GROUP BY, the sharded aggregate merge,
// COUNT(DISTINCT), the sort-merge join and the IN subquery's set (subquery.go)
// all go through it, so a key is never boxed into a types.Value or rendered
// to a string: type and representation are resolved once per vector, never
// per value (paper §2.3).
//
// Equality is the grouping rule of types.Order: values of one type compare by
// value; -0.0 equals +0.0 and NaN equals NaN (one group); NULL equals NULL —
// GROUP BY and DISTINCT want that; values of different types are never equal.
// The join and the IN subquery follow the predicate rule instead, under which
// NULL and NaN equal nothing: they drop such keys before they reach a table
// (keyNeverJoins), so a table never compares them. An int column that meets a
// float column is cast to float once per vector (joinKeys, concatKeys), which
// is what the engine's `=` does for such a pair.

// keySeed keys the string hash. Hash values only place rows in shards and
// slots; every consumer restores its output order from row ordinals, so
// results do not depend on it.
var keySeed = maphash.MakeSeed()

const (
	hashInit = 0x9E3779B97F4A7C15
	hashNull = 0xC2B2AE3D27D4EB4F
)

// hashMix folds one column value into a row hash. The multiply mixes upwards
// and the shift folds the high half back down, so both the top bits (merge
// shard) and the low bits (table slot) depend on every input bit.
func hashMix(h, x uint64) uint64 {
	h = (h ^ x) * 0xFF51AFD7ED558CCD
	return h ^ h>>32
}

// hashRows hashes rows [lo, hi) of the key columns, one typed pass per column.
func hashRows(cols []*expression.Vector, lo, hi int) []uint64 {
	return hashInto(make([]uint64, hi-lo), cols, lo)
}

// hashInto is hashRows into out, which covers rows [lo, lo+len(out)).
func hashInto(out []uint64, cols []*expression.Vector, lo int) []uint64 {
	hi := lo + len(out)
	for i := range out {
		out[i] = hashInit
	}
	for _, v := range cols {
		var before []uint64
		if v.Nulls != nil {
			// What a NULL row's slot in the typed slice holds is unspecified:
			// its hash restarts from the columns before this one.
			before = append(before, out...)
		}
		switch v.DT {
		case types.TypeInt64:
			for i, x := range v.I[lo:hi] {
				out[i] = hashMix(out[i], uint64(x))
			}
		case types.TypeFloat64:
			for i, x := range v.F[lo:hi] {
				if x == 0 {
					x = 0 // -0.0 hashes as +0.0
				} else if x != x {
					x = math.NaN() // every NaN payload hashes alike
				}
				out[i] = hashMix(out[i], math.Float64bits(x))
			}
		case types.TypeString:
			for i, x := range v.S[lo:hi] {
				out[i] = hashMix(out[i], maphash.String(keySeed, x))
			}
		case types.TypeBool:
			for i, x := range v.B[lo:hi] {
				out[i] = hashMix(out[i], uint64(boolInt(x)))
			}
		}
		if v.Nulls != nil {
			for i, null := range v.Nulls[lo:hi] {
				if null {
					out[i] = hashMix(before[i], hashNull)
				}
			}
		}
	}
	return out
}

// keysEqual reports whether row ra of a and row rb of b hold the same key.
func keysEqual(a []*expression.Vector, ra int, b []*expression.Vector, rb int) bool {
	for k, x := range a {
		y := b[k]
		xn, yn := x.IsNullAt(ra), y.IsNullAt(rb)
		if xn || yn {
			if xn != yn {
				return false
			}
			continue
		}
		if x.DT != y.DT || compareKey(x, ra, y, rb) != 0 {
			return false
		}
	}
	return true
}

// compareKey orders two non-NULL values of one type by types.Order's rule;
// stdcmp.Compare has its float rules: -0.0 equals +0.0, NaN equals NaN and
// sorts first.
func compareKey(x *expression.Vector, ra int, y *expression.Vector, rb int) int {
	switch x.DT {
	case types.TypeInt64:
		return stdcmp.Compare(x.I[ra], y.I[rb])
	case types.TypeFloat64:
		return stdcmp.Compare(x.F[ra], y.F[rb])
	case types.TypeString:
		return stdcmp.Compare(x.S[ra], y.S[rb])
	default:
		return stdcmp.Compare(boolInt(x.B[ra]), boolInt(y.B[rb]))
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// keyNeverJoins reports whether any key column is NULL or NaN at row r: under
// the predicate rule such a key equals nothing, so the join leaves the row out.
func keyNeverJoins(cols []*expression.Vector, r int) bool {
	for _, v := range cols {
		if v.IsNullAt(r) || (v.DT == types.TypeFloat64 && math.IsNaN(v.F[r])) {
			return true
		}
	}
	return false
}

// keyTable is an open-addressing hash table from keys to dense entry ids
// (0, 1, 2, ... in insertion order). A key is a row of the typed columns in
// keys; the table stores row numbers and hashes, never values, and settles
// hash collisions by typed equality.
type keyTable struct {
	keys   []*expression.Vector
	slots  []int32  // entry+1 per slot, 0 = free; the length is a power of two
	hashes []uint64 // by entry
	rows   []int32  // by entry: a row of keys that holds the entry's key
	// next, for the join build side, chains the rows of keys that share a
	// key: rows[e] is the smallest, next[r] the following one, -1 ends it.
	next []int32
}

func newKeyTable(keys []*expression.Vector, capacity int) *keyTable {
	return &keyTable{
		keys:   keys,
		slots:  make([]int32, nextPow2(max(2*capacity, 16))),
		hashes: make([]uint64, 0, capacity),
		rows:   make([]int32, 0, capacity),
	}
}

// lookup finds the entry whose key equals row r of cols (-1 if there is
// none) and the slot where the probe sequence ended.
func (t *keyTable) lookup(h uint64, cols []*expression.Vector, r int) (int32, int) {
	mask := len(t.slots) - 1
	for s := int(h) & mask; ; s = (s + 1) & mask {
		e := t.slots[s] - 1
		if e < 0 {
			return -1, s
		}
		if t.hashes[e] == h && keysEqual(t.keys, int(t.rows[e]), cols, r) {
			return e, s
		}
	}
}

// findOrAdd returns the entry of the key at row r of the table's own columns,
// adding it when it is new.
func (t *keyTable) findOrAdd(h uint64, r int) (entry int32, added bool) {
	e, s := t.lookup(h, t.keys, r)
	if e >= 0 {
		return e, false
	}
	e = int32(len(t.rows))
	t.rows = append(t.rows, int32(r))
	t.hashes = append(t.hashes, h)
	t.slots[s] = e + 1
	if 2*len(t.rows) > len(t.slots) {
		t.slots = make([]int32, 2*len(t.slots))
		mask := len(t.slots) - 1
		for e, h := range t.hashes {
			s := int(h) & mask
			for t.slots[s] != 0 {
				s = (s + 1) & mask
			}
			t.slots[s] = int32(e) + 1
		}
	}
	return e, true
}

// insert adds build row r to its key's chain. Rows must arrive in descending
// order: each becomes the head, which leaves every chain ascending.
func (t *keyTable) insert(h uint64, r int) {
	e, added := t.findOrAdd(h, r)
	if added {
		t.next[r] = -1
		return
	}
	t.next[r] = t.rows[e]
	t.rows[e] = int32(r)
}

// matches returns the first build row whose key equals row r of cols, or -1;
// t.next leads to the others.
func (t *keyTable) matches(h uint64, cols []*expression.Vector, r int) int32 {
	e, _ := t.lookup(h, cols, r)
	if e < 0 {
		return -1
	}
	return t.rows[e]
}

// exprType is the plan's type of e, a key (expression.InferType).
func exprType(e expression.Expression) types.DataType {
	dt, _ := expression.InferType(e)
	return dt
}

// concatKeys builds one key column of type dt and total rows from vectors
// laid end to end. A vector is of type dt, all NULL (of any type: a column the
// plan types NULL is stored as some type), or INT in a FLOAT column and cast;
// any other is an error. A column of type NULL is all NULL. A single vector
// that already is the column is returned as it is.
func concatKeys(vecs []*expression.Vector, dt types.DataType, total int) (*expression.Vector, error) {
	switch {
	case dt == types.TypeNull:
		return expression.NullVector(dt, total), nil
	case len(vecs) == 1 && vecs[0].DT == dt:
		return vecs[0], nil
	}
	out := &expression.Vector{DT: dt, N: total}
	off := 0
	for _, v := range vecs {
		if v.DT == types.TypeNull || v.DT != dt && v.Nulls != nil && !slices.Contains(v.Nulls, false) { // every row NULL
			v = expression.NullVector(dt, v.N)
		}
		switch {
		case v.DT != dt && (v.DT != types.TypeInt64 || dt != types.TypeFloat64):
			return nil, fmt.Errorf("operators: a %s vector in a %s key column", v.DT, dt)
		case dt == types.TypeInt64:
			out.I = place(out.I, total, off, v.I)
		case dt == types.TypeFloat64:
			out.F = place(out.F, total, off, v.Floats())
		case dt == types.TypeString:
			out.S = place(out.S, total, off, v.S)
		case dt == types.TypeBool:
			out.B = place(out.B, total, off, v.B)
		}
		if v.Nulls != nil {
			out.Nulls = place(out.Nulls, total, off, v.Nulls)
		}
		off += v.N
	}
	return out, nil
}

// place copies src into dst from off on; dst, total long, is allocated on
// first use.
func place[T any](dst []T, total, off int, src []T) []T {
	if dst == nil {
		dst = make([]T, total)
	}
	copy(dst[off:], src)
	return dst
}

// joinSide is one join input as the key logic sees it: rows addresses every
// row of the input in order, and keys holds one flat vector per key
// expression, so a global row index addresses both.
type joinSide struct {
	rows *storage.TableRows
	keys []*expression.Vector
}

// evalKeys evaluates the key expressions over every chunk of t, morsel by
// morsel: vecs[k][ci] is key k over chunk ci.
func evalKeys(ctx *ExecContext, t *storage.Table, keys []expression.Expression) ([][]*expression.Vector, error) {
	chunks := t.Chunks()
	vecs := make([][]*expression.Vector, len(keys))
	for k := range vecs {
		vecs[k] = make([]*expression.Vector, len(chunks))
	}
	morsels := morselRanges(chunks, ctx.morselTargetRows())
	errs := make([]error, len(morsels))
	jobs := make([]func(), len(morsels))
	for mi, m := range morsels {
		mi, m := mi, m
		jobs[mi] = func() {
			for ci := m.lo; ci < m.hi && ctx.Err() == nil; ci++ {
				n := chunks[ci].Size()
				ec := ctx.evalContext(chunks[ci], n, nil)
				for k, key := range keys {
					if n == 0 {
						vecs[k][ci] = &expression.Vector{} // an empty chunk adds no rows and no type
					} else if vecs[k][ci], errs[mi] = expression.Evaluate(key, ec); errs[mi] != nil {
						return
					}
				}
			}
		}
	}
	ctx.runJobs(jobs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return vecs, nil
}

// joinKeys evaluates both inputs' key expressions into flat key columns: the
// two sides of a key meet in their common type where they have one, so a key
// that is int on one side and float on the other becomes float on both.
func joinKeys(ctx *ExecContext, leftT, rightT *storage.Table, leftKeys, rightKeys []expression.Expression) (left, right joinSide, err error) {
	lv, err := evalKeys(ctx, leftT, leftKeys)
	if err != nil {
		return left, right, err
	}
	rv, err := evalKeys(ctx, rightT, rightKeys)
	if err != nil {
		return left, right, err
	}
	left = joinSide{rows: leftT.AllRows(), keys: make([]*expression.Vector, len(lv))}
	right = joinSide{rows: rightT.AllRows(), keys: make([]*expression.Vector, len(rv))}
	for k := range lv {
		ldt, rdt := exprType(leftKeys[k]), exprType(rightKeys[k])
		if dt, ok := types.CommonType(ldt, rdt); ok {
			ldt, rdt = dt, dt
		}
		if left.keys[k], err = concatKeys(lv[k], ldt, left.rows.Len()); err != nil {
			return left, right, err
		}
		if right.keys[k], err = concatKeys(rv[k], rdt, right.rows.Len()); err != nil {
			return left, right, err
		}
	}
	return left, right, nil
}
