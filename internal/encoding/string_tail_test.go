package encoding

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// TestDiffStringTail holds a string tail against a []string reference through
// every way a reader reads a column: ValueAt, Get, Materialize, positional
// gathers, the unencoded scan rung for =, <, >= and BETWEEN, ScanSorted, the
// zone, the summary and a snapshot round trip. The values are "", an embedded
// NUL, invalid UTF-8 and strings at the uvarint width steps (127, 128, 16 383,
// 16 384 bytes), mixed with NULLs. Views are kept across every growth of the
// offsets and of the blob, placeholders are filled out of offset order while
// views are out, and a reader reads beside the writer.
func TestDiffStringTail(t *testing.T) {
	pool := []string{"", "a\x00b", "\xff\xfe", "m", "k", strings.Repeat("x", 127), strings.Repeat("y", 128),
		strings.Repeat("z", 16383), strings.Repeat("w", 16384)}
	const capacity, rows = 4000, 3000
	defs := []storage.ColumnDefinition{
		{Name: "s", Type: types.TypeString, Nullable: true}, // pool values and NULLs
		{Name: "asc", Type: types.TypeString},               // ascending until the first placeholder
	}
	table := storage.NewTable("st", defs, capacity, true)
	rng := rand.New(rand.NewSource(77))
	row := func(i int) []types.Value {
		v := types.Str(pool[rng.Intn(len(pool))])
		if i >= 200 && rng.Intn(6) == 0 {
			v = types.NullValue
		}
		return []types.Value{v, types.Str(fmt.Sprintf("%05d%s", i, pool[i%5]))}
	}
	ref := make([][]types.Value, 0, rows) // placeholders read "" until filled
	placeholder := []types.Value{types.Str(""), types.Str("")}
	restore := func(off int, vals []types.Value) {
		t.Helper()
		if _, err := table.RestoreRowAt(types.RowID{Offset: types.ChunkOffset(off)}, vals); err != nil {
			t.Fatal(err)
		}
		for len(ref) < off {
			ref = append(ref, placeholder)
		}
		if off < len(ref) {
			ref[off] = vals
		} else {
			ref = append(ref, vals)
		}
	}
	restore(0, row(0))
	c := table.GetChunk(0)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // every row a reader sees is a value the writer wrote
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			seg := c.GetSegment(0)
			for i := range seg.Len() {
				if v := seg.ValueAt(types.ChunkOffset(i)); !v.IsNull() && !slices.Contains(pool, v.S) {
					t.Errorf("a reader read row %d as %q", i, v.S)
					return
				}
			}
		}
	}()

	type kept struct {
		segs []storage.Segment
		ref  [][]types.Value
	}
	var views []kept
	var holes []int        // placeholders not filled yet
	var growths, fills int // views kept across each
	usage := c.SegmentMemoryUsage(0)
	for i := 1; i < rows; i++ {
		off := len(ref)
		fill := false
		switch {
		case i > 2000 && i%50 == 0: // skip ahead: the rows between are placeholders
			for h := off; h < off+3; h++ {
				holes = append(holes, h)
			}
			off += 3
		case len(holes) > 0 && i%7 == 0: // fill one, out of offset order
			k := rng.Intn(len(holes))
			off, fill = holes[k], true
			holes = slices.Delete(holes, k, k+1)
		}
		// The view before the write: the last one of the arrays a growth
		// replaces, or one a fill must not reach. Every other fill goes without
		// it, in place unless the reader took a view meanwhile.
		segs, n := c.SnapshotSegments()
		if fill && i%2 == 0 {
			segs = nil
		}
		was := slices.Clone(ref[:n])
		restore(off, row(off))
		if now := c.SegmentMemoryUsage(0); now != usage || segs != nil && fill {
			if now != usage {
				growths++
			} else {
				fills++
			}
			usage = now
			views = append(views, kept{segs, was})
			segs, n = c.SnapshotSegments()
			views = append(views, kept{segs, slices.Clone(ref[:n])})
		}
	}
	close(done)
	wg.Wait()
	t.Logf("views kept across %d growths and %d fills", growths, fills)
	if growths < 12 || fills < 20 {
		t.Fatalf("views kept across %d growths and %d fills: the tail did not grow or fill as expected", growths, fills)
	}
	for k, v := range views {
		if v.segs == nil || k%4 != 0 && k != len(views)-1 {
			continue
		}
		for col := range defs {
			checkStringColumn(t, fmt.Sprintf("view %d column %d", k, col), v.segs[col], column(v.ref, col), rng)
		}
	}

	// The zones hold every value ever written, placeholders' "" included.
	for col := range defs {
		var all []string
		for _, r := range ref {
			if !r[col].IsNull() {
				all = append(all, r[col].S)
			}
		}
		z, _ := c.Zone(types.ColumnID(col))
		if lo := slices.Min(append(all, "")); z.Min.S != lo || z.Max.S != slices.Max(all) {
			t.Errorf("column %d zone %q..%q, want %q..%q", col, short(z.Min.S), short(z.Max.S), short(lo), short(slices.Max(all)))
		}
	}

	// A snapshot writes the entries in row order, the dead ones left behind.
	segs, n, _ := c.SealedSnapshot()
	for col := range defs {
		buf, err := AppendSegment(nil, segs[col])
		if err != nil {
			t.Fatal(err)
		}
		got, rest, err := DecodeSegment(buf)
		if err != nil || len(rest) != 0 {
			t.Fatalf("column %d: snapshot round trip: %v, %d bytes left", col, err, len(rest))
		}
		want := column(ref[:n], col)
		checkStringColumn(t, fmt.Sprintf("restored column %d", col), got, want, rng)
		s := got.(*storage.StringSegment)
		entries := 0
		for _, v := range want.values {
			entries += storage.StringEntrySize(len(v))
		}
		if len(s.Blob()) != entries || s.Clipped().MemoryUsage() != int64(4*n+entries+cap(s.Clipped().Nulls())) {
			t.Errorf("column %d: restored blob of %d bytes, its entries take %d", col, len(s.Blob()), entries)
		}
	}
}

// stringColumn is a reference column: values ("" for NULL) and NULL flags.
type stringColumn struct {
	values []string
	nulls  []bool
}

func column(rows [][]types.Value, col int) stringColumn {
	c := stringColumn{values: make([]string, len(rows)), nulls: make([]bool, len(rows))}
	for i, r := range rows {
		c.values[i], c.nulls[i] = r[col].S, r[col].IsNull()
	}
	return c
}

func short(s string) string {
	if len(s) > 12 {
		return fmt.Sprintf("%s…(%d bytes)", s[:12], len(s))
	}
	return s
}

// checkStringColumn reads seg every way and compares it with want.
func checkStringColumn(t *testing.T, what string, seg storage.Segment, want stringColumn, rng *rand.Rand) {
	t.Helper()
	s, ok := seg.(*storage.StringSegment)
	if !ok || s.Len() != len(want.values) {
		t.Fatalf("%s: %T of %d rows, want a StringSegment of %d", what, seg, seg.Len(), len(want.values))
	}
	vals, nulls := Materialize[string](seg)
	for i := range want.values {
		v, null := s.Get(types.ChunkOffset(i))
		dyn := s.ValueAt(types.ChunkOffset(i))
		isNull := nulls != nil && nulls[i]
		if null != want.nulls[i] || isNull != want.nulls[i] || dyn.IsNull() != want.nulls[i] {
			t.Fatalf("%s: row %d NULL is %v (Get), %v (Materialize), %v (ValueAt), want %v", what, i, null, isNull, dyn.IsNull(), want.nulls[i])
		}
		if !null && (v != want.values[i] || vals[i] != want.values[i] || dyn.S != want.values[i]) {
			t.Fatalf("%s: row %d reads %q (Get), %q (Materialize), %q (ValueAt), want %q", what, i, short(v), short(vals[i]), short(dyn.S), short(want.values[i]))
		}
	}
	pos := make([]types.ChunkOffset, 0, 64)
	for range 64 {
		pos = append(pos, types.ChunkOffset(rng.Intn(len(want.values))))
	}
	gv, gn := MaterializePositions[string](seg, pos)
	for j, p := range pos {
		if gn[j] != want.nulls[p] || !gn[j] && gv[j] != want.values[p] {
			t.Fatalf("%s: gathered row %d as %q (NULL %v), want %q (NULL %v)", what, p, short(gv[j]), gn[j], short(want.values[p]), want.nulls[p])
		}
	}
	probe := want.values[rng.Intn(len(want.values))]
	for _, p := range []ScanPredicate{
		{Op: ScanEq, Value: types.Str(probe)}, {Op: ScanLt, Value: types.Str(probe)}, {Op: ScanGe, Value: types.Str(probe)},
		{Op: ScanBetween, Lo: types.Str("a"), Hi: types.Str(probe)}, {Op: ScanIsNull}, {Op: ScanNe, Value: types.Str(probe)},
	} {
		got, gok := ScanStrings(p, s, nil)
		ref, rok := ScanValues(p, want.values, want.nulls, nil)
		if gok != rok || !slices.Equal(got, ref) {
			t.Fatalf("%s: %v %q: the rung matches %d rows, the reference %d", what, p.Op, short(probe), len(got), len(ref))
		}
		if first, last, sok := ScanSorted(seg, p); sok && ascends(want) {
			if !slices.Equal(offsetsOf(first, last), ref) {
				t.Fatalf("%s: ScanSorted %v %q = [%d, %d), the reference matches %d rows", what, p.Op, short(probe), first, last, len(ref))
			}
		}
	}
	if !sameSummary(Summarize[string](seg), groupValues(want.values, want.nulls, nil)) {
		t.Fatalf("%s: summary differs from the reference's", what)
	}
	if lo, hi := len(want.values)/3, len(want.values)/2; !sameSummary(SummarizeRows[string](seg, lo, hi), groupValues(want.values[lo:hi], want.nulls[lo:hi], nil)) {
		t.Fatalf("%s: summary of rows [%d, %d) differs from the reference's", what, lo, hi)
	}
}

func ascends(c stringColumn) bool {
	return !slices.Contains(c.nulls, true) && slices.IsSorted(c.values)
}

func offsetsOf(first, last int) []types.ChunkOffset {
	var out []types.ChunkOffset
	for i := first; i < last; i++ {
		out = append(out, types.ChunkOffset(i))
	}
	return out
}
