package encoding

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// withEnds is s with its ends re-packed in the given code vector, whichever the
// size model would pick: a dictionary as small as a fuzz input never makes
// BP128 win.
func withEnds(s *DictionarySegment[string], vector VectorCompressionType) *DictionarySegment[string] {
	out := *s
	out.strs.ends = CompressUints(s.strs.ends.DecodeAll(nil), vector)
	return &out
}

// all is the positions 0 to n-1.
func all(n int) []types.ChunkOffset {
	pos := make([]types.ChunkOffset, n)
	for i := range pos {
		pos[i] = types.ChunkOffset(i)
	}
	return pos
}

// refEnds is the []uint32 reference of a dictionary over values: the ends of
// the values, or of their codes under s's symbol table, laid back to back, and
// what the blob holds of each value.
func refEnds(s *DictionarySegment[string], values []string) ([]uint32, []string) {
	raws := values
	if s.strs.table != nil {
		var m fsstMatcher
		m.reset(s.strs.table)
		raws = make([]string, len(values))
		for i, v := range values {
			raws[i] = string(m.compress(nil, v, 0, len(v)))
		}
	}
	ends, total := make([]uint32, len(raws)), 0
	for i, r := range raws {
		total += len(r)
		ends[i] = uint32(total)
	}
	return ends, raws
}

// checkEnds holds every read of a string dictionary's ends against the
// reference: each id's span, raw bytes and value, gathers at every row (the
// ends decoded once) and at fewer rows than values (a span per row), with and
// without slots, DecodeAll, and the bound searches.
func checkEnds(t *testing.T, name string, s *DictionarySegment[string], values, rows []string, nulls []bool) {
	t.Helper()
	ends, raws := refEnds(s, values)
	if s.UniqueValueCount() != len(values) {
		t.Fatalf("%s: %d values, want %d", name, s.UniqueValueCount(), len(values))
	}
	for id := range values {
		from, to := s.strs.span(uint64(id))
		if want := uint32(0); id > 0 {
			want = ends[id-1]
			if uint32(from) != want {
				t.Fatalf("%s: value %d starts at %d, want %d", name, id, from, want)
			}
		}
		if uint32(to) != ends[id] || s.strs.raw(uint64(id)) != raws[id] || s.strs.at(uint64(id)) != values[id] {
			t.Fatalf("%s: value %d ends at %d (want %d), reads %q", name, id, to, ends[id], s.strs.at(uint64(id)))
		}
	}
	n := len(rows)
	all, slots := make([]types.ChunkOffset, n), make([]int32, n)
	for i := range all {
		all[i], slots[i] = types.ChunkOffset(n-1-i), int32((i+n/2)%n)
	}
	few := all[:min(n, len(values))] // no more rows than values: no decoded ends
	for _, pos := range [][]types.ChunkOffset{all, few} {
		for _, sl := range [][]int32{nil, slots[:len(pos)]} {
			out, outNulls := make([]string, n), make([]bool, n)
			s.Gather(pos, sl, out, outNulls)
			for i, p := range pos {
				if sl != nil {
					i = int(sl[i])
				}
				if outNulls[i] != nulls[p] || !nulls[p] && out[i] != rows[p] {
					t.Fatalf("%s: gather of %d rows (slots %v): row %d = %q (null %v), want %q", name, len(pos), sl != nil, p, out[i], outNulls[i], rows[p])
				}
			}
		}
	}
	decoded, decodedNulls := s.DecodeAll()
	for i := range rows {
		if null := decodedNulls != nil && decodedNulls[i]; null != nulls[i] || !null && decoded[i] != rows[i] {
			t.Fatalf("%s: DecodeAll row %d = %q (null %v), want %q", name, i, decoded[i], null, rows[i])
		}
	}
	probes := []string{"", "\x00", "\xff\xff", "zzzz"}
	for _, v := range values {
		probes = append(probes, v, v+"\x00")
	}
	for _, p := range probes {
		lo := ValueID(sort.SearchStrings(values, p))
		hi := ValueID(sort.Search(len(values), func(i int) bool { return values[i] > p }))
		if id, found := s.Find(p); s.LowerBound(p) != lo || s.UpperBound(p) != hi || id != lo || found != (hi > lo) {
			t.Fatalf("%s: bounds of %q: [%d, %d), want [%d, %d)", name, p, s.LowerBound(p), s.UpperBound(p), lo, hi)
		}
	}
}

// TestDiffDictionaryEnds holds a string dictionary's ends in both code vectors
// and over both blobs, plain and FSST-packed, against a []uint32 reference,
// before and after a snapshot round trip, over the empty string, NUL, invalid
// UTF-8, a lone value and a blob past 65 536 bytes (the ends' third byte). A
// sealed dictionary restores to the same bytes, the big one's ends bit-packed.
func TestDiffDictionaryEnds(t *testing.T) {
	big := generate(3000, func(i int) string { return fmt.Sprintf("%05d %s", i, comment(i)) })
	var readers []func() bool
	for name, values := range map[string][]string{
		"awkward":           {"", "\x00", "a\x00b", "\xc3\x28", "zz", "\xff\xfe"},
		"one value":         {"only"},
		"one empty value":   {""},
		"past 65536 bytes":  big,
		"two hundred short": generate(200, func(i int) string { return fmt.Sprintf("%03d", i) }),
	} {
		sort.Strings(values)
		n := 2*len(values) + 3
		rows, nulls := make([]string, n), make([]bool, n)
		for i := range rows {
			if nulls[i] = i%(n/3+1) == 1; !nulls[i] {
				rows[i] = values[i*7919%len(values)]
			}
		}
		for i := range values { // every value appears
			rows[(i*2)%n], nulls[(i*2)%n] = values[i], false
		}
		plain := EncodeDictionary(rows, nulls, FixedSizeByteAligned)
		readers = append(readers, func() bool { // a gather at every row: the ends decoded once
			out, outNulls := make([]string, n), make([]bool, n)
			plain.Gather(all(n), nil, out, outNulls)
			return reflect.DeepEqual(out, rows) && reflect.DeepEqual(outNulls, nulls)
		})
		for blob, s := range map[string]*DictionarySegment[string]{"plain": plain, "packed": packedCopy(plain, values)} {
			for _, vector := range []VectorCompressionType{FixedSizeByteAligned, BitPacked128} {
				label := fmt.Sprintf("%s, %s, %s ends", name, blob, vector)
				seg := withEnds(s, vector)
				if compressionOf(seg.strs.ends) != vector {
					t.Fatalf("%s: ends in %s", label, compressionOf(seg.strs.ends))
				}
				checkEnds(t, label, seg, values, rows, nulls)
				checkEnds(t, label+", restored", roundTrip(t, seg).(*DictionarySegment[string]), values, rows, nulls)
			}
		}
		spec, _ := Seal(storage.ValueSegmentFromSlice(rows, nulls), false, &Spec{Encoding: Dictionary})
		if d := spec.(*DictionarySegment[string]); name == "past 65536 bytes" && compressionOf(d.strs.ends) != BitPacked128 {
			t.Errorf("%s: %d ends up to %d sealed in %s", name, d.UniqueValueCount(), d.strs.ends.Get(d.UniqueValueCount()-1), compressionOf(d.strs.ends))
		}
		sealed, _ := Seal(storage.ValueSegmentFromSlice(rows, nulls), false, nil)
		if d, ok := sealed.(*DictionarySegment[string]); ok {
			restored := roundTrip(t, d).(*DictionarySegment[string])
			if restored.MemoryUsage() != d.MemoryUsage() || !reflect.DeepEqual(restored.strs.ends, d.strs.ends) {
				t.Errorf("%s: a sealed dictionary of %d bytes restores to %d", name, d.MemoryUsage(), restored.MemoryUsage())
			}
		} else if name == "past 65536 bytes" {
			t.Errorf("%s: sealed as %T", name, sealed)
		}
	}
	// Readers at once: each decodes the ends into a buffer of its own, the
	// spare or a fresh one.
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				if read := readers[(g+i)%len(readers)]; !read() {
					t.Errorf("reader %d: gather %d differs from the rows", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
