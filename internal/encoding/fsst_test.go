package encoding

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// commentWords is TPC-H-style filler text, what FSST tables are built from
// here.
var commentWords = strings.Fields("carefully final deposits detect slyly ironic requests haggle " +
	"blithely pending accounts sleep quickly regular packages boost furiously express foxes nag")

func comment(i int) string {
	r := lcg(i)
	words := make([]string, 4+r.next()>>61)
	for k := range words {
		words[k] = commentWords[r.next()>>33%uint64(len(commentWords))]
	}
	return strings.Join(words, " ")
}

// packedCopy is plain with its values FSST-packed by a table built from
// tableFrom's values, whether that saves bytes or not.
func packedCopy(plain *DictionarySegment[string], tableFrom []string) *DictionarySegment[string] {
	b := new(fsstBuilder)
	b.build(packStrings(tableFrom))
	out := *plain
	out.strs = b.packAll(plain.strs, math.MaxInt)
	return &out
}

// checkPacked holds a packed dictionary against the plain one it was packed
// from on every read path: rows, gathers with and without slots, bulk decode,
// bound searches and scans for every op over probes, the summary, the zone, the
// bytes it charges and a snapshot round trip.
func checkPacked(t *testing.T, name string, plain, packed *DictionarySegment[string], probes []string) {
	t.Helper()
	if ValueCompression(packed) != "FSST" || ValueCompression(plain) != "none" {
		t.Fatalf("%s: value compression %s and %s", name, ValueCompression(packed), ValueCompression(plain))
	}
	n := plain.Len()
	for i := range n {
		gv, gn := packed.Get(types.ChunkOffset(i))
		wv, wn := plain.Get(types.ChunkOffset(i))
		if gv != wv || gn != wn {
			t.Fatalf("%s: row %d = %q (null %v), want %q (null %v)", name, i, gv, gn, wv, wn)
		}
	}
	pos, slots := make([]types.ChunkOffset, n), make([]int32, n)
	for i := range pos {
		pos[i], slots[i] = types.ChunkOffset(n-1-i), int32((i+n/2)%n)
	}
	for _, sl := range [][]int32{nil, slots} {
		got, gotNulls := make([]string, n), make([]bool, n)
		want, wantNulls := make([]string, n), make([]bool, n)
		packed.Gather(pos, sl, got, gotNulls)
		plain.Gather(pos, sl, want, wantNulls)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotNulls, wantNulls) {
			t.Fatalf("%s: Gather (slots %v) differs", name, sl != nil)
		}
	}
	gotAll, gotNulls := packed.DecodeAll()
	wantAll, wantNulls := plain.DecodeAll()
	if !reflect.DeepEqual(gotAll, wantAll) || !reflect.DeepEqual(gotNulls, wantNulls) {
		t.Fatalf("%s: DecodeAll differs", name)
	}
	for _, p := range probes {
		id, found := packed.Find(p)
		if packed.LowerBound(p) != plain.LowerBound(p) || packed.UpperBound(p) != plain.UpperBound(p) ||
			id != plain.LowerBound(p) || found != (plain.UpperBound(p) > id) {
			t.Fatalf("%s: bounds of %q: [%d, %d), plain [%d, %d)", name, p, packed.LowerBound(p), packed.UpperBound(p), plain.LowerBound(p), plain.UpperBound(p))
		}
	}
	for _, d := range diffPredicates(probes) {
		got, _, gotOK := packed.ScanEncoded(d.scanPredicate(), nil)
		want, _, wantOK := plain.ScanEncoded(d.scanPredicate(), nil)
		if gotOK != wantOK || !equalOffsets(got, want) {
			t.Fatalf("%s: %s: got %v, plain %v", name, d.name, clip(got), clip(want))
		}
	}
	if got, want := Summarize[string](packed), Summarize[string](plain); !identicalSummary(got, want) {
		t.Fatalf("%s: summary differs", name)
	}
	if got, want := packed.Zone(), plain.Zone(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: zone %+v, plain %+v", name, got, want)
	}
	if want := packed.strs.ends.MemoryUsage() + int64(len(packed.strs.blob)) + fsstTableBytes + packed.av.MemoryUsage(); packed.MemoryUsage() != want {
		t.Errorf("%s: MemoryUsage %d, want ends + codes + table + attribute vector = %d", name, packed.MemoryUsage(), want)
	}
	buf, err := AppendSegment(nil, packed)
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != segDictStringFSST {
		t.Fatalf("%s: packed dictionary written with tag %d", name, buf[0])
	}
	restored, rest, err := DecodeSegment(buf)
	if err != nil || len(rest) != 0 {
		t.Fatalf("%s: snapshot of the packed dictionary does not decode: %v", name, err)
	}
	assertSameValues(t, restored, plain)
	if again, _ := AppendSegment(nil, restored); !bytes.Equal(again, buf) {
		t.Fatalf("%s: the restored dictionary serializes differently", name)
	}
}

// TestDiffFSSTDictionary holds FSST-packed dictionaries against the plain ones
// they pack, over pools of awkward values: the empty string, NUL, invalid
// UTF-8, every byte value alone and all together, values the table has no
// symbol for (all escapes), values longer than 64 bytes, and NULL rows — with a
// table built from comment text, where the awkward bytes escape, and from the
// values themselves.
func TestDiffFSSTDictionary(t *testing.T) {
	comments := generate(3000, comment)
	var awkward []string
	for b := range 256 {
		awkward = append(awkward, string([]byte{byte(b)}))
	}
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	awkward = append(awkward, "", "\x00", "a\x00b", "\xc3\x28", "\xff\xfe\xfd", string(all),
		"\x80\x81\x82\x83\x84\x85\x86\x87\x88\x89", // no symbol of the comment table: escapes only
		strings.Repeat("carefully final ", 9), strings.Repeat("\xff", 70), comment(1)+"\x00"+comment(2))
	probes := append([]string{"", "\x00", "\xff\xff\xff", "carefully", "carefully final deposits", "z", "a\x00"}, awkward...)
	for _, v := range comments[:50] {
		probes = append(probes, v, v+"\x00", v[:len(v)/2])
	}
	mixed := append(append([]string{}, comments...), awkward...)
	for name, c := range map[string]struct {
		values, tableFrom []string
		nulls             []bool
	}{
		"comments":                        {comments, comments, nil},
		"comments with NULLs":             {comments, comments, nullsEvery(len(comments), 7)},
		"awkward values, comment table":   {awkward, comments, nil},
		"awkward values, own table":       {awkward, awkward, nullsEvery(len(awkward), 5)},
		"comments and awkward, own table": {mixed, mixed, nullsEvery(len(mixed), 11)},
		"all NULL":                        {make([]string, 40), comments, nullsEvery(40, 1)},
		"one value":                       {[]string{"carefully final deposits"}, comments, nil},
	} {
		for _, comp := range []VectorCompressionType{FixedSizeByteAligned, BitPacked128} {
			plain := EncodeDictionary(c.values, c.nulls, comp)
			checkPacked(t, fmt.Sprintf("%s, %s", name, comp), plain, packedCopy(plain, c.tableFrom), probes)
		}
	}
}

// TestFSSTPacksOnlyWhatPays: a nil-spec seal keeps a dictionary's values packed
// exactly when the codes and the table need fewer bytes than the plain blob,
// builds the same table from the same values every time, and restore packs a
// plain snapshot by the same rule; a spec's seal keeps the plain blob.
func TestFSSTPacksOnlyWhatPays(t *testing.T) {
	seg := storage.ValueSegmentFromSlice(generate(5000, comment), nil)
	sealed, _ := Seal(seg, false, nil)
	again, _ := Seal(seg, false, nil)
	d := sealed.(*DictionarySegment[string])
	if ValueCompression(d) != "FSST" || d.strs.bytes() >= int64(len(packStrings(Summarize[string](seg).Values).blob)) {
		t.Fatalf("comments sealed %s at %d bytes of values", ValueCompression(d), d.strs.bytes())
	}
	if a, b := d.strs, again.(*DictionarySegment[string]).strs; *a.table != *b.table || a.blob != b.blob {
		t.Error("two seals of the same values built different tables")
	}
	spec, _ := SpecOf(sealed) // the codes the size model chose
	plain, _ := Seal(seg, false, &spec)
	if ValueCompression(plain) != "none" {
		t.Error("a spec's dictionary is packed")
	}
	if restored := roundTrip(t, plain); ValueCompression(restored) != "FSST" || restored.MemoryUsage() != sealed.MemoryUsage() {
		t.Errorf("a plain snapshot restores %s at %d bytes, a seal builds %d", ValueCompression(restored), restored.MemoryUsage(), sealed.MemoryUsage())
	}
	// Unique random bytes: the table and the escapes cost more than they save.
	var r lcg = 7
	random := generate(5000, func(int) string {
		var b [16]byte
		for i := range b {
			b[i] = byte(r.next() >> 56)
		}
		return string(b[:])
	})
	if sealed, _ := Seal(storage.ValueSegmentFromSlice(random, nil), false, nil); ValueCompression(sealed) != "none" {
		t.Errorf("random values sealed %s", ValueCompression(sealed))
	}
	// A blob no larger than a table is never tried.
	small := packStrings(generate(10, comment))
	if small.pack().table != nil {
		t.Error("a blob smaller than a table was packed")
	}
}

// TestFSSTDictionaryReadsAllocate: on a packed dictionary the bound searches
// and the scans allocate nothing per probe, and a gather allocates once.
func TestFSSTDictionaryReadsAllocate(t *testing.T) {
	values := generate(2000, comment)
	seg := EncodeDictionary(values, nullsEvery(len(values), 9), FixedSizeByteAligned)
	seg = packedCopy(seg, values)
	pos := make([]types.ChunkOffset, len(values))
	for i := range pos {
		pos[i] = types.ChunkOffset(len(values) - 1 - i)
	}
	out, nulls, dst := make([]string, len(values)), make([]bool, len(values)), make([]types.ChunkOffset, 0, len(values))
	var sink ValueID
	for name, c := range map[string]struct {
		read  func()
		limit float64
	}{
		"LowerBound/UpperBound/Find": {func() {
			for _, v := range values[:100] {
				id, _ := seg.Find(v)
				sink += seg.LowerBound(v) + seg.UpperBound(v) + id
			}
		}, 0},
		"ScanEncoded": {func() {
			for _, v := range values[:20] {
				for op := ScanEq; op <= ScanGe; op++ {
					dst, _, _ = seg.ScanEncoded(ScanPredicate{Op: op, Value: types.Str(v)}, dst[:0])
				}
			}
		}, 0},
		"Gather": {func() { seg.Gather(pos, nil, out, nulls) }, 1},
	} {
		if allocs := testing.AllocsPerRun(10, c.read); allocs > c.limit {
			t.Errorf("%s: %v allocations per run, want at most %v", name, allocs, c.limit)
		}
	}
	_ = sink
}

// TestCorruptFSSTDictionaryFailsDecode: restore rejects, and never panics on,
// a symbol table or codes that decoding would trust: symbol lengths outside
// 1–8, a code past the table, an escape that ends a value, values that do not
// ascend once decoded, codes above the NULL id and values that run past the
// input.
func TestCorruptFSSTDictionaryFailsDecode(t *testing.T) {
	table := &fsstTable{n: 2}
	table.syms[0], table.lens[0] = uint64('a')|uint64('b')<<8, 2 // code 0: "ab"
	table.syms[1], table.lens[1] = uint64('c'), 1                // code 1: "c"
	codes := CompressUints([]uint64{1, 0, 2}, FixedSizeByteAligned)
	segment := func(t *fsstTable, av UintVector, values ...string) []byte {
		p := packStrings(values)
		p.table = t
		buf, err := AppendSegment(nil, &DictionarySegment[string]{strs: p, av: av, nullID: ValueID(len(values))})
		if err != nil {
			panic(err)
		}
		return buf
	}
	valid := segment(table, codes, "\x00", "\x01") // "ab" < "c"
	if seg, _, err := DecodeSegment(valid); err != nil || seg.ValueAt(0).S != "c" {
		t.Fatalf("a valid packed dictionary: %v", err)
	}
	zeroLen, nineLen := *table, *table
	zeroLen.lens[1], nineLen.lens[1] = 0, 9
	for name, buf := range map[string][]byte{
		"symbol of 0 bytes":      segment(&zeroLen, codes, "\x00", "\x01"),
		"symbol of 9 bytes":      segment(&nineLen, codes, "\x00", "\x01"),
		"code past the table":    segment(table, codes, "\x00", "\x02"),
		"escape ends a value":    segment(table, codes, "\x00\xff", "\x01"),
		"values descend":         segment(table, codes, "\x01", "\x00"),
		"values repeat":          segment(table, codes, "\x00", "\xffa\xffb"),
		"code above the NULL id": segment(table, CompressUints([]uint64{1, 0, 3}, FixedSizeByteAligned), "\x00", "\x01"),
		"values past the input":  valid[:len(valid)-6],
		"table past the input":   valid[:4],
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: decode panics: %v", name, r)
				}
			}()
			if _, _, err := DecodeSegment(buf); err == nil {
				t.Errorf("%s: decodes without an error", name)
			}
		}()
	}
}

// FuzzFSSTDictionary packs arbitrary values — data split at sep, a value that
// starts with 0xFE NULL — with a table built from them, holds the packed
// dictionary against the plain one on every read path, with the ends of both
// in either code vector, then overwrites one byte of its snapshot: the read
// fails or yields a segment whose reads do not panic.
func FuzzFSSTDictionary(f *testing.F) {
	f.Add([]byte(strings.Join(generate(60, comment), "|")), byte('|'), uint16(40), byte(0xff))
	f.Add([]byte("a\x00b|\x00||\xc3\x28|\xfe|zz|\xff\xff\xff"), byte('|'), uint16(3), byte(9))
	f.Add([]byte("1994-01-01,1994-01-02,1995-12-31,1992-06-15"), byte(','), uint16(7), byte(0))
	f.Add([]byte{}, byte('|'), uint16(3), byte('.')) // one empty value: an empty blob to sample
	f.Fuzz(func(t *testing.T, data []byte, sep byte, at uint16, b byte) {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		values := strings.Split(string(data), string([]byte{sep}))
		nulls := make([]bool, len(values))
		for i, v := range values {
			nulls[i] = strings.HasPrefix(v, "\xfe")
		}
		var packed *DictionarySegment[string]
		for _, ends := range []VectorCompressionType{FixedSizeByteAligned, BitPacked128} {
			plain := withEnds(EncodeDictionary(values, nulls, FixedSizeByteAligned), ends)
			packed = withEnds(packedCopy(plain, values), ends)
			checkPacked(t, ends.String(), plain, packed, append(values[:min(len(values), 16):min(len(values), 16)], "", "\x00", "\xff"))
		}
		buf, err := AppendSegment(nil, packed)
		if err != nil {
			t.Fatal(err)
		}
		buf[int(at)%len(buf)] = b
		readAll(t, buf)
		if seg, _, err := DecodeSegment(buf); err == nil {
			if d, ok := seg.(*DictionarySegment[string]); ok && d.Len() > 0 {
				d.DecodeAll()
				d.Gather([]types.ChunkOffset{0}, nil, make([]string, 1), make([]bool, 1))
				d.LowerBound("\x00")
				Summarize[string](d)
			}
		}
	})
}
