package encoding

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// bp128Codes draws n codes whose 128-code blocks are w bits wide, every third
// block narrower, so that widths change between blocks.
func bp128Codes(rng *rand.Rand, n, w int) []uint64 {
	codes := make([]uint64, n)
	for i := range codes {
		bw := w
		if i/bp128BlockSize%3 == 2 {
			bw = max(1, w/2)
		}
		codes[i] = rng.Uint64() & mask(uint(bw))
		if i%bp128BlockSize == 7 {
			codes[i] = mask(uint(bw)) // the block's full width
		}
	}
	return codes
}

// positionSets are the gathers a segment of n rows is read at: every row,
// a run inside it, dense ascending rows with gaps, sparse ones, an unordered
// dense list, repeats, none.
func positionSets(rng *rand.Rand, n int) map[string][]types.ChunkOffset {
	sets := map[string][]types.ChunkOffset{"none": nil}
	all := make([]types.ChunkOffset, n)
	for i := range all {
		all[i] = types.ChunkOffset(i)
	}
	sets["all"] = all
	if n == 0 {
		return sets
	}
	lo := rng.Intn(n)
	sets["run"] = all[lo : lo+rng.Intn(n-lo)+1]
	for i := range all {
		if i%7 < 4 {
			sets["dense"] = append(sets["dense"], types.ChunkOffset(i))
		}
		if rng.Intn(40) == 0 {
			sets["sparse"] = append(sets["sparse"], types.ChunkOffset(i))
		}
	}
	shuffled := slices.Clone(all)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	sets["unordered"] = shuffled
	sets["repeats"] = []types.ChunkOffset{0, 0, types.ChunkOffset(n - 1), types.ChunkOffset(n / 2), types.ChunkOffset(n / 2)}
	// As many rows as it spans, but one repeated: a gather that starts on
	// the run path and leaves it there.
	repeat := slices.Clone(all)
	repeat[n/2] = repeat[max(n/2-1, 0)]
	sets["a repeat in a run"] = repeat
	return sets
}

// TestDiffBP128Kernels holds every block-wise read of a bit-packed vector
// against GetFast, one code at a time: unpack64 on each full 64-code group,
// group and DecodeAll, the fused range matches of dictionaries and
// frames of reference (the NULL id and NULL rows among the codes), and the
// gathers at every kind of position list, into rows in order and scattered
// by slots — for every width 1..64 and lengths that are no multiple of 64 or
// 128, empty and one-row vectors among them.
func TestDiffBP128Kernels(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, n := range []int{0, 1, 63, 64, 200, 1000, 2100} {
		for w := 1; w <= 64; w++ {
			codes := bp128Codes(rng, n, w)
			v := NewBP128Vector(codes)
			want := make([]uint64, n)
			for i := range want {
				if want[i] = v.GetFast(i); want[i] != codes[i] {
					t.Fatalf("n=%d w=%d: GetFast(%d) = %d, packed %d", n, w, i, want[i], codes[i])
				}
			}
			for g := 0; (g+1)*64 <= n; g++ {
				var buf [64]uint64
				gw := uint(v.blockBits[g/2])
				words := v.words[int(v.blockStart[g/2])+g%2*int(gw):]
				unpack64(words, gw, &buf)
				if !slices.Equal(buf[:], want[g*64:g*64+64]) {
					t.Fatalf("n=%d w=%d: unpack64 of group %d differs from GetFast", n, w, g)
				}
				// The same group read word by word, as when no word follows it.
				unpack64(words[:gw:gw], gw, &buf)
				if !slices.Equal(buf[:], want[g*64:g*64+64]) {
					t.Fatalf("n=%d w=%d: unpack64 of group %d without a word after differs from GetFast", n, w, g)
				}
			}
			for g := 0; g*64 < n; g++ {
				var buf [64]uint64
				if got := v.group(g, &buf); !slices.Equal(got, want[g*64:min(g*64+64, n)]) {
					t.Fatalf("n=%d w=%d: group %d differs from GetFast", n, w, g)
				}
			}
			if got := v.DecodeAll(nil); !slices.Equal(got, want) {
				t.Fatalf("n=%d w=%d: DecodeAll differs from GetFast", n, w)
			}
			diffFrameOfReference(t, rng, n, w)
		}
		for _, distinct := range []int{1, 2, 100, 300, 5000} {
			diffDictionary(t, rng, n, distinct)
		}
	}
}

// diffFrameOfReference builds a frame-of-reference segment over bit-packed
// offsets up to w bits wide and holds its range scans, not-equal scans and
// gathers against GetFast.
func diffFrameOfReference(t *testing.T, rng *rand.Rand, n, w int) {
	t.Helper()
	offsets := bp128Codes(rng, n, w)
	values, nulls := make([]int64, n), make([]bool, n)
	for i, o := range offsets {
		values[i] = math.MinInt64 + int64(o) // each frame is MinInt64 or the least offset above it
		nulls[i] = rng.Intn(9) == 0
	}
	for _, nulls := range [][]bool{nil, nulls} {
		s := EncodeFrameOfReference(values, nulls, BitPacked128)
		v := s.offsets.(*BP128Vector)
		if n >= bp128BlockSize && nulls == nil && int(slices.Max(v.blockBits)) != w {
			t.Fatalf("n=%d w=%d: offsets packed %d bits wide at most", n, w, slices.Max(v.blockBits))
		}
		code := func(i int) (uint64, bool) { return v.GetFast(i), nulls != nil && nulls[i] }
		for b := range s.frames {
			first, last := b*forBlockSize, min((b+1)*forBlockSize, n)
			for range 4 {
				loCode, hiCode := rng.Uint64()&mask(uint(w)), rng.Uint64()&mask(uint(w))
				if loCode > hiCode {
					loCode, hiCode = hiCode, loCode
				}
				var want []types.ChunkOffset
				for i := first; i < last; i++ {
					if c, null := code(i); !null && loCode <= c && c <= hiCode {
						want = append(want, types.ChunkOffset(i))
					}
				}
				if got := scanFORBlock(s, first, last, loCode, hiCode, nil); !slices.Equal(got, want) {
					t.Fatalf("n=%d w=%d nulls=%v: block %d codes in [%d, %d] = %v, GetFast %v", n, w, nulls != nil, b, loCode, hiCode, got, want)
				}
				target, _ := code(first + rng.Intn(last-first))
				want = want[:0]
				for i := first; i < last; i++ {
					if c, null := code(i); !null && c != target {
						want = append(want, types.ChunkOffset(i))
					}
				}
				if got := scanFORBlockNe(s, first, last, target, nil); !slices.Equal(got, want) {
					t.Fatalf("n=%d w=%d nulls=%v: block %d codes <> %d = %v, GetFast %v", n, w, nulls != nil, b, target, got, want)
				}
			}
		}
		diffGathers(t, rng, n, func(pos []types.ChunkOffset, slots []int32, out []int64, outNulls []bool) {
			s.Gather(pos, slots, out, outNulls)
		}, func(p types.ChunkOffset) (int64, bool) {
			c, null := code(int(p))
			if null {
				return 0, true
			}
			return s.frames[int(p)/forBlockSize] + int64(c), false
		})
	}
}

// diffDictionary builds a dictionary of distinct int64 values over bit-packed
// codes, NULLs among the rows, and holds its id-range scans, the not-equal
// scan and its gathers against GetFast.
func diffDictionary(t *testing.T, rng *rand.Rand, n, distinct int) {
	t.Helper()
	values, nulls := make([]int64, n), make([]bool, n)
	for i := range values {
		values[i] = int64(rng.Intn(distinct)) * 3
		nulls[i] = rng.Intn(11) == 0
	}
	s := EncodeDictionary(values, nulls, BitPacked128)
	v := s.av.(*BP128Vector)
	nullID := uint64(s.nullID)
	for range 8 {
		lo, hi := ValueID(rng.Intn(int(nullID)+2)), ValueID(rng.Intn(int(nullID)+2))
		if rng.Intn(4) == 0 {
			lo, hi = s.nullID, s.nullID+1 // IS NULL
		}
		var in, out []types.ChunkOffset
		for i := range n {
			id := v.GetFast(i)
			if uint64(lo) <= id && id < uint64(hi) {
				in = append(in, types.ChunkOffset(i))
			}
			if (id < uint64(lo) || id >= uint64(hi)) && id != nullID {
				out = append(out, types.ChunkOffset(i))
			}
		}
		if got := s.Matches(lo, hi, nil); !slices.Equal(got, in) {
			t.Fatalf("n=%d distinct=%d: ids in [%d, %d) = %v, GetFast %v", n, distinct, lo, hi, got, in)
		}
		if lo > hi {
			continue // matchesOutside takes the bounds of an equality probe
		}
		if got := s.matchesOutside(lo, hi, nil); !slices.Equal(got, out) {
			t.Fatalf("n=%d distinct=%d: ids outside [%d, %d) = %v, GetFast %v", n, distinct, lo, hi, got, out)
		}
	}
	diffGathers(t, rng, n, func(pos []types.ChunkOffset, slots []int32, out []int64, outNulls []bool) {
		s.Gather(pos, slots, out, outNulls)
	}, func(p types.ChunkOffset) (int64, bool) {
		if id := v.GetFast(int(p)); id != nullID {
			return s.dict[id], false
		}
		return 0, true
	})
	// A string dictionary gathers through the cursor alone.
	strs := storage.ValueSegmentFromSlice(generate(n, func(i int) string { return string(rune('a' + values[i]%26)) }), nulls)
	ss := EncodeDictionary(strs.Values(), strs.Nulls(), BitPacked128)
	for name, pos := range positionSets(rng, n) {
		got, gotNulls := make([]string, len(pos)), make([]bool, len(pos))
		ss.Gather(pos, nil, got, gotNulls)
		for i, p := range pos {
			if want, null := ss.Get(p); gotNulls[i] != null || got[i] != want {
				t.Fatalf("n=%d distinct=%d %s: string row %d = %q/%v, want %q/%v", n, distinct, name, p, got[i], gotNulls[i], want, null)
			}
		}
	}
}

// diffGathers runs gather at every position set of n rows, into rows in order
// and, through slots, scattered over a larger output, and holds each row
// against want.
func diffGathers(t *testing.T, rng *rand.Rand, n int, gather func([]types.ChunkOffset, []int32, []int64, []bool), want func(types.ChunkOffset) (int64, bool)) {
	t.Helper()
	for name, pos := range positionSets(rng, n) {
		for _, scattered := range []bool{false, true} {
			size := len(pos)
			var slots []int32
			if scattered {
				size = 2*len(pos) + 1
				slots = make([]int32, len(pos))
				for i, r := range rng.Perm(size)[:len(pos)] {
					slots[i] = int32(r)
				}
			}
			out, outNulls := make([]int64, size), make([]bool, size)
			gather(pos, slots, out, outNulls)
			for i, p := range pos {
				i := slotOf(slots, i)
				if v, null := want(p); outNulls[i] != null || (!null && out[i] != v) {
					t.Fatalf("n=%d %s (slots=%v): row %d = %d/%v, want %d/%v", n, name, scattered, p, out[i], outNulls[i], v, null)
				}
			}
		}
	}
}

// TestBP128SealedBytesSurviveRestore: a bit-packed vector holds exactly the
// words its blocks need, so a segment the size model sealed over one and the
// same segment restored from its snapshot bytes report the same MemoryUsage —
// the bytes the model predicted. 25 000 codes of 6 and of 17 bits, a
// dictionary's and a decimal column's.
func TestBP128SealedBytesSurviveRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const n = 25_000
	for name, seg := range map[string]storage.Segment{
		"dictionary": storage.ValueSegmentFromSlice(generate(n, func(int) int64 { return int64(rng.Intn(64)) * 1000 }), nil),
		"decimal":    storage.ValueSegmentFromSlice(generate(n, func(int) float64 { return float64(rng.Intn(100_000)) / 100 }), nil),
	} {
		sealed, _ := Seal(seg, false, nil)
		spec, _ := SpecOf(sealed)
		if spec.Compression != BitPacked128 {
			t.Fatalf("%s: sealed as %s, want bit-packed codes", name, spec)
		}
		restored := roundTrip(t, sealed)
		predicted, _ := SizesOf(seg)
		if got, want := restored.MemoryUsage(), sealed.MemoryUsage(); got != want || want != predicted[spec.Encoding] {
			t.Errorf("%s: restored segment uses %d bytes, sealed %d, predicted %d", name, got, want, predicted[spec.Encoding])
		}
	}
}
