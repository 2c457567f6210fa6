package encoding

import (
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"
	"unsafe"
)

// A string dictionary's values compress inside each value with FSST ("Fast
// Static Symbol Table", Boncz, Neumann, Leis, VLDB 2020): a table of at most
// 255 symbols of 1 to 8 bytes, each written as its one-byte code, where code
// 255 escapes the one literal byte that follows it. A value decodes on its own
// from its codes and the table, so random access survives. A seal keeps a
// dictionary packed only when the codes plus the table need fewer bytes than
// the plain blob (packedStrings.pack).

const (
	fsstEscape      = 255      // the code that escapes one literal byte
	fsstSampleBytes = 16 << 10 // the most of a dictionary's values a table is built from
	fsstLineBytes   = 512      // the most of one value the sample takes
	fsstGenerations = 5        // rounds of counting the sample and picking symbols
)

// fsstTable is a symbol table: code c < n stands for the lens[c] low-order
// bytes of syms[c], little-endian, the bytes above them zero.
type fsstTable struct {
	syms [256]uint64
	lens [256]uint8
	n    int
}

// fsstTableBytes is what a table costs beside the codes, however few symbols it
// holds. A blob no larger is never packed.
const fsstTableBytes = int64(unsafe.Sizeof(fsstTable{}))

// decodedLen is the length of the value codes stands for.
func (t *fsstTable) decodedLen(codes string) int {
	n := 0
	for i := 0; i < len(codes); i++ {
		if c := codes[i]; c == fsstEscape {
			i++
			n++
		} else {
			n += int(t.lens[c])
		}
	}
	return n
}

// decode appends the value codes stands for to dst. Each symbol is one 8-byte
// store, so dst must have room for 8 bytes past the value.
func (t *fsstTable) decode(dst []byte, codes string) []byte {
	n, buf := len(dst), dst[:cap(dst)]
	for i := 0; i < len(codes); i++ {
		c := codes[i]
		if c == fsstEscape {
			i++
			buf[n] = codes[i]
			n++
			continue
		}
		binary.LittleEndian.PutUint64(buf[n:], t.syms[c])
		n += int(t.lens[c])
	}
	return buf[:n]
}

// stringOf is b as a string without a copy: b must never change again.
func stringOf(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// load64 is the 8 bytes of s from i on, little-endian, zeros past its end.
func load64(s string, i int) uint64 {
	if i+8 <= len(s) {
		s = s[i : i+8]
		return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
	}
	var w uint64
	for k := len(s) - 1; k >= i; k-- {
		w = w<<8 | uint64(s[k])
	}
	return w
}

// fsstMatcher finds the longest symbol of a table that the input starts with
// at a position, with at most three lookups as in FSST: the one symbol of three
// or more bytes whose first three bytes hash to a slot (a table holds at most
// one per slot), else the symbol of the first two bytes, else of the first
// byte. The arrays hold code+1, 0 for none.
type fsstMatcher struct {
	t      *fsstTable
	long   [fsstSlots]uint8
	short  [1 << 16]uint8
	single [256]uint8
}

// fsstSlots is the number of hash slots for symbols of three or more bytes.
const fsstSlots = 1 << 12

// fsstSlot is the hash slot of the first three bytes of w.
func fsstSlot(w uint64) uint32 { return uint32(w&0xFFFFFF) * 2654435761 >> 20 }

func (m *fsstMatcher) reset(t *fsstTable) {
	m.t = t
	clear(m.long[:])
	clear(m.short[:])
	clear(m.single[:])
	for c := range t.n {
		switch sym := t.syms[c]; t.lens[c] {
		case 1:
			m.single[byte(sym)] = uint8(c + 1)
		case 2:
			m.short[uint16(sym)] = uint8(c + 1)
		default:
			m.long[fsstSlot(sym)] = uint8(c + 1)
		}
	}
}

// match returns the code and the length of the longest symbol that the first
// r > 0 bytes of w (little-endian) start with, or -1 and 1 for an escape.
func (m *fsstMatcher) match(w uint64, r int) (int, int) {
	if c := int(m.long[fsstSlot(w)]) - 1; c >= 0 {
		if n := int(m.t.lens[c]); n <= r && (w^m.t.syms[c])<<(64-8*n) == 0 {
			return c, n
		}
	}
	if c := int(m.short[uint16(w)]) - 1; c >= 0 && r >= 2 {
		return c, 2
	}
	return int(m.single[byte(w)]) - 1, 1
}

// compress appends the codes of blob[from:to] to dst. Bytes past to may be
// loaded, never matched.
func (m *fsstMatcher) compress(dst []byte, blob string, from, to int) []byte {
	for pos := from; pos < to; {
		w := load64(blob, pos)
		c, n := m.match(w, to-pos)
		if c < 0 {
			dst = append(dst, fsstEscape, byte(w))
		} else {
			dst = append(dst, byte(c))
		}
		pos += n
	}
	return dst
}

// packAll compresses every value of p with the table b built, into b's codes
// buffer: p itself as soon as the codes reach limit bytes.
func (b *fsstBuilder) packAll(p packedStrings, limit int) packedStrings {
	b.codes = b.codes[:0]
	ends := make([]uint64, p.n())
	for id := range ends {
		from, to := p.span(uint64(id))
		if b.codes = b.m.compress(b.codes, p.blob, from, to); len(b.codes) >= limit {
			return p
		}
		ends[id] = uint64(len(b.codes))
	}
	return packedStrings{blob: string(b.codes), ends: packEnds(ends, blockMaxima(ends)), table: b.m.t}
}

// pack returns p with its values FSST-compressed when the codes, their ends
// and the table need fewer bytes than the plain blob and its ends, else p. A
// blob no larger than a table is not tried.
func (p packedStrings) pack() packedStrings {
	if p.table != nil || int64(len(p.blob)) <= fsstTableBytes {
		return p
	}
	b := fsstBuilders.Get().(*fsstBuilder)
	defer fsstBuilders.Put(b)
	b.build(p)
	if packed := b.packAll(p, int(p.bytes()-fsstTableBytes)); packed.bytes() < p.bytes() {
		return packed
	}
	return p
}

// fsstSymbol is a candidate symbol and the bytes it would save.
type fsstSymbol struct {
	sym  uint64
	n    int
	gain int
}

// fsstBuilder counts how a table encodes the sample: codes 0–255 stand for the
// literal bytes, 256+c for symbol c; count1 counts each code, count2 each pair
// of codes in a row. A build leaves the counters zero, so builders are reused
// as they are.
type fsstBuilder struct {
	m       fsstMatcher
	count1  [512]int32
	count2  [512 * 512]uint16 // the sample's 16 KB bound keeps each below 2^16
	touched []int32           // the pairs count2 holds, in the order first seen
	cands   []fsstSymbol
	slots   []int32
	codes   []byte // what packAll compresses into
}

var fsstBuilders = sync.Pool{New: func() any { return new(fsstBuilder) }}

// build builds a table for p's values and resets b.m to it. Each of
// five rounds encodes a growing share of a sample of the values with the table
// so far — 8/128 of it first, all of it last, as in FSST — and keeps the 255
// candidates that save the most: the symbols and bytes it used, and pairs of
// them joined (up to 8 bytes), each counted often enough for its share.
// Nothing depends on anything but the values, so the same values always get
// the same table.
func (b *fsstBuilder) build(p packedStrings) {
	sample := fsstSample(p)
	t := new(fsstTable)
	for gen := range fsstGenerations {
		frac := 8 + 30*gen // of 128: the share of the sample this round counts
		b.m.reset(t)
		b.count(p.blob, sample, frac, gen < fsstGenerations-1)
		t = b.pick(t, max(1, 5*frac/128))
	}
	b.m.reset(t)
}

// fsstSample is what a table is built from, as [from, to) ranges of the blob:
// the first fsstLineBytes of every k-th value, k chosen for about
// fsstSampleBytes, cut off at that many.
func fsstSample(p packedStrings) [][2]int {
	lines := 0
	for id := range p.n() {
		from, to := p.span(uint64(id))
		lines += min(to-from, fsstLineBytes)
	}
	k := max(1, (lines+fsstSampleBytes-1)/fsstSampleBytes)
	var out [][2]int
	for id, budget := 0, fsstSampleBytes; id < p.n() && budget > 0; id += k {
		from, to := p.span(uint64(id))
		to = min(to, from+fsstLineBytes, from+budget)
		budget -= to - from
		out = append(out, [2]int{from, to})
	}
	return out
}

// count encodes the frac/128 of the sample that a fixed spread of its values
// makes up with the matcher's table, counting every code used beside the first
// byte of each longer symbol and, with pairs, every code and every first byte
// that follows a code.
func (b *fsstBuilder) count(blob string, sample [][2]int, frac int, pairs bool) {
	for i, v := range sample {
		if i*37%128 >= frac {
			continue
		}
		prev := -1
		for pos := v[0]; pos < v[1]; {
			w := load64(blob, pos)
			c, n := b.m.match(w, v[1]-pos)
			code := int(byte(w))
			if c >= 0 {
				code = 256 + c
			}
			b.count1[code]++
			if n > 1 {
				b.count1[byte(w)]++
			}
			if pairs && prev >= 0 {
				b.pair(prev, code)
				if n > 1 {
					b.pair(prev, int(byte(w)))
				}
			}
			prev, pos = code, pos+n
		}
	}
}

func (b *fsstBuilder) pair(c1, c2 int) {
	i := int32(c1<<9 | c2)
	if b.count2[i] == 0 {
		b.touched = append(b.touched, i)
	}
	b.count2[i]++
}

// pick returns the next table and leaves the counters zero. A candidate
// counted fewer than minCount times is not one. A candidate's gain is the bytes
// it covers in the sample, eight times that for a one-byte symbol, which saves
// an escape each time. Candidates that are the same bytes add up; the best 255
// win, ties broken by their bytes, except that a symbol of three or more bytes
// whose hash slot a better one holds is left out. Only the highest
// power-of-two bands of gain that hold twice 255 of them are sorted.
func (b *fsstBuilder) pick(old *fsstTable, minCount int) *fsstTable {
	symbol := func(code int) (uint64, int) {
		if code < 256 {
			return uint64(code), 1
		}
		return old.syms[code-256], int(old.lens[code-256])
	}
	cands := b.cands[:0]
	for code := range 256 + old.n {
		cnt := int(b.count1[code])
		b.count1[code] = 0
		if cnt < minCount {
			continue
		}
		sym, n := symbol(code)
		gain := cnt * n
		if n == 1 {
			gain *= 8
		}
		cands = append(cands, fsstSymbol{sym, n, gain})
	}
	for _, i := range b.touched {
		cnt := int(b.count2[i])
		b.count2[i] = 0
		s1, n1 := symbol(int(i >> 9))
		if cnt < minCount || n1 == 8 {
			continue
		}
		s2, n2 := symbol(int(i & 511))
		sym, n := s1|s2<<(8*n1), min(8, n1+n2)
		if n < 8 {
			sym &= 1<<(8*n) - 1
		}
		cands = append(cands, fsstSymbol{sym, n, cnt * n})
	}
	b.touched = b.touched[:0]
	merged := b.merge(cands)
	var bands [64]int
	for _, c := range merged {
		bands[bits.Len(uint(c.gain))]++
	}
	floor := len(bands)
	for kept := 0; floor > 0 && kept < 2*fsstEscape; kept += bands[floor] {
		floor--
	}
	best := merged[:0]
	for _, c := range merged {
		if bits.Len(uint(c.gain)) >= floor {
			best = append(best, c)
		}
	}
	slices.SortFunc(best, func(a, b fsstSymbol) int {
		if a.gain != b.gain {
			return cmp.Compare(b.gain, a.gain)
		}
		return cmp.Or(cmp.Compare(bits.ReverseBytes64(a.sym), bits.ReverseBytes64(b.sym)), cmp.Compare(a.n, b.n)) // their bytes
	})
	t := new(fsstTable)
	var taken [fsstSlots]bool
	for _, c := range best {
		if t.n == fsstEscape {
			break
		}
		if c.n >= 3 {
			if taken[fsstSlot(c.sym)] {
				continue
			}
			taken[fsstSlot(c.sym)] = true
		}
		t.syms[t.n], t.lens[t.n] = c.sym, uint8(c.n)
		t.n++
	}
	b.cands = cands
	return t
}

// merge adds up the gains of the candidates that are the same bytes, in
// place, keeping the first of each: slots is an open-addressing table of their
// positions.
func (b *fsstBuilder) merge(cands []fsstSymbol) []fsstSymbol {
	bitsUsed := bits.Len(uint(2 * len(cands)))
	mask := uint64(1)<<bitsUsed - 1
	b.slots = slices.Grow(b.slots[:0], int(mask+1))[:mask+1]
	clear(b.slots)
	merged := cands[:0]
	for _, c := range cands {
		h := (c.sym ^ uint64(c.n)<<59) * 0x9E3779B97F4A7C15 >> (64 - bitsUsed)
		for ; ; h = (h + 1) & mask {
			if j := b.slots[h]; j == 0 {
				b.slots[h] = int32(len(merged) + 1)
				merged = append(merged, c)
			} else if m := &merged[j-1]; m.sym != c.sym || m.n != c.n {
				continue
			} else {
				m.gain += c.gain
			}
			break
		}
	}
	return merged
}
