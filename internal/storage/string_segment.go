package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"unsafe"

	"hyrise/internal/types"
)

// maxStringBytes bounds a string segment's blob: its offsets are 32-bit.
var maxStringBytes = math.MaxUint32

// StringSegment is the unencoded string column of a stored chunk: one
// pointer-free blob of entries — a row's length as a uvarint, then its bytes,
// which is what encoding.AppendString writes — and a 4-byte offset per row to
// its entry. A NULL row's entry is empty. Entries are only appended, so a
// written byte never changes: reads return substrings of the blob without
// copying, and a view shares it. The offsets grow toward the chunk size like a
// value segment's arrays (growTo); the blob keeps pace with them, allocated
// exactly as growTo allocates, so a tail costs about its rows' bytes.
type StringSegment struct {
	blob []byte
	offs []uint32
	flags
}

// NewStringSegment creates an empty string segment that will hold up to
// capacity rows. Like NewValueSegment it allocates nothing up front.
func NewStringSegment(capacity int, nullable bool) *StringSegment {
	return &StringSegment{flags: flags{nullable: nullable, limit: capacity}}
}

// StringSegmentOf lays values out in a segment of exactly their rows; nulls
// may be nil for a NOT NULL column.
func StringSegmentOf(values []string, nulls []bool) *StringSegment {
	s := NewStringSegment(0, nulls != nil)
	for i, v := range values {
		if err := s.Append(v, nulls != nil && nulls[i]); err != nil {
			panic(err) // more than a segment holds: values no segment gave
		}
	}
	return s.Clipped()
}

// ReadStringEntries reads n entries as AppendEntries writes them off the front
// of buf into a segment of their own, nulls (nil or n flags) as they are: one
// copy of their bytes and one offset array. It returns the bytes after them.
func ReadStringEntries(buf []byte, n int, nulls []bool, nullable bool) (*StringSegment, []byte, error) {
	if n < 0 || n > len(buf) || nulls != nil && len(nulls) != n {
		return nil, nil, fmt.Errorf("storage: %d string entries do not fit %d bytes and %d NULL flags", n, len(buf), len(nulls))
	}
	offs, end := make([]uint32, n), 0
	for i := range offs {
		size, w := binary.Uvarint(buf[end:])
		if w <= 0 || size > uint64(len(buf)-end-w) || end > maxStringBytes {
			return nil, nil, fmt.Errorf("storage: string entry %d of %d runs past the input", i, n)
		}
		offs[i] = uint32(end)
		end += w + int(size)
	}
	if end > maxStringBytes {
		return nil, nil, fmt.Errorf("storage: string entries pass %d bytes", maxStringBytes)
	}
	s := &StringSegment{blob: append(make([]byte, 0, end), buf[:end]...), offs: offs, flags: flags{nulls: nulls, nullable: nullable}}
	return s, buf[end:], nil
}

// StringEntrySize is the bytes of a string segment's entry of n bytes.
func StringEntrySize(n int) int {
	w := 1
	for x := uint64(n); x >= 0x80; x >>= 7 {
		w++
	}
	return w + n
}

func appendEntry[S string | []byte](blob []byte, v S) []byte {
	return append(binary.AppendUvarint(blob, uint64(len(v))), v...)
}

// entry returns the bytes of the entry at off, and where the entry ends.
func (s *StringSegment) entry(off uint32) (v []byte, end int) {
	b := s.blob[off:]
	n, w := uint64(b[0]), 1
	if n >= 0x80 {
		n, w = binary.Uvarint(b)
	}
	return b[w : w+int(n)], int(off) + w + int(n)
}

// fits reports an error if a row of n bytes would take the blob past what
// 32-bit offsets address.
func (s *StringSegment) fits(n int) error {
	if StringEntrySize(n) > maxStringBytes-len(s.blob) {
		return fmt.Errorf("storage: a string segment holds at most %d bytes; a row of %d bytes does not fit after %d", maxStringBytes, n, len(s.blob))
	}
	return nil
}

// Append adds a row to the end of the segment; a row that does not fit the
// blob (fits) is an error and leaves the segment as it was.
func (s *StringSegment) Append(v string, null bool) error {
	if null {
		v = ""
	}
	if err := s.fits(len(v)); err != nil {
		return err
	}
	if len(s.offs) == cap(s.offs) {
		s.offs = growTo(s.offs, s.limit)
	}
	if need := len(s.blob) + StringEntrySize(len(v)); need > cap(s.blob) {
		// Room for the rows the offsets have room for, at the bytes a row took
		// so far; a quarter more at least, as append grows.
		grown := max(need, len(s.blob)*cap(s.offs)/max(len(s.offs), 1), len(s.blob)+len(s.blob)/4)
		s.blob = append(make([]byte, 0, grown), s.blob...)
	}
	s.add(null, len(s.offs), cap(s.offs))
	s.offs = append(s.offs, uint32(len(s.blob)))
	s.blob = appendEntry(s.blob, v)
	return nil
}

// with returns the segment with row i set to (v, null): a new entry at the end
// of the blob, which the row's offset moves to, in s itself when fresh is
// false, else in a copy whose offsets (and flags) are new arrays. The blob is
// shared: the copy appends past every byte the views of s read. The row's old
// entry stays, unread. The caller has checked that v fits.
func (s *StringSegment) with(i types.ChunkOffset, v string, null, fresh bool) *StringSegment {
	if null {
		v = ""
	}
	if fresh {
		s = &StringSegment{blob: s.blob, offs: append(make([]uint32, 0, cap(s.offs)), s.offs...), flags: s.flags}
	}
	s.set(i, null, fresh, len(s.offs), cap(s.offs))
	s.offs[i] = uint32(len(s.blob))
	s.blob = appendEntry(s.blob, v)
	return s
}

// reserve gives an empty segment room for n rows' offsets and, if a bulk load
// can tell, for their bytes up front.
func (s *StringSegment) reserve(n, bytes int) {
	s.offs, s.blob = make([]uint32, 0, n), make([]byte, 0, bytes)
}

// AppendEntries appends every row's entry to dst in row order: runs of rows
// whose entries lie end to end in the blob as one copy each.
func (s *StringSegment) AppendEntries(dst []byte) []byte {
	start, end := 0, 0
	for _, off := range s.offs {
		if int(off) != end {
			dst = append(dst, s.blob[start:end]...)
			start = int(off)
		}
		_, end = s.entry(off)
	}
	return append(dst, s.blob[start:end]...)
}

// Clipped returns the segment as a sealed chunk keeps it: its entries in row
// order without spare capacity or entries no row reads, NULL flags only if
// some row is NULL.
func (s *StringSegment) Clipped() *StringSegment {
	f := s.clipped()
	cp, _, err := ReadStringEntries(s.AppendEntries(nil), len(s.offs), f.nulls, f.nullable)
	if err != nil {
		panic(err) // a segment's own entries
	}
	return cp
}

// Offsets exposes each row's offset into the blob (Blob).
func (s *StringSegment) Offsets() []uint32 { return s.offs }

// Blob exposes the entries the offsets address, read-only.
func (s *StringSegment) Blob() []byte { return s.blob }

// view is ValueSegment.view: the first size offsets and flags, and the blob
// as far as it is written, which no append changes.
func (s *StringSegment) view(size int, sealed, all bool) Segment {
	if sealed && !s.zeros(all) {
		return s
	}
	size = min(size, len(s.offs))
	return &StringSegment{blob: s.blob[:len(s.blob):len(s.blob)], offs: s.offs[:size:size], flags: s.viewOf(size, all)}
}

// At returns row i's string, a substring of the blob ("" for NULL).
func (s *StringSegment) At(i int) string {
	v, _ := s.entry(s.offs[i])
	return unsafe.String(unsafe.SliceData(v), len(v))
}

// Strings returns rows [lo, hi) as substrings of the blob ("" for NULL).
func (s *StringSegment) Strings(lo, hi int) []string {
	out := make([]string, hi-lo)
	for i := range out {
		out[i] = s.At(lo + i)
	}
	return out
}

// Get returns the value and null flag at i (static access path).
func (s *StringSegment) Get(i types.ChunkOffset) (string, bool) {
	if s.IsNullAt(i) {
		return "", true
	}
	return s.At(int(i)), false
}

// DataType implements Segment.
func (s *StringSegment) DataType() types.DataType { return types.TypeString }

// Len implements Segment.
func (s *StringSegment) Len() int { return len(s.offs) }

// ValueAt implements Segment (dynamic path).
func (s *StringSegment) ValueAt(i types.ChunkOffset) types.Value {
	if v, null := s.Get(i); !null {
		return types.Str(v)
	}
	return types.NullValue
}

// MemoryUsage implements Segment: the offsets, the blob and the flags.
func (s *StringSegment) MemoryUsage() int64 {
	return 4*int64(cap(s.offs)) + int64(cap(s.blob)) + int64(cap(s.nulls))
}

// zone is ZoneOf over the rows, its bounds copied out of the blob.
func (s *StringSegment) zone() Zone {
	var z Zone
	for i := range s.offs {
		if (s.nulls == nil || !s.nulls[i]) && include(&z, &z.Min.S, &z.Max.S, s.At(i)) && z.Ascending == i {
			z.Ascending++
		}
	}
	z.Min.S, z.Max.S = strings.Clone(z.Min.S), strings.Clone(z.Max.S)
	return z
}
