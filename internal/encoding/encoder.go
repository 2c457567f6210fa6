package encoding

import (
	"fmt"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// EncodingType selects the logical encoding scheme of a segment.
type EncodingType uint8

const (
	// Unencoded leaves the plain value segment in place.
	Unencoded EncodingType = iota
	// Dictionary applies order-preserving dictionary encoding.
	Dictionary
	// RunLength applies run-length encoding.
	RunLength
	// FrameOfReference applies frame-of-reference encoding to int64 columns
	// and to float64 columns of exact decimals, as their integers and an
	// exponent (DecimalSegment); other columns fall back to Dictionary.
	FrameOfReference
)

// String names the encoding like the paper does.
func (e EncodingType) String() string {
	switch e {
	case Unencoded:
		return "Unencoded"
	case Dictionary:
		return "Dictionary"
	case RunLength:
		return "RunLength"
	case FrameOfReference:
		return "FrameOfReference"
	default:
		return "?"
	}
}

// ParseEncodingType parses a command-line encoding name.
func ParseEncodingType(s string) (EncodingType, error) {
	switch s {
	case "Unencoded", "unencoded", "none":
		return Unencoded, nil
	case "Dictionary", "dictionary", "dict":
		return Dictionary, nil
	case "RunLength", "runlength", "rle":
		return RunLength, nil
	case "FrameOfReference", "frameofreference", "for":
		return FrameOfReference, nil
	default:
		return Unencoded, fmt.Errorf("encoding: unknown encoding type %q", s)
	}
}

// Spec combines a logical scheme with a physical scheme. The two compose
// freely (paper §2.3: "logical and physical encoding schemes can be
// arbitrarily combined").
type Spec struct {
	Encoding    EncodingType
	Compression VectorCompressionType
}

// String renders the spec like the paper's figure labels, e.g.
// "Dictionary (FSBA)".
func (s Spec) String() string {
	if s.Encoding == Unencoded || s.Encoding == RunLength {
		return s.Encoding.String()
	}
	return fmt.Sprintf("%s (%s)", s.Encoding, s.Compression)
}

// SpecOf reports the encoding spec a segment currently uses (Unencoded for
// value segments; ok=false for reference and unknown segment types). The
// advisor uses it to skip re-encoding segments already in the target shape.
func SpecOf(seg storage.Segment) (Spec, bool) {
	switch s := seg.(type) {
	case *storage.ValueSegment[int64], *storage.ValueSegment[float64], *storage.StringSegment:
		return Spec{Encoding: Unencoded}, true
	case *DictionarySegment[int64]:
		return Spec{Encoding: Dictionary, Compression: compressionOf(s.av)}, true
	case *DictionarySegment[float64]:
		return Spec{Encoding: Dictionary, Compression: compressionOf(s.av)}, true
	case *DictionarySegment[string]:
		return Spec{Encoding: Dictionary, Compression: compressionOf(s.av)}, true
	case *RunLengthSegment[int64], *RunLengthSegment[float64], *RunLengthSegment[string]:
		return Spec{Encoding: RunLength}, true
	case *FrameOfReferenceSegment:
		return Spec{Encoding: FrameOfReference, Compression: compressionOf(s.offsets)}, true
	case *DecimalSegment:
		return Spec{Encoding: FrameOfReference, Compression: compressionOf(s.ints.offsets)}, true
	default:
		return Spec{}, false
	}
}

// ValueCompression names what a segment does to its values beyond its
// encoding: "FSST" for a string dictionary packed with a symbol table,
// "decimal(e)" for a float64 column stored as the integers n of its values
// n / 10^e, "decimal(e)~b" for one whose values are corrected by b bits of
// each integer, and a suffix "+p" for one with p patches, else "none".
func ValueCompression(seg storage.Segment) string {
	switch s := seg.(type) {
	case *DictionarySegment[string]:
		if s.strs.table != nil {
			return "FSST"
		}
	case *DecimalSegment:
		name := fmt.Sprintf("decimal(%d)", s.exp)
		if s.bits > 0 {
			name += fmt.Sprintf("~%d", s.bits)
		}
		if p := len(s.patches.rows); p > 0 {
			name += fmt.Sprintf("+%d", p)
		}
		return name
	}
	return "none"
}

// EncodeTable seals the tail of a data table and encodes every segment in
// place (Seal) with the default spec — nil is the size model — or, where
// perColumn names one, the column's own (paper §2.2: "Some segments of a
// chunk might stay unencoded, others dictionary-encoded, and further segments
// run length-encoded"). Without any spec it skips the chunks the catalog's
// Sealer finished. It derives no bins: filter.Seal does both. Its one
// caller outside tests is bench/htap.go's fill-first load.
func EncodeTable(t *storage.Table, def *Spec, perColumn map[types.ColumnID]Spec) error {
	t.SealTail()
	for _, c := range t.Chunks() {
		if def == nil && perColumn == nil && c.SealNS() > 0 {
			continue
		}
		for col := 0; col < c.ColumnCount(); col++ {
			id := types.ColumnID(col)
			spec := def
			if own, ok := perColumn[id]; ok {
				spec = &own
			}
			seg, zone := c.SegmentWithZone(id)
			if _, ok := seg.(*storage.ReferenceSegment); ok {
				return fmt.Errorf("encoding: cannot encode reference segment")
			}
			sealed, _ := Seal(seg, zone.Ascending >= seg.Len(), spec)
			c.ReplaceSegment(id, sealed)
		}
	}
	return nil
}
