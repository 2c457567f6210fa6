// Package types defines the data types, value representation, and row
// addressing primitives shared by all Hyrise components.
//
// Hyrise supports three SQL-visible data types: 64-bit integers, 64-bit
// floats, and strings. This mirrors the paper's own evaluation setup, which
// replaced DECIMAL with FLOAT and DATE with CHAR(10) (dates are ISO-8601
// strings, so lexicographic comparison equals chronological comparison).
package types

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
)

// DataType enumerates the column data types supported by the engine.
type DataType uint8

const (
	// TypeNull is the type of an untyped NULL literal.
	TypeNull DataType = iota
	// TypeInt64 is a 64-bit signed integer.
	TypeInt64
	// TypeFloat64 is a 64-bit IEEE-754 float.
	TypeFloat64
	// TypeString is a variable-length UTF-8 string.
	TypeString
	// TypeBool is the internal type of predicate results (not a column
	// type); SQL three-valued logic uses TypeBool plus NULL.
	TypeBool
)

// String returns the SQL-ish name of the data type.
func (t DataType) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInt64:
		return "INT"
	case TypeFloat64:
		return "FLOAT"
	case TypeString:
		return "VARCHAR"
	case TypeBool:
		return "BOOL"
	default:
		return fmt.Sprintf("DataType(%d)", uint8(t))
	}
}

// IsNumeric reports whether the type participates in arithmetic.
func (t DataType) IsNumeric() bool {
	return t == TypeInt64 || t == TypeFloat64
}

// ChunkID identifies a chunk within a table.
type ChunkID uint32

// ChunkOffset identifies a row within a chunk.
type ChunkOffset uint32

// ColumnID identifies a column within a table.
type ColumnID uint16

// InvalidChunkOffset marks a non-existing chunk offset (e.g. NULL rows in
// outer joins).
const InvalidChunkOffset = ChunkOffset(math.MaxUint32)

// RowID addresses a single row in a stored table: a chunk and an offset
// within that chunk. RowIDs are the currency of positional (reference)
// segments.
type RowID struct {
	Chunk  ChunkID
	Offset ChunkOffset
}

// NullRowID represents "no row", used for the outer side of outer joins.
var NullRowID = RowID{Chunk: math.MaxUint32, Offset: InvalidChunkOffset}

// IsNull reports whether the RowID addresses no row.
func (r RowID) IsNull() bool { return r.Offset == InvalidChunkOffset }

// PosList is an ordered list of row positions produced by an operator and
// consumed by reference segments. Sharing one PosList across all reference
// segments of a chunk is what makes positional intermediaries cheap.
type PosList []RowID

// Value is a dynamically typed SQL value. It is used at system boundaries
// (parser literals, client results, dynamic segment access); hot loops use
// typed slices instead.
type Value struct {
	Type DataType
	I    int64
	F    float64
	S    string
}

// NullValue is the SQL NULL.
var NullValue = Value{Type: TypeNull}

// Int returns an int64 value.
func Int(v int64) Value { return Value{Type: TypeInt64, I: v} }

// Float returns a float64 value.
func Float(v float64) Value { return Value{Type: TypeFloat64, F: v} }

// Str returns a string value.
func Str(v string) Value { return Value{Type: TypeString, S: v} }

// Bool returns a boolean value (internal predicate results).
func Bool(v bool) Value {
	i := int64(0)
	if v {
		i = 1
	}
	return Value{Type: TypeBool, I: i}
}

// AsBool reports whether the value is a true boolean.
func (v Value) AsBool() bool { return v.Type == TypeBool && v.I != 0 }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Type == TypeNull }

// AsFloat converts a numeric value to float64. Strings and NULLs yield 0.
func (v Value) AsFloat() float64 {
	switch v.Type {
	case TypeInt64:
		return float64(v.I)
	case TypeFloat64:
		return v.F
	default:
		return 0
	}
}

// AsInt converts a numeric value to int64, truncating floats.
func (v Value) AsInt() int64 {
	switch v.Type {
	case TypeInt64:
		return v.I
	case TypeFloat64:
		return int64(v.F)
	default:
		return 0
	}
}

// String renders the value the way results are printed (NULL as "NULL").
func (v Value) String() string {
	switch v.Type {
	case TypeNull:
		return "NULL"
	case TypeInt64:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat64:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TypeString:
		return v.S
	case TypeBool:
		if v.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "?"
	}
}

// Compare orders two values the way a zone's bounds compare them (IEEE 754).
// Numeric types are mutually comparable (int compared to float via float64);
// strings only compare to strings. ok is false for NULLs, NaN — which no
// `=`, `<` or `>` matches — and incompatible types.
func Compare(a, b Value) (int, bool) {
	comparable := (a.Type == TypeString && b.Type == TypeString) ||
		(a.Type.IsNumeric() && b.Type.IsNumeric() && !a.isNaN() && !b.isNaN())
	if !comparable {
		return 0, false
	}
	return Order(a, b), true
}

// Order is the total order of ORDER BY, GROUP BY, DISTINCT, MIN and MAX: NaN
// sorts before every other number and equals every NaN, -0 equals +0, FALSE
// sorts before TRUE and NULL after everything. Int and float compare as
// numbers; values of other unlike types order by type.
func Order(a, b Value) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return 1
	case b.IsNull():
		return -1
	case a.Type == TypeInt64 && b.Type == TypeInt64:
		return cmp.Compare(a.I, b.I)
	case a.Type.IsNumeric() && b.Type.IsNumeric():
		return cmp.Compare(a.AsFloat(), b.AsFloat())
	case a.Type != b.Type:
		return cmp.Compare(a.Type, b.Type)
	case a.Type == TypeString:
		return cmp.Compare(a.S, b.S)
	default: // TypeBool holds 0 or 1 in I
		return cmp.Compare(a.I, b.I)
	}
}

func (v Value) isNaN() bool { return v.Type == TypeFloat64 && v.F != v.F }

// CommonType returns the type in which values of types a and b meet — in a
// comparison, an arithmetic operation or the branches of a CASE — and whether
// there is one: NULL yields to the other type, INT with FLOAT gives FLOAT, and
// any other two types meet only themselves.
func CommonType(a, b DataType) (DataType, bool) {
	switch {
	case a == b || b == TypeNull:
		return a, true
	case a == TypeNull:
		return b, true
	case a.IsNumeric() && b.IsNumeric():
		return TypeFloat64, true
	default:
		return TypeNull, false
	}
}

// ParseValue parses a literal of the given type from its text form.
func ParseValue(t DataType, s string) (Value, error) {
	switch t {
	case TypeInt64:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return NullValue, fmt.Errorf("parse int %q: %w", s, err)
		}
		return Int(i), nil
	case TypeFloat64:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return NullValue, fmt.Errorf("parse float %q: %w", s, err)
		}
		return Float(f), nil
	case TypeString:
		return Str(s), nil
	case TypeBool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return NullValue, fmt.Errorf("parse bool %q: %w", s, err)
		}
		return Bool(b), nil
	default:
		return NullValue, fmt.Errorf("cannot parse value of type %s", t)
	}
}

// Ordered is the constraint for types with a total order used by generic
// scan and index code.
type Ordered interface {
	~int64 | ~float64 | ~string
}

// Native maps a Go native type to its DataType.
func Native[T Ordered]() DataType {
	var z T
	switch any(z).(type) {
	case int64:
		return TypeInt64
	case float64:
		return TypeFloat64
	case string:
		return TypeString
	}
	return TypeNull
}

// FromNative wraps a native value into a Value.
func FromNative[T Ordered](v T) Value {
	switch x := any(v).(type) {
	case int64:
		return Int(x)
	case float64:
		return Float(x)
	case string:
		return Str(x)
	}
	return NullValue
}

// ToNative extracts the native value of type T from a Value. The caller must
// know the value is of matching type; mismatches return the zero value.
func ToNative[T Ordered](v Value) T {
	var z T
	switch any(z).(type) {
	case int64:
		return any(v.AsInt()).(T)
	case float64:
		return any(v.AsFloat()).(T)
	case string:
		if v.Type == TypeString {
			return any(v.S).(T)
		}
	}
	return z
}

// CommitID is a monotonically increasing MVCC commit timestamp.
type CommitID uint64

// TransactionID identifies a running transaction for MVCC row claims.
type TransactionID uint64

// MaxCommitID marks "not yet committed / not yet invalidated".
const MaxCommitID = CommitID(math.MaxUint64)

// HeldBy marks a row's begin (an insert) or end (a claim to invalidate it) as
// transaction tid's, not committed yet: the top bit, which no assigned commit
// id reaches, plus the owner, so no cell of its own says whose it is.
// MaxCommitID is the same state without an owner.
func HeldBy(tid TransactionID) CommitID { return CommitID(1<<63 | uint64(tid)) }

// Owner returns the transaction a HeldBy mark names.
func (c CommitID) Owner() TransactionID { return TransactionID(c &^ (1 << 63)) }

// Committed reports whether c is a commit id some commit assigned, as opposed
// to MaxCommitID or a HeldBy mark.
func (c CommitID) Committed() bool { return c>>63 == 0 }
