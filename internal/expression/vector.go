package expression

import (
	"fmt"
	"math"

	"hyrise/internal/encoding"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Vector is a column of evaluation results for one chunk: a typed slice
// plus an optional null bitmap. The evaluator processes expressions one
// vector at a time (column-at-a-time within a chunk).
type Vector struct {
	DT    types.DataType
	I     []int64
	F     []float64
	S     []string
	B     []bool
	Nulls []bool // nil = no NULLs
	N     int
}

// NewIntVector wraps an int64 slice.
func NewIntVector(vals []int64, nulls []bool) *Vector {
	return &Vector{DT: types.TypeInt64, I: vals, Nulls: nulls, N: len(vals)}
}

// NewFloatVector wraps a float64 slice.
func NewFloatVector(vals []float64, nulls []bool) *Vector {
	return &Vector{DT: types.TypeFloat64, F: vals, Nulls: nulls, N: len(vals)}
}

// NewStringVector wraps a string slice.
func NewStringVector(vals []string, nulls []bool) *Vector {
	return &Vector{DT: types.TypeString, S: vals, Nulls: nulls, N: len(vals)}
}

// NewBoolVector wraps a bool slice.
func NewBoolVector(vals []bool, nulls []bool) *Vector {
	return &Vector{DT: types.TypeBool, B: vals, Nulls: nulls, N: len(vals)}
}

// IsNullAt reports whether row i is NULL.
func (v *Vector) IsNullAt(i int) bool { return v.Nulls != nil && v.Nulls[i] }

// ValueAt boxes row i into a dynamic value (boundary use).
func (v *Vector) ValueAt(i int) types.Value {
	if v.IsNullAt(i) {
		return types.NullValue
	}
	switch v.DT {
	case types.TypeInt64:
		return types.Int(v.I[i])
	case types.TypeFloat64:
		return types.Float(v.F[i])
	case types.TypeString:
		return types.Str(v.S[i])
	case types.TypeBool:
		return types.Bool(v.B[i])
	default:
		return types.NullValue
	}
}

// Gather returns v's rows at the given indices, in their order, as a new
// vector.
func (v *Vector) Gather(rows []int32) *Vector {
	return &Vector{DT: v.DT, I: pick(v.I, rows), F: pick(v.F, rows), S: pick(v.S, rows), B: pick(v.B, rows),
		Nulls: pick(v.Nulls, rows), N: len(rows)}
}

// pick returns s's elements at the given indices; nil stays nil.
func pick[T any](s []T, rows []int32) []T {
	if s == nil {
		return nil
	}
	out := make([]T, len(rows))
	for j, i := range rows {
		out[j] = s[i]
	}
	return out
}

// ConstVector broadcasts a single value to n rows.
func ConstVector(val types.Value, n int) *Vector {
	switch val.Type {
	case types.TypeInt64:
		return NewIntVector(repeat(val.I, n), nil)
	case types.TypeFloat64:
		return NewFloatVector(repeat(val.F, n), nil)
	case types.TypeString:
		return NewStringVector(repeat(val.S, n), nil)
	case types.TypeBool:
		return NewBoolVector(repeat(val.AsBool(), n), nil)
	default: // NULL literal
		return NullVector(types.TypeNull, n)
	}
}

// repeat returns n copies of v.
func repeat[T any](v T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// NullVector allocates n rows of type dt, all NULL.
func NullVector(dt types.DataType, n int) *Vector {
	v := &Vector{DT: dt, Nulls: allNulls(n), N: n}
	switch dt {
	case types.TypeInt64:
		v.I = make([]int64, n)
	case types.TypeFloat64:
		v.F = make([]float64, n)
	case types.TypeString:
		v.S = make([]string, n)
	case types.TypeBool:
		v.B = make([]bool, n)
	}
	return v
}

// As reads v as type dt by the engine's one assignment rule, the conversion
// of bound values, INSERT values, UPDATE SET vectors, CASE branches and
// scalar subqueries: the same type, or NULL on either side, passes; an INT
// widens to FLOAT; a FLOAT reads as INT only where it is integral; any type
// renders as VARCHAR; an INT reads as BOOL (a BOOL column stores 0/1).
// Any other value is refused (ErrInvalidValue), never rounded or truncated.
func (v *Vector) As(dt types.DataType) (*Vector, error) {
	switch {
	case v.DT == dt || v.DT == types.TypeNull || dt == types.TypeNull:
		return v, nil
	case v.DT == types.TypeInt64 && dt == types.TypeFloat64:
		return NewFloatVector(v.Floats(), v.Nulls), nil
	case v.DT == types.TypeInt64 && dt == types.TypeBool:
		out := make([]bool, v.N)
		for i, x := range v.I {
			out[i] = x != 0
		}
		return NewBoolVector(out, v.Nulls), nil
	case dt == types.TypeString:
		out := make([]string, v.N)
		for i := range out {
			if !v.IsNullAt(i) {
				out[i] = v.ValueAt(i).String()
			}
		}
		return NewStringVector(out, v.Nulls), nil
	}
	out := make([]int64, v.N)
	for i := 0; i < v.N; i++ {
		if x := v.ValueAt(i); !x.IsNull() {
			if x.Type != types.TypeFloat64 || dt != types.TypeInt64 || x.F != math.Trunc(x.F) || x.F < math.MinInt64 || x.F >= math.MaxInt64 {
				return nil, fmt.Errorf("expression: %w %s: %q", ErrInvalidValue, dt, x)
			}
			out[i] = int64(x.F)
		}
	}
	if dt != types.TypeInt64 {
		return NullVector(dt, v.N), nil // a refused type, but every row is NULL
	}
	return NewIntVector(out, v.Nulls), nil
}

// Assignable reports whether a value of type from may be written to a slot
// of type to: As's rule on types, which the plan checks INSERT values and
// UPDATE SET expressions with.
func Assignable(from, to types.DataType) bool {
	return from == to || from == types.TypeNull || to == types.TypeNull || to == types.TypeString ||
		from.IsNumeric() && to.IsNumeric() || from == types.TypeInt64 && to == types.TypeBool
}

// Floats returns the rows coerced to float64 (ints are widened). The result
// aliases v.F when already float.
func (v *Vector) Floats() []float64 {
	if v.DT == types.TypeFloat64 {
		return v.F
	}
	out := make([]float64, v.N)
	if v.DT == types.TypeInt64 {
		for i, x := range v.I {
			out[i] = float64(x)
		}
	}
	return out
}

// VectorFromSegment materializes a storage segment into a vector using the
// static access path.
func VectorFromSegment(seg storage.Segment) *Vector {
	return VectorFromSegmentPositions(seg, nil)
}

// VectorFromSegmentPositions materializes selected offsets of a segment, or
// with a nil pos all of it.
func VectorFromSegmentPositions(seg storage.Segment, pos []types.ChunkOffset) *Vector {
	switch seg.DataType() {
	case types.TypeInt64, types.TypeBool: // a BOOL column stores 0/1
		return NewIntVector(materialize[int64](seg, pos))
	case types.TypeFloat64:
		return NewFloatVector(materialize[float64](seg, pos))
	case types.TypeString:
		return NewStringVector(materialize[string](seg, pos))
	default:
		panic(fmt.Sprintf("expression: cannot vectorize segment type %s", seg.DataType()))
	}
}

func materialize[T types.Ordered](seg storage.Segment, pos []types.ChunkOffset) ([]T, []bool) {
	if pos == nil {
		return encoding.Materialize[T](seg)
	}
	return encoding.MaterializePositions[T](seg, pos)
}
