package types

import (
	"cmp"
	"math"
	"testing"
	"testing/quick"
)

func TestDataTypeString(t *testing.T) {
	cases := map[DataType]string{
		TypeNull:    "NULL",
		TypeInt64:   "INT",
		TypeFloat64: "FLOAT",
		TypeString:  "VARCHAR",
		DataType(9): "DataType(9)",
	}
	for dt, want := range cases {
		if got := dt.String(); got != want {
			t.Errorf("DataType(%d).String() = %q, want %q", dt, got, want)
		}
	}
}

func TestValueConstructorsAndString(t *testing.T) {
	if got := Int(42).String(); got != "42" {
		t.Errorf("Int(42).String() = %q", got)
	}
	if got := Float(1.5).String(); got != "1.5" {
		t.Errorf("Float(1.5).String() = %q", got)
	}
	if got := Str("hi").String(); got != "hi" {
		t.Errorf("Str(hi).String() = %q", got)
	}
	if got := NullValue.String(); got != "NULL" {
		t.Errorf("NullValue.String() = %q", got)
	}
	if !NullValue.IsNull() || Int(0).IsNull() {
		t.Error("IsNull misbehaves")
	}
}

func TestCompare(t *testing.T) {
	tests := []struct {
		a, b   Value
		want   int
		wantOK bool
	}{
		{Int(1), Int(2), -1, true},
		{Int(2), Int(2), 0, true},
		{Int(3), Int(2), 1, true},
		{Float(1.5), Int(2), -1, true},
		{Int(2), Float(1.5), 1, true},
		{Float(2.0), Int(2), 0, true},
		{Str("a"), Str("b"), -1, true},
		{Str("b"), Str("b"), 0, true},
		{Str("c"), Str("b"), 1, true},
		{Str("a"), Int(1), 0, false},
		{NullValue, Int(1), 0, false},
		{Int(1), NullValue, 0, false},
		// The predicate rule: NaN compares with nothing, -0 equals +0.
		{Float(math.NaN()), Float(1), 0, false},
		{Int(1), Float(math.NaN()), 0, false},
		{Float(math.NaN()), Float(math.NaN()), 0, false},
		{Float(math.Copysign(0, -1)), Int(0), 0, true},
		{Bool(false), Bool(true), 0, false},
	}
	for _, tc := range tests {
		got, ok := Compare(tc.a, tc.b)
		if ok != tc.wantOK || (ok && got != tc.want) {
			t.Errorf("Compare(%v, %v) = (%d, %v), want (%d, %v)", tc.a, tc.b, got, ok, tc.want, tc.wantOK)
		}
	}
}

func TestEqualNullSemantics(t *testing.T) {
	equal := func(a, b Value) bool {
		c, ok := Compare(a, b)
		return ok && c == 0
	}
	if equal(NullValue, NullValue) {
		t.Error("NULL must not equal NULL")
	}
	if !equal(Int(5), Float(5.0)) {
		t.Error("5 should equal 5.0")
	}
	if equal(Str("x"), Int(1)) {
		t.Error("incompatible types must not be equal")
	}
	if nan := Float(math.NaN()); equal(nan, nan) {
		t.Error("NaN must not equal NaN")
	}
}

// TestOrder: the ordering rule is a total order over NaN, both zeros, the
// infinities, booleans and NULL, and agrees with Compare wherever Compare
// answers.
func TestOrder(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	ascending := [][]Value{ // groups of equal values, in ascending order
		{Float(nan), Float(math.Float64frombits(0x7FF8000000000123))},
		{Float(-inf)},
		{Int(-1), Float(-1)},
		{Float(math.Copysign(0, -1)), Int(0), Float(0)},
		{Float(0.5)},
		{Int(1 << 62)},
		{Float(inf)},
		{Str("")},
		{Str("a")},
		{Bool(false)},
		{Bool(true)},
		{NullValue},
	}
	for gi, group := range ascending {
		for gj, other := range ascending {
			for _, a := range group {
				for _, b := range other {
					if got, want := Order(a, b), cmp.Compare(gi, gj); got != want {
						t.Errorf("Order(%v, %v) = %d, want %d", a, b, got, want)
					}
					if c, ok := Compare(a, b); ok && c != Order(a, b) {
						t.Errorf("Compare(%v, %v) = %d, Order %d", a, b, c, Order(a, b))
					}
				}
			}
		}
	}
}

func TestCommonType(t *testing.T) {
	tests := []struct {
		a, b, want DataType
		ok         bool
	}{
		{TypeInt64, TypeInt64, TypeInt64, true},
		{TypeInt64, TypeFloat64, TypeFloat64, true},
		{TypeFloat64, TypeInt64, TypeFloat64, true},
		{TypeString, TypeInt64, TypeNull, false},
		{TypeBool, TypeBool, TypeBool, true},
		{TypeBool, TypeInt64, TypeNull, false},
		{TypeString, TypeNull, TypeString, true},
		{TypeNull, TypeInt64, TypeInt64, true},
		{TypeNull, TypeNull, TypeNull, true},
	}
	for _, tc := range tests {
		if got, ok := CommonType(tc.a, tc.b); got != tc.want || ok != tc.ok {
			t.Errorf("CommonType(%v, %v) = %v, %v, want %v, %v", tc.a, tc.b, got, ok, tc.want, tc.ok)
		}
	}
}

func TestParseValue(t *testing.T) {
	v, err := ParseValue(TypeInt64, "123")
	if err != nil || v.I != 123 {
		t.Errorf("ParseValue int: %v, %v", v, err)
	}
	v, err = ParseValue(TypeFloat64, "1.25")
	if err != nil || v.F != 1.25 {
		t.Errorf("ParseValue float: %v, %v", v, err)
	}
	v, err = ParseValue(TypeString, "abc")
	if err != nil || v.S != "abc" {
		t.Errorf("ParseValue string: %v, %v", v, err)
	}
	if _, err = ParseValue(TypeInt64, "xyz"); err == nil {
		t.Error("ParseValue should fail on bad int")
	}
	if _, err = ParseValue(TypeNull, "x"); err == nil {
		t.Error("ParseValue should fail on TypeNull")
	}
}

func TestRowIDNull(t *testing.T) {
	if !NullRowID.IsNull() {
		t.Error("NullRowID.IsNull() = false")
	}
	if (RowID{Chunk: 0, Offset: 0}).IsNull() {
		t.Error("ordinary RowID reported null")
	}
}

func TestNativeRoundTrip(t *testing.T) {
	if Native[int64]() != TypeInt64 || Native[float64]() != TypeFloat64 || Native[string]() != TypeString {
		t.Error("Native type mapping wrong")
	}
	if ToNative[int64](FromNative(int64(7))) != 7 {
		t.Error("int64 round trip failed")
	}
	if ToNative[float64](FromNative(2.5)) != 2.5 {
		t.Error("float64 round trip failed")
	}
	if ToNative[string](FromNative("s")) != "s" {
		t.Error("string round trip failed")
	}
}

// Property: Compare is antisymmetric and transitive-consistent with the
// native ordering for int64.
func TestCompareProperty(t *testing.T) {
	f := func(a, b int64) bool {
		c, ok := Compare(Int(a), Int(b))
		if !ok {
			return false
		}
		switch {
		case a < b:
			return c == -1
		case a > b:
			return c == 1
		default:
			return c == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareFloatIntMixedProperty(t *testing.T) {
	f := func(a int64, b float64) bool {
		c1, ok1 := Compare(Int(a), Float(b))
		c2, ok2 := Compare(Float(b), Int(a))
		return ok1 && ok2 && c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
