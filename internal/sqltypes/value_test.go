package sqltypes

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() || Null.Kind != KindNull {
		t.Fatal("zero value must be NULL")
	}
	if v := NewInt(42); v.AsInt() != 42 || v.AsFloat() != 42 || v.AsString() != "42" {
		t.Fatalf("int value: %+v", v)
	}
	if v := NewFloat(2.5); v.AsFloat() != 2.5 || v.AsInt() != 2 {
		t.Fatalf("float value: %+v", v)
	}
	if v := NewString("7"); v.AsInt() != 7 || v.AsString() != "7" {
		t.Fatalf("string coercion: %+v", v)
	}
	if v := NewString(" 3.5 "); v.AsFloat() != 3.5 {
		t.Fatalf("string float coercion: %+v", v)
	}
	if v := NewBool(true); !v.Bool() || v.AsInt() != 1 {
		t.Fatalf("bool: %+v", v)
	}
	if NewBool(false).Bool() {
		t.Fatal("false is true")
	}
}

// TestAsIntReadsTheIntRule: a string reads as Coerce reads it into an INT
// column, and 0 where Coerce refuses it.
func TestAsIntReadsTheIntRule(t *testing.T) {
	for s, want := range map[string]int64{
		"7": 7, " 7 ": 7, "07": 7, "7.0": 7, "-1e3": -1000, "7.5": 0, "12abc": 0, "abc": 0, "": 0,
	} {
		if got := NewString(s).AsInt(); got != want {
			t.Errorf("AsInt(%q) = %d, want %d", s, got, want)
		}
	}
	if got := NewString("7.0").AsFloat(); got != 7 {
		t.Errorf("AsFloat('7.0') = %v, want 7", got)
	}
}

func TestSQLLiteral(t *testing.T) {
	if got := NewString("it's").SQLLiteral(); got != "'it''s'" {
		t.Fatalf("literal escaping: %s", got)
	}
	if got := Null.SQLLiteral(); got != "NULL" {
		t.Fatalf("null literal: %s", got)
	}
	if got := NewInt(-3).SQLLiteral(); got != "-3" {
		t.Fatalf("int literal: %s", got)
	}
}

func TestCompareBasics(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewInt(2), -1},
		{NewInt(2), NewFloat(1.5), 1},
		{NewString("a"), NewString("b"), -1},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{Null, Null, 0},
		{NewString("10"), NewInt(9), 1}, // mixed → numeric
		{NewBool(true), NewInt(1), 0},
		{NewInt(1<<53 + 1), NewFloat(1 << 53), 1}, // exact, not as floats
		{NewString("9007199254740993"), NewInt(1 << 53), 1},
		{NewString("7.0"), NewInt(7), 0},
		// A string reads as its leading number, as in MySQL, where
		// '12abc' = 12, 'abc' = 0 and '1e2z' = 100 are all TRUE.
		{NewString("12abc"), NewInt(12), 0},
		{NewString("abc"), NewInt(0), 0},
		{NewString("1e2z"), NewInt(100), 0},
		{NewString(" 3x"), NewInt(3), 0},
		{NewString(".5q"), NewFloat(0.5), 0},
		{NewString("0x10"), NewInt(0), 0},
		{NewString("-2e"), NewInt(-2), 0},
	}
	for _, tc := range cases {
		if got := Compare(tc.a, tc.b); got != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestEqualNullNeverEqual(t *testing.T) {
	if Equal(Null, Null) || Equal(Null, NewInt(0)) {
		t.Fatal("NULL must not equal anything")
	}
	if !Equal(NewInt(5), NewFloat(5.0)) {
		t.Fatal("cross-kind numeric equality")
	}
}

func TestArithmetic(t *testing.T) {
	if v := Add(NewInt(2), NewInt(3)); v.Kind != KindInt || v.I != 5 {
		t.Fatalf("int add: %+v", v)
	}
	if v := Add(NewInt(2), NewFloat(0.5)); v.Kind != KindFloat || v.F != 2.5 {
		t.Fatalf("promoted add: %+v", v)
	}
	if v := Sub(NewInt(2), NewInt(3)); v.I != -1 {
		t.Fatalf("sub: %+v", v)
	}
	if v := Mul(NewInt(4), NewInt(3)); v.I != 12 {
		t.Fatalf("mul: %+v", v)
	}
	if v := Div(NewInt(7), NewInt(2)); v.Kind != KindFloat || v.F != 3.5 {
		t.Fatalf("div: %+v", v)
	}
	if !Div(NewInt(1), NewInt(0)).IsNull() {
		t.Fatal("div by zero must be NULL")
	}
	if v := Mod(NewInt(7), NewInt(3)); v.I != 1 {
		t.Fatalf("mod: %+v", v)
	}
	if !Mod(NewInt(1), NewInt(0)).IsNull() {
		t.Fatal("mod by zero must be NULL")
	}
	// MySQL: ' 3x' + 1 = 4.
	if v := Add(NewString(" 3x"), NewInt(1)); !Equal(v, NewInt(4)) {
		t.Fatalf("' 3x' + 1 = %+v, want 4", v)
	}
	// NULL propagates.
	for _, v := range []Value{Add(Null, NewInt(1)), Sub(NewInt(1), Null), Mul(Null, Null), Div(Null, NewInt(1))} {
		if !v.IsNull() {
			t.Fatalf("NULL propagation: %+v", v)
		}
	}
}

// randomValue generates arbitrary values for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(4) {
	case 0:
		return Null
	case 1:
		return NewInt(int64(r.Intn(2000) - 1000))
	case 2:
		return NewFloat(float64(r.Intn(2000)-1000) / 4)
	default:
		letters := []byte("abcdxyz")
		n := r.Intn(6)
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[r.Intn(len(letters))]
		}
		return NewString(string(b))
	}
}

// Generate implements quick.Generator.
func (Value) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randomValue(r))
}

func TestCompareIsAntisymmetric(t *testing.T) {
	f := func(a, b Value) bool {
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareIsReflexive(t *testing.T) {
	f := func(a Value) bool {
		return Compare(a, a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareIsTransitiveOnSamples(t *testing.T) {
	f := func(a, b, c Value) bool {
		// Sort the triple by Compare, then verify pairwise order holds.
		vals := []Value{a, b, c}
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				if Compare(vals[i], vals[j]) > 0 {
					vals[i], vals[j] = vals[j], vals[i]
				}
			}
		}
		return Compare(vals[0], vals[1]) <= 0 &&
			Compare(vals[1], vals[2]) <= 0 &&
			Compare(vals[0], vals[2]) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAddCommutes(t *testing.T) {
	f := func(a, b Value) bool {
		x, y := Add(a, b), Add(b, a)
		if x.IsNull() != y.IsNull() {
			return false
		}
		if x.IsNull() {
			return true
		}
		return Compare(x, y) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRowCloneIndependent(t *testing.T) {
	r := Row{NewInt(1), NewString("x")}
	c := r.Clone()
	c[0] = NewInt(9)
	if r[0].I != 1 {
		t.Fatal("clone aliases source")
	}
	if r.String() != "(1, x)" {
		t.Fatalf("row string: %s", r.String())
	}
}

func TestSchemaIndex(t *testing.T) {
	s := Schema{{Name: "Uid"}, {Name: "name"}}
	if s.Index("uid") != 0 || s.Index("NAME") != 1 || s.Index("zzz") != -1 {
		t.Fatalf("schema index: %d %d %d", s.Index("uid"), s.Index("NAME"), s.Index("zzz"))
	}
	if got := s.Names(); got[0] != "Uid" || len(got) != 2 {
		t.Fatalf("names: %v", got)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNull: "NULL", KindInt: "INT", KindFloat: "FLOAT",
		KindString: "VARCHAR", KindBool: "BOOLEAN",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %s", k, k.String())
		}
	}
}
