package sqltypes

import (
	"errors"
	"math"
	"testing"
)

func TestCoerceRules(t *testing.T) {
	str, num, flt := NewString, NewInt, NewFloat
	for _, c := range []struct {
		v       Value
		k       Kind
		want    Value // Null with refused set: ErrCoerce
		refused bool
	}{
		{str("7"), KindInt, num(7), false},
		{str(" 07 "), KindInt, num(7), false},
		{str("7.0"), KindInt, num(7), false},
		{str("-1e3"), KindInt, num(-1000), false},
		{str("7.5"), KindInt, Null, true},
		{str("12abc"), KindInt, Null, true},
		{str("0x10"), KindInt, Null, true},
		{str("NaN"), KindFloat, Null, true},
		{str("1e400"), KindFloat, Null, true},
		{str("9223372036854775808"), KindInt, Null, true},
		{str(" 2.5"), KindFloat, flt(2.5), false},
		{str("9007199254740993"), KindFloat, flt(1 << 53), false},
		{flt(7), KindInt, num(7), false},
		{flt(7.5), KindInt, Null, true},
		{flt(math.Inf(1)), KindInt, Null, true},
		{flt(math.NaN()), KindInt, Null, true},
		{NewBool(true), KindInt, num(1), false},
		{NewBool(false), KindFloat, flt(0), false},
		{num(7), KindFloat, flt(7), false},
		{num(7), KindString, str("7"), false},
		{flt(2.5), KindString, str("2.5"), false},
		{NewBool(true), KindString, str("1"), false},
		{num(1), KindBool, NewBool(true), false},
		{str("0"), KindBool, NewBool(false), false},
		{num(2), KindBool, Null, true},
		{Null, KindInt, Null, false},
		{str("x"), KindNull, str("x"), false},
	} {
		got, err := Coerce(c.v, c.k)
		if c.refused {
			if !errors.Is(err, ErrCoerce) {
				t.Errorf("Coerce(%s, %s) = %v, %v; want ErrCoerce", c.v.SQLLiteral(), c.k, got, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("Coerce(%s, %s) = %v (%s), %v; want %v (%s)", c.v.SQLLiteral(), c.k, got, got.Kind, err, c.want, c.want.Kind)
		}
	}
}

// storedKinds are the kinds a column holds.
var storedKinds = []Kind{KindInt, KindFloat, KindString, KindBool}

// checkNarrowing holds Narrow to its contract for v against every stored
// value of kind k among samples: when it narrows to w, Compare(v, r) == 0
// exactly when r == w. Coerce must be idempotent whether or not it narrows.
func checkNarrowing(t *testing.T, v Value, k Kind, samples []Value) {
	t.Helper()
	if w, err := Coerce(v, k); err == nil {
		if again, err := Coerce(w, k); err != nil || again != w && !(math.IsNaN(w.F) && math.IsNaN(again.F)) {
			t.Errorf("Coerce(Coerce(%s, %s)) = %v, %v; want %v", v.SQLLiteral(), k, again, err, w)
		}
	}
	w, ok := Narrow(v, k)
	if !ok {
		return
	}
	if w.Kind != k && !w.IsNull() {
		t.Errorf("Narrow(%s, %s) = %v of kind %s", v.SQLLiteral(), k, w, w.Kind)
	}
	for _, r := range samples {
		if r.Kind != k {
			continue
		}
		if eq := Compare(v, r) == 0; eq != (r == w) {
			t.Errorf("Narrow(%s, %s) = %s, but Compare(%s, %s) == 0 is %v", v.SQLLiteral(), k, w.SQLLiteral(), v.SQLLiteral(), r.SQLLiteral(), eq)
		}
	}
}

// narrowingSamples are v, each of its coercions, and their neighbours:
// the stored values most likely to break the narrowing property.
func narrowingSamples(vs ...Value) []Value {
	out := append([]Value(nil), vs...)
	for _, v := range vs {
		for _, k := range storedKinds {
			if w, err := Coerce(v, k); err == nil {
				out = append(out, w)
				switch w.Kind {
				case KindInt:
					out = append(out, NewInt(w.I-1), NewInt(w.I+1))
				case KindFloat:
					out = append(out, NewFloat(math.Nextafter(w.F, math.Inf(-1))), NewFloat(math.Nextafter(w.F, math.Inf(1))))
				case KindString:
					out = append(out, NewString("0"+w.S), NewString(" "+w.S), NewString(w.S+".0"))
				}
			}
		}
	}
	return append(out, NewBool(true), NewBool(false), NewString(""), NewString("abc"))
}

// TestNarrowingProperty is FuzzCoerce's property over a fixed table.
func TestNarrowingProperty(t *testing.T) {
	const big = 1 << 53
	vs := []Value{
		Null, NewInt(0), NewInt(7), NewInt(-3), NewInt(big), NewInt(big + 1), NewInt(math.MaxInt64), NewInt(math.MinInt64),
		NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(7), NewFloat(7.5), NewFloat(big), NewFloat(1 << 63), NewFloat(-(1 << 63)),
		NewFloat(math.NaN()), NewFloat(math.Inf(1)), NewFloat(0.1),
		NewString("7"), NewString("07"), NewString(" 7"), NewString("7.0"), NewString("7.5"), NewString("abc"), NewString(""),
		NewString("9007199254740993"), NewString("1e3"), NewString("-0"), NewString("0.1"),
		NewBool(true), NewBool(false),
	}
	samples := narrowingSamples(vs...)
	for _, v := range vs {
		for _, k := range storedKinds {
			checkNarrowing(t, v, k, samples)
		}
	}
}

// FuzzCoerce holds the narrowing property over arbitrary strings, integers
// and floats: each, read against each stored kind, against its coercions
// and their neighbours.
func FuzzCoerce(f *testing.F) {
	f.Add("07", int64(1<<53+1), float64(1<<53))
	f.Add(" 7.0", int64(-1), 7.5)
	f.Add("1e3", int64(0), math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, s string, i int64, fl float64) {
		vs := []Value{NewString(s), NewInt(i), NewFloat(fl)}
		samples := narrowingSamples(vs...)
		for _, v := range vs {
			for _, k := range storedKinds {
				checkNarrowing(t, v, k, samples)
			}
		}
	})
}

func TestCoerceOfItsOwnKindAllocatesNothing(t *testing.T) {
	for _, v := range []Value{NewInt(7), NewFloat(2.5), NewString("seven"), NewBool(true)} {
		if n := testing.AllocsPerRun(100, func() {
			if w, err := Coerce(v, v.Kind); err != nil || w != v {
				t.Fatalf("Coerce(%v, %s) = %v, %v", v, v.Kind, w, err)
			}
		}); n != 0 {
			t.Errorf("Coerce of a %s to its kind: %v allocations", v.Kind, n)
		}
	}
}

func TestKindOfReadsKindString(t *testing.T) {
	for _, k := range storedKinds {
		if got := KindOf(k.String()); got != k {
			t.Errorf("KindOf(%q) = %s", k.String(), got)
		}
	}
	if KindOf("DATETIME") != KindNull {
		t.Error("an unknown type name must read as KindNull")
	}
}
