package sqltypes

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
)

// ErrCoerce reports a value that its column's kind refuses.
var ErrCoerce = errors.New("sqltypes: value does not fit its column")

// Coerce reads v as a value of kind k, by MySQL's strict mode: a numeric
// string, surrounding space ignored, goes to INT or FLOAT; a FLOAT with no
// fraction goes to INT; TRUE and FALSE go to 1 and 0; INT and FLOAT go to
// VARCHAR as their text; 0 and 1 go to BOOLEAN. Anything else is ErrCoerce.
// NULL stays NULL, and KindNull, a kind that could not be read, keeps v as
// it is. A value already of kind k is returned as it is.
func Coerce(v Value, k Kind) (Value, error) {
	if w, ok := coerce(v, k); ok {
		return w, nil
	}
	return v, fmt.Errorf("%w: %s is not %s", ErrCoerce, v.SQLLiteral(), k)
}

// coerce is Coerce without the error, which would cost an allocation.
func coerce(v Value, k Kind) (Value, bool) {
	if v.Kind == k || v.Kind == KindNull || k == KindNull {
		return v, true
	}
	switch k {
	case KindInt:
		switch v.Kind {
		case KindBool:
			return NewInt(v.I), true
		case KindFloat:
			if i, ok := floatToInt(v.F); ok {
				return NewInt(i), true
			}
		case KindString:
			if n, ok := parseNumber(v.S); ok {
				return coerce(n, KindInt)
			}
		}
	case KindFloat:
		switch v.Kind {
		case KindInt, KindBool:
			return NewFloat(float64(v.I)), true
		case KindString:
			if n, ok := parseNumber(v.S); ok {
				return coerce(n, KindFloat)
			}
		}
	case KindString:
		switch v.Kind {
		case KindInt, KindBool:
			return NewString(strconv.FormatInt(v.I, 10)), true
		case KindFloat:
			return NewString(v.AsString()), true
		}
	case KindBool:
		if n, ok := coerce(v, KindInt); ok && (n.I == 0 || n.I == 1) {
			return NewBool(n.I == 1), true
		}
	}
	return v, false
}

// Narrow is Coerce for a key that narrows a route or a lookup: ok only when
// the stored values of kind k that equal v under Compare are exactly w. A
// number names several VARCHARs ('7', '07', ' 7'), a value Coerce refuses
// or one it rounds names no single stored value; those narrow nothing.
func Narrow(v Value, k Kind) (w Value, ok bool) {
	switch {
	case v.Kind == k && k != KindFloat, v.Kind == KindNull:
		return v, true
	case k == KindString:
		return v, false
	}
	w, ok = coerce(v, k)
	if !ok || w.Kind == KindFloat && math.IsNaN(w.F) {
		return v, false
	}
	return w, Compare(v, w) == 0
}

// floatToInt returns f as an integer when it has no fraction and fits.
func floatToInt(f float64) (int64, bool) {
	if f != math.Trunc(f) || f < -(1<<63) || f >= 1<<63 {
		return 0, false
	}
	return int64(f), true
}

// parseNumber reads decimal numeric text, surrounding space ignored: an
// integer that fits is an INT, any other finite number a FLOAT.
func parseNumber(s string) (Value, bool) {
	s = strings.TrimSpace(s)
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return NewInt(n), true
	}
	// ParseFloat also reads Inf, NaN and hex, which are not numeric text.
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || strings.ContainsAny(s, "nNxX") {
		return Null, false
	}
	return NewFloat(f), true
}

// number is v as a number for comparison and arithmetic. A string reads as
// MySQL reads it there: its longest prefix of numeric text after leading
// space ('12abc' is 12, '1e2z' 100, '.5q' 0.5), 0 where there is none
// ('abc'; '0x10' is its 0).
func (v Value) number() Value {
	if v.Kind != KindString {
		return v
	}
	if n, ok := parseNumber(numericPrefix(v.S)); ok {
		return n
	}
	return NewInt(0)
}

// numericPrefix returns the longest prefix of s, leading space skipped,
// that is decimal numeric text: a sign, digits with an optional fraction,
// an optional exponent.
func numericPrefix(s string) string {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	i := 0
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	digits := 0
	for ; i < len(s) && isDigit(s[i]); i++ {
		digits++
	}
	if i < len(s) && s[i] == '.' {
		for i++; i < len(s) && isDigit(s[i]); i++ {
			digits++
		}
	}
	if digits == 0 {
		return ""
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		j := i + 1
		if j < len(s) && (s[j] == '+' || s[j] == '-') {
			j++
		}
		for ; j < len(s) && isDigit(s[j]); j++ {
			i = j + 1
		}
	}
	return s[:i]
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// compareIntFloat orders an integer and a float exactly, where converting
// the integer to a float could round it (2^53+1 is not 2^53). NaN sorts
// first, as cmp.Compare has it.
func compareIntFloat(i int64, f float64) int {
	switch {
	case math.IsNaN(f), f < -(1 << 63):
		return 1
	case f >= 1<<63:
		return -1
	}
	t := int64(f) // exact: f is in range, and truncation of a float is a float
	switch {
	case i < t:
		return -1
	case i > t:
		return 1
	case f > float64(t):
		return -1
	case f < float64(t):
		return 1
	}
	return 0
}

// KindOf reads a kind's name as Kind.String writes it, the Type column of a
// node's DESCRIBE; an unknown name is KindNull.
func KindOf(name string) Kind {
	for k := KindInt; k <= KindBool; k++ {
		if k.String() == name {
			return k
		}
	}
	return KindNull
}
