// Package sqltypes defines the value, row and schema types shared by every
// layer of the system: the storage engines, the per-node query processor,
// the sharding kernel, the mergers and the wire protocol.
//
// Values are a small concrete struct rather than interface{} so rows can be
// copied and compared without per-cell heap allocation, which matters on the
// hot path of the executor and the stream mergers.
package sqltypes

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// The supported value kinds. They deliberately mirror the small set of
// SQL-92 types the paper's data sources need: integers, floating point,
// character data and NULL. Booleans appear only as expression results.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single SQL value. The zero Value is NULL.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{Kind: KindInt, I: v} }

// NewFloat returns a floating-point value.
func NewFloat(v float64) Value { return Value{Kind: KindFloat, F: v} }

// NewString returns a character value.
func NewString(v string) Value { return Value{Kind: KindString, S: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	if v {
		return Value{Kind: KindBool, I: 1}
	}
	return Value{Kind: KindBool}
}

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// Bool reports the truth value; NULL and zero values are false.
func (v Value) Bool() bool {
	switch v.Kind {
	case KindBool, KindInt:
		return v.I != 0
	case KindFloat:
		return v.F != 0
	case KindString:
		return v.S != ""
	default:
		return false
	}
}

// AsInt reads the value as an integer: a FLOAT truncates, and a string
// reads by Coerce's INT rule ('7', ' 7 ' and '7.0' are 7), 0 where that
// rule refuses it ('7.5', '12abc').
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KindInt, KindBool:
		return v.I
	case KindFloat:
		return int64(v.F)
	case KindString:
		if n, ok := coerce(v, KindInt); ok {
			return n.I
		}
		return 0
	default:
		return 0
	}
}

// AsFloat coerces the value to a float64.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt, KindBool:
		return float64(v.I)
	case KindFloat:
		return v.F
	case KindString:
		return v.number().AsFloat()
	default:
		return 0
	}
}

// AsString renders the value as its SQL text form without quotes.
func (v Value) AsString() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return ""
	}
}

// SQLLiteral renders the value as a literal that can be embedded in a SQL
// statement, quoting and escaping strings.
func (v Value) SQLLiteral() string {
	if v.Kind == KindString {
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	}
	return v.AsString()
}

// String implements fmt.Stringer for debugging.
func (v Value) String() string { return v.AsString() }

// Compare orders two values. NULL sorts before everything (as in MySQL's
// ORDER BY). Two strings compare lexicographically; any other pair compares
// numerically and exactly, a string read as its number (number), as the
// expression evaluator reads it, and NaN before every other number.
func Compare(a, b Value) int {
	if a.Kind == KindInt && b.Kind == KindInt {
		return cmp.Compare(a.I, b.I)
	}
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	switch {
	case a.Kind == KindString && b.Kind == KindString:
		return strings.Compare(a.S, b.S)
	case a.Kind == KindString:
		a = a.number()
	case b.Kind == KindString:
		b = b.number()
	}
	switch af, bf := a.Kind == KindFloat, b.Kind == KindFloat; {
	case af && bf:
		return cmp.Compare(a.F, b.F)
	case af:
		return -compareIntFloat(b.I, a.F)
	case bf:
		return compareIntFloat(a.I, b.F)
	}
	return cmp.Compare(a.I, b.I)
}

// Equal reports whether two values compare equal under Compare, with the
// SQL caveat that NULL never equals anything, including NULL.
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	return Compare(a, b) == 0
}

// Add returns a+b with numeric promotion (int+int stays int).
func Add(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	if a.Kind == KindInt && b.Kind == KindInt {
		return NewInt(a.I + b.I)
	}
	return NewFloat(a.AsFloat() + b.AsFloat())
}

// Sub returns a-b with numeric promotion.
func Sub(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	if a.Kind == KindInt && b.Kind == KindInt {
		return NewInt(a.I - b.I)
	}
	return NewFloat(a.AsFloat() - b.AsFloat())
}

// Mul returns a*b with numeric promotion.
func Mul(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	if a.Kind == KindInt && b.Kind == KindInt {
		return NewInt(a.I * b.I)
	}
	return NewFloat(a.AsFloat() * b.AsFloat())
}

// Div returns a/b; division always yields a float (as in PostgreSQL's
// float division and MySQL's "/" operator) and NULL on division by zero.
func Div(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	d := b.AsFloat()
	if d == 0 {
		return Null
	}
	return NewFloat(a.AsFloat() / d)
}

// Mod returns a%b on integers and NULL on division by zero.
func Mod(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	d := b.AsInt()
	if d == 0 {
		return Null
	}
	return NewInt(a.AsInt() % d)
}
