package sqltypes

import "strings"

// Row is one tuple of values.
type Row []Value

// Clone returns a deep copy of the row (Values are value types, so a slice
// copy suffices).
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// String renders the row for debugging, e.g. "(1, alice, 3.5)".
func (r Row) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range r {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.AsString())
	}
	b.WriteByte(')')
	return b.String()
}

// Column describes one column of a table or result set.
type Column struct {
	Name string
	Type Kind
}

// Schema is an ordered list of columns.
type Schema []Column

// Names returns the column names in order.
func (s Schema) Names() []string {
	names := make([]string, len(s))
	for i, c := range s {
		names[i] = c.Name
	}
	return names
}

// Index returns the position of the named column (case-insensitive), or -1.
func (s Schema) Index(name string) int {
	for i, c := range s {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}
