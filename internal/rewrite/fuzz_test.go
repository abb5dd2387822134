package rewrite

import (
	"strings"
	"testing"

	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
)

// FuzzBindMatchesReference writes fuzzed values into an equivalence shape
// as literals, normalizes the text as the kernel does (a negative number
// becomes "- ?", a string holding "?" or a quote becomes an argument), compiles the resulting shape once and binds it
// twice — the captured values, then a variation of them — holding every
// binding to referenceRewrite on a fresh parse.
func FuzzBindMatchesReference(f *testing.F) {
	router, dialect := equivalenceFixture(f)
	for i := range equivalenceShapes {
		f.Add(uint8(i), int64(1), int64(6), 1.5, "x")
		f.Add(uint8(i), int64(-3), int64(0), -0.25, "it's a ?")
	}
	f.Fuzz(func(t *testing.T, shape uint8, a, b int64, x float64, s string) {
		pool := []sqltypes.Value{sqltypes.NewInt(a), sqltypes.NewInt(b), sqltypes.NewString(s), sqltypes.NewFloat(x), sqltypes.NewInt(-a)}
		pieces := strings.Split(equivalenceShapes[int(shape)%len(equivalenceShapes)].sql, "?")
		var text strings.Builder
		for i, piece := range pieces[:len(pieces)-1] {
			text.WriteString(piece)
			text.WriteString(pool[i%len(pool)].SQLLiteral())
		}
		text.WriteString(pieces[len(pieces)-1])
		key, first := text.String(), []sqltypes.Value(nil) // DDL is compiled as written
		if norm, ok := sqlparser.Normalize(key); ok {
			bound, err := norm.BindArgs(nil)
			if err != nil {
				t.Fatal(err)
			}
			key, first = norm.Key, bound
		}
		if _, err := sqlparser.Parse(key); err != nil {
			t.Skip("the value does not read back as a literal")
		}
		second := make([]sqltypes.Value, len(first))
		for i, v := range first {
			switch v.Kind {
			case sqltypes.KindInt:
				second[i] = sqltypes.NewInt(v.I + 1)
			case sqltypes.KindString:
				second[i] = sqltypes.NewString(v.S + "'?")
			default:
				second[i] = sqltypes.NewInt(int64(i))
			}
		}
		bindTwice(t, router, dialect, key, [2][]sqltypes.Value{first, second}, new(keptResults))
	})
}
