package merge

import (
	"math"
	"slices"
	"strings"
	"testing"

	"shardingsphere/internal/resource"
	"shardingsphere/internal/rewrite"
	"shardingsphere/internal/sqlexec"
	"shardingsphere/internal/sqltypes"
)

// distinctBoth merges sources, each first deduped and ordered by keys as a
// data node answers a DISTINCT, twice: under DISTINCT and lim, which
// streams, and as the plain ordered merge that sqlexec.DistinctRows dedupes
// in memory before lim's rows are taken.
func distinctBoth(t testing.TB, keys []rewrite.OrderKey, lim *rewrite.LimitInfo, sources [][]sqltypes.Row) (got, want []sqltypes.Row) {
	t.Helper()
	cols := []string{"a", "b", "c"}
	sets := func() []resource.ResultSet {
		var out []resource.ResultSet
		for _, src := range sources {
			out = append(out, resource.NewSliceResultSet(cols, slices.Clone(src)))
		}
		return out
	}
	for i, src := range sources {
		sources[i] = sqlexec.DistinctRows(src)
		slices.SortStableFunc(sources[i], func(a, b sqltypes.Row) int { return compareByKeys(a, b, keys) })
	}
	read := func(ctx *rewrite.SelectContext) []sqltypes.Row {
		merged, err := Merge(sets(), ctx)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := resource.ReadAll(merged)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	got = read(&rewrite.SelectContext{OrderBy: keys, ColumnKeys: true, Distinct: true, Limit: lim})
	want = sqlexec.DistinctRows(read(&rewrite.SelectContext{OrderBy: keys}))
	if lim != nil {
		want = want[min(lim.Offset, int64(len(want))):]
		want = want[:min(lim.Count, int64(len(want)))]
	}
	return got, want
}

// sameValues reports whether two row lists hold the same values of the
// same kinds in the same order (NaN matching NaN).
func sameValues(a, b []sqltypes.Row) bool {
	return slices.EqualFunc(a, b, func(x, y sqltypes.Row) bool {
		return slices.EqualFunc(x, y, func(v, w sqltypes.Value) bool {
			return v.Kind == w.Kind && v.I == w.I && v.S == w.S && (v.F == w.F || math.IsNaN(v.F) && math.IsNaN(w.F))
		})
	})
}

// TestDistinctRunsMatchDistinctRows: an ordered DISTINCT that dedupes one
// run of equal keys at a time keeps exactly the rows, in the order, that
// deduping the whole merged stream in memory keeps — across value kinds
// ('2' is not 2, 2.0 is), NULLs, runs whose rows differ outside the keys,
// a run longer than the pairwise limit, and a LIMIT after the DISTINCT.
func TestDistinctRunsMatchDistinctRows(t *testing.T) {
	i, f, s, null := vi, sqltypes.NewFloat, vs, sqltypes.Null
	row := func(v ...sqltypes.Value) sqltypes.Row {
		for len(v) < 3 {
			v = append(v, null)
		}
		return v
	}
	long := func(src int) []sqltypes.Row {
		var rows []sqltypes.Row
		for n := 0; n < 40; n++ {
			rows = append(rows, row(i(1), i(int64((n*7+src)%37)), s(strings.Repeat("x", n%3))))
		}
		return rows
	}
	for _, c := range []struct {
		name    string
		keys    []rewrite.OrderKey
		lim     *rewrite.LimitInfo
		sources [][]sqltypes.Row
		rows    int
	}{
		{"kinds", []rewrite.OrderKey{{Index: 0}}, nil, [][]sqltypes.Row{
			{row(s("2")), row(i(2)), row(f(2.5))},
			{row(f(2)), row(s("2")), row(i(3))},
		}, 4},
		{"nulls", []rewrite.OrderKey{{Index: 0}, {Index: 1, Desc: true}}, nil, [][]sqltypes.Row{
			{row(null, null), row(null, i(1)), row(i(1), null)},
			{row(null, null), row(i(1), null), row(i(1), i(1))},
		}, 4},
		{"equal keys, other columns differ", []rewrite.OrderKey{{Index: 0}}, nil, [][]sqltypes.Row{
			{row(i(1), s("a")), row(i(1), s("b")), row(i(2), s("a"))},
			{row(i(1), s("b")), row(i(1), s("c")), row(i(2), s("a")), row(i(2), f(2))},
		}, 5},
		{"a run past the pairwise limit", []rewrite.OrderKey{{Index: 0}}, nil, [][]sqltypes.Row{long(0), long(3)}, 80},
		{"limit after distinct", []rewrite.OrderKey{{Index: 0, Desc: true}}, &rewrite.LimitInfo{Offset: 1, Count: 2, Revised: true}, [][]sqltypes.Row{
			{row(i(3)), row(i(3)), row(i(2))},
			{row(i(3)), row(i(2)), row(i(1)), row(i(0))},
		}, 2},
	} {
		got, want := distinctBoth(t, c.keys, c.lim, c.sources)
		if !sameValues(got, want) || len(got) != c.rows {
			t.Errorf("%s: got %v, in memory %v, want %d rows", c.name, got, want, c.rows)
		}
	}
}

// distinctKeys are the values a key column takes in FuzzDistinctRuns.
// The merger streams a DISTINCT only when its keys are table columns, each
// holding one kind; these mix kinds further, but Compare still orders them
// totally: a one-digit string orders among strings as its number does
// among numbers. Keys that mix strings and numbers more freely have no
// total order (Compare reads a string as a number only against a number),
// and the merger dedupes them in memory (TestRowsMatchOneEngine's CASE of
// '10', '9' and 9.5).
var distinctKeys = []sqltypes.Value{
	sqltypes.Null, vi(0), vi(1), vi(2), sqltypes.NewFloat(1), sqltypes.NewFloat(1.5), sqltypes.NewFloat(2),
	sqltypes.NewFloat(math.NaN()), vs("0"), vs("1"), vs("2"),
}

// distinctOthers are the values of the column that is never a key: any
// kind, and strings that a key of concatenated values would confuse.
var distinctOthers = []sqltypes.Value{
	sqltypes.Null, vi(2), sqltypes.NewFloat(2), sqltypes.NewFloat(2.5), vs("2"), vs(""), vs("a\x00sQ"), vs("Q\x00sR"), vs("a"),
}

// FuzzDistinctRuns holds the streaming ordered DISTINCT to deduping the
// whole merged stream in memory (sqlexec.DistinctRows). The first byte
// picks the sources (1-4), the keys (column a, or a and b), their
// directions and whether a LIMIT follows (the second byte its offset and
// count); every four bytes after are a row: its source and its a, b and c.
// Keys draw from distinctKeys, c from distinctOthers.
func FuzzDistinctRuns(f *testing.F) {
	f.Add([]byte{0x05, 0x21, 0, 1, 2, 3, 1, 1, 2, 4, 0, 2, 1, 6, 1, 8, 9, 7})
	f.Add([]byte{0x2e, 0x13, 0, 0, 0, 6, 1, 0, 0, 7, 2, 3, 4, 5, 3, 9, 10, 0, 0, 4, 6, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		head, limit, data := data[0], data[1], data[2:]
		sources := make([][]sqltypes.Row, 1+int(head%4))
		keys := []rewrite.OrderKey{{Index: 0, Desc: head&8 != 0}}
		if head&4 != 0 {
			keys = append(keys, rewrite.OrderKey{Index: 1, Desc: head&16 != 0})
		}
		var lim *rewrite.LimitInfo
		if head&32 != 0 {
			lim = &rewrite.LimitInfo{Offset: int64(limit % 4), Count: int64(limit / 4 % 8), Revised: true}
		}
		for ; len(data) >= 4; data = data[4:] {
			src := int(data[0]) % len(sources)
			sources[src] = append(sources[src], sqltypes.Row{
				distinctKeys[int(data[1])%len(distinctKeys)],
				distinctKeys[int(data[2])%len(distinctKeys)],
				distinctOthers[int(data[3])%len(distinctOthers)],
			})
		}
		if got, want := distinctBoth(t, keys, lim, sources); !sameValues(got, want) {
			t.Fatalf("keys %+v, limit %+v, sources %v:\n got %v\nwant %v", keys, lim, sources, got, want)
		}
	})
}
