package sqlexec

import (
	"fmt"
	"testing"

	"shardingsphere/internal/sqltypes"
)

// DistinctRows compares small sets pairwise and hashes larger ones; both
// keep the first of each set of equal rows under one value identity (2
// and 2.0 are one value, NULL equals NULL), in order.
func TestDistinctRowsSameOnBothSides(t *testing.T) {
	for _, n := range []int{distinctSmall - 1, distinctSmall, distinctSmall + 1, 4 * distinctSmall} {
		var rows, want []sqltypes.Row
		for i := 0; i < n; i++ {
			v := []sqltypes.Value{sqltypes.NewInt(int64(i % 5)), sqltypes.NewFloat(float64(i % 5)), sqltypes.Null}[i%3]
			rows = append(rows, sqltypes.Row{v, sqltypes.NewString(fmt.Sprint(i % 4))})
		}
		for _, r := range rows {
			dup := false
			for _, kept := range want {
				dup = dup || sameRow(kept, r)
			}
			if !dup {
				want = append(want, r)
			}
		}
		if got := DistinctRows(append([]sqltypes.Row(nil), rows...)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%d rows: kept %v, want %v", n, got, want)
		}
	}
}

// TestDistinctRowsKeepsStringsApart: a string's bytes cannot pass for
// several values, so ('a\x00sQ', 'R') and ('a', 'Q\x00sR') stay two rows
// when there are enough rows to hash, in DistinctRows and in Dedup.
func TestDistinctRowsKeepsStringsApart(t *testing.T) {
	a := sqltypes.Row{sqltypes.NewString("a\x00sQ"), sqltypes.NewString("R")}
	b := sqltypes.Row{sqltypes.NewString("a"), sqltypes.NewString("Q\x00sR")}
	rows := []sqltypes.Row{a}
	for i := 0; i < distinctSmall; i++ {
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.Null})
	}
	rows = append(rows, b)
	var d Dedup
	kept := 0
	for _, r := range rows {
		if d.Add(r) {
			kept++
		}
	}
	if got := DistinctRows(rows); len(got) != len(rows) || kept != len(rows) {
		t.Fatalf("%d rows: DistinctRows kept %d, Dedup %d", len(rows), len(got), kept)
	}
}
