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
