package storage

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"shardingsphere/internal/sqltypes"
)

// TestBytesPerStoredRow bounds the live heap a committed sbtest-shaped row
// costs (INT id, INT k, a 119-byte c, a 59-byte pad; an index on k): its
// version, its slot and its two tree entries. Each row's strings are fresh
// allocations, as a parsed statement's are. Measured on linux/amd64 with
// Go 1.24: a []Value version with strings of their own read 547 bytes a
// row, a record 403.
func TestBytesPerStoredRow(t *testing.T) {
	const rows, bound = 20000, 475
	e := NewEngine("heap")
	if err := e.CreateTable(TableSpec{
		Name: "sbtest",
		Schema: sqltypes.Schema{
			{Name: "id", Type: sqltypes.KindInt},
			{Name: "k", Type: sqltypes.KindInt},
			{Name: "c", Type: sqltypes.KindString},
			{Name: "pad", Type: sqltypes.KindString},
		},
		PrimaryKey: []string{"id"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex(IndexSpec{Name: "k_idx", Table: "sbtest", Columns: []string{"k"}}); err != nil {
		t.Fatal(err)
	}
	tbl := tab(e, "sbtest")
	text := func(n int, id int64) string {
		s := fmt.Sprintf("%011d-", id)
		return s + strings.Repeat("x", n-len(s))
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for id := int64(1); id <= rows; {
		tx := e.Begin()
		for end := id + 100; id < end; id++ {
			r := sqltypes.Row{sqltypes.NewInt(id), sqltypes.NewInt(id % 5000),
				sqltypes.NewString(text(119, id)), sqltypes.NewString(text(59, id))}
			if _, err := tx.Insert(tbl, r); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	perRow := float64(heap()-before) / rows
	runtime.KeepAlive(e)
	t.Logf("%.0f bytes per stored row", perRow)
	if perRow > bound {
		t.Errorf("a stored row costs %.0f bytes of live heap, want at most %d", perRow, bound)
	}
}
