package storage

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"shardingsphere/internal/sqltypes"
)

// TestBytesPerStoredRow bounds the live heap a committed sbtest-shaped row
// costs (INT id, INT k, a 119-byte c, a 59-byte pad; an index on k): its
// version, its slot and its two tree entries. Each row's strings are fresh
// allocations, as a parsed statement's are. Measured on linux/amd64 with
// Go 1.24: a []Value version with strings of their own read 547 bytes a
// row, a record 403, and with append splits, a 48-byte slot and a 1,024-byte
// node 342.
func TestBytesPerStoredRow(t *testing.T) {
	const rows, bound = 20000, 400
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

// TestBytesPerStoredVarcharKeyRow bounds the live heap of a row whose
// primary key is a VARCHAR, which the tree keeps as a tuple (a 20-byte
// name, a 200-byte pad), after loading and again after updating every
// row's pad once. The tree copies the key's string: a key that viewed its
// record kept the first version's whole record alive after the update.
// Measured on linux/amd64 with Go 1.24: with the key viewing its record
// 429 bytes a row after loading and 669 after the update, with the key's
// string copied 453 and 453, and with append splits, a 48-byte slot and a
// 1,024-byte node 395 and 395.
func TestBytesPerStoredVarcharKeyRow(t *testing.T) {
	const rows, bound = 20000, 450
	e := NewEngine("heap")
	if err := e.CreateTable(TableSpec{
		Name:       "s",
		Schema:     sqltypes.Schema{{Name: "name", Type: sqltypes.KindString}, {Name: "pad", Type: sqltypes.KindString}},
		PrimaryKey: []string{"name"},
	}); err != nil {
		t.Fatal(err)
	}
	tbl := tab(e, "s")
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	name := func(id int) string { return fmt.Sprintf("name-%015d", id) }
	for id := 0; id < rows; {
		tx := e.Begin()
		for end := id + 100; id < end; id++ {
			r := sqltypes.Row{sqltypes.NewString(name(id)), sqltypes.NewString(strings.Repeat("a", 200))}
			if _, err := tx.Insert(tbl, r); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	loaded := float64(heap()-before) / rows
	var key [1]sqltypes.Value
	for id := 0; id < rows; {
		tx := e.Begin()
		for end := id + 100; id < end; id++ {
			key[0] = sqltypes.NewString(name(id))
			se, ok := tbl.PKGet(tx.ID(), key[:])
			if !ok {
				t.Fatalf("row %d missing", id)
			}
			pad := strings.Repeat("b", 200)
			if _, err := tx.Update(tbl, se, nil, func(cur sqltypes.Row) (sqltypes.Row, error) {
				return sqltypes.Row{cur[0], sqltypes.NewString(pad)}, nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	updated := float64(heap()-before) / rows
	runtime.KeepAlive(e)
	t.Logf("%.0f bytes per stored row after loading, %.0f after an update of each", loaded, updated)
	if loaded > bound || updated > bound {
		t.Errorf("a stored row costs %.0f bytes of live heap after loading and %.0f after an update, want at most %d", loaded, updated, bound)
	}
}

// TestRowSlotSize pins a slot at 48 bytes, its size class: one more field
// would cost every row 16 bytes.
func TestRowSlotSize(t *testing.T) {
	if size := unsafe.Sizeof(rowSlot{}); size != 48 {
		t.Fatalf("rowSlot is %d bytes, want 48", size)
	}
}
