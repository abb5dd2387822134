package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"shardingsphere/internal/btree"
	"shardingsphere/internal/sqltypes"
)

// BenchmarkPKRange is one unit of a fanned-out range statement as the
// storage layer sees it: 50 shard tables of 1,000 rows, a two-row primary
// key range on one of them.
func BenchmarkPKRange(b *testing.B) {
	e := NewEngine("bench")
	const shards, rows = 50, 50000
	tables := make([]*Table, shards)
	for s := range tables {
		spec := userSpec()
		spec.Name = fmt.Sprintf("t_user_%d", s)
		if err := e.CreateTable(spec); err != nil {
			b.Fatal(err)
		}
		tables[s] = tab(e, spec.Name)
	}
	tx := e.Begin()
	for id := int64(1); id <= rows; id++ {
		if _, err := tx.Insert(tables[id%shards], row(id, fmt.Sprintf("%0120d", id), id%97)); err != nil {
			b.Fatal(err)
		}
	}
	tx.Commit()
	rng := rand.New(rand.NewSource(1))
	n := 0
	visit := func(ScanEntry) bool { n++; return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := 1 + rng.Int63n(rows-100)
		for _, t := range tables {
			keys := [2]sqltypes.Value{sqltypes.NewInt(lo), sqltypes.NewInt(lo + 99)}
			t.PKRange(0, btree.Key(keys[0:1]), btree.Key(keys[1:2]), visit)
		}
	}
	if n != 2*shards*b.N {
		b.Fatalf("visited %d rows, want %d", n, 2*shards*b.N)
	}
}
