package client

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"shardingsphere/internal/proxy"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sqlexec"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
)

// A materialized remote result decodes straight into its rows. A 100-row
// result (one batch) read through QueryBatch or Do is one exact
// allocation of rows; a result of several batches is the node's own
// answer, and costs an ack for every batch but its last.
func TestRemoteResultDecodesIntoItsRows(t *testing.T) {
	proc := sqlexec.NewProcessor(storage.NewEngine("ds0"))
	local := proc.NewSession()
	if _, err := local.Execute("CREATE TABLE t (id INT PRIMARY KEY, pad VARCHAR(200))"); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 600; id++ {
		pad := sqltypes.NewString(fmt.Sprintf("%04d%s", id, strings.Repeat("p", 100)))
		if _, err := local.Execute("INSERT INTO t (id, pad) VALUES (?, ?)", sqltypes.NewInt(int64(id)), pad); err != nil {
			t.Fatal(err)
		}
	}
	srv := proxy.NewServer(&proxy.NodeBackend{Processor: proc})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	viaBatch := func(sql string) []sqltypes.Row {
		t.Helper()
		sets, err := conn.QueryBatch(context.Background(), []resource.Statement{{SQL: sql}})
		if err != nil {
			t.Fatalf("QueryBatch %s: %v", sql, err)
		}
		return sets[0].(*resource.SliceResultSet).Data
	}
	viaDo := func(sql string) []sqltypes.Row {
		t.Helper()
		res, err := conn.Do(sql)
		if err != nil {
			t.Fatalf("Do %s: %v", sql, err)
		}
		return res.Rows.(*resource.SliceResultSet).Data
	}
	for _, read := range []struct {
		name string
		rows func(string) []sqltypes.Row
	}{{"QueryBatch", viaBatch}, {"Do", viaDo}} {
		t.Run(read.name, func(t *testing.T) {
			for _, q := range []struct {
				sql     string
				batches int64
			}{
				{"SELECT id, pad FROM t WHERE id BETWEEN 1 AND 100 ORDER BY id", 1},
				{"SELECT id, pad FROM t ORDER BY id", 5}, // ≈ 71 KB
			} {
				want, err := local.Execute(q.sql)
				if err != nil {
					t.Fatal(err)
				}
				batches, acks := conn.t.rowBatches.Load(), conn.t.batchAcks.Load()
				got := read.rows(q.sql)
				if !reflect.DeepEqual(got, want.Rows) {
					t.Fatalf("%s: %d rows differ from the node's own %d", q.sql, len(got), len(want.Rows))
				}
				if n := conn.t.rowBatches.Load() - batches; n != q.batches {
					t.Fatalf("%s: %d row batches, want %d", q.sql, n, q.batches)
				}
				if n := conn.t.batchAcks.Load() - acks; n != q.batches-1 {
					t.Fatalf("%s: %d batch acks for %d batches", q.sql, n, q.batches)
				}
				if q.batches == 1 && cap(got) != len(got) {
					t.Fatalf("%s: %d rows in a slice of %d", q.sql, len(got), cap(got))
				}
			}
		})
	}
}
