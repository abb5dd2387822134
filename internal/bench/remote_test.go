package bench_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"shardingsphere/internal/bench"
	"shardingsphere/internal/proxy"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sqlexec"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
)

// seededProcessor builds a query processor over one sbtest-style table.
func seededProcessor(t *testing.T, rows int) *sqlexec.Processor {
	t.Helper()
	proc := sqlexec.NewProcessor(storage.NewEngine("bench-node"))
	sess := proc.NewSession()
	if _, err := sess.Execute("CREATE TABLE sbtest (id INT PRIMARY KEY, k INT, c VARCHAR(64))"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i += 100 {
		sql := "INSERT INTO sbtest (id, k, c) VALUES "
		for j := 0; j < 100 && i+j < rows; j++ {
			if j > 0 {
				sql += ", "
			}
			sql += fmt.Sprintf("(%d, %d, 'row-%d')", i+j, (i+j)%97, i+j)
		}
		if _, err := sess.Execute(sql); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()
	return proc
}

// startBenchNode launches a data node seeded with one sbtest-style
// table, mirroring the cmd/datanode deployment.
func startBenchNode(t *testing.T, rows int) (string, *proxy.Server) {
	t.Helper()
	srv := proxy.NewServer(&proxy.NodeBackend{Processor: seededProcessor(t, rows)})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return addr, srv
}

func pointSelect(rows int) bench.TxFunc {
	return func(c bench.Client, rng *rand.Rand) error {
		_, err := c.Query("SELECT c FROM sbtest WHERE id = ?", sqltypes.NewInt(int64(rng.Intn(rows))))
		return err
	}
}

var contextBG = context.Background()

// pooledClient adapts a pooled remote conn to the bench Client shape.
type pooledClient struct {
	pc *resource.PooledConn
}

func (c *pooledClient) Exec(sql string, args ...sqltypes.Value) error {
	_, err := c.pc.Exec(contextBG, sql, args...)
	return err
}

func (c *pooledClient) Query(sql string, args ...sqltypes.Value) ([]sqltypes.Row, error) {
	rs, err := c.pc.Query(contextBG, sql, args...)
	if err != nil {
		return nil, err
	}
	return resource.ReadAll(rs)
}

func (c *pooledClient) Close() { c.pc.Release() }
