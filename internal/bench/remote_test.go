package bench_test

import (
	"fmt"
	"math/rand"
	"testing"

	"shardingsphere/internal/bench"
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

func pointSelect(rows int) bench.TxFunc {
	return func(c bench.Client, rng *rand.Rand) error {
		_, err := c.Query("SELECT c FROM sbtest WHERE id = ?", sqltypes.NewInt(int64(rng.Intn(rows))))
		return err
	}
}
