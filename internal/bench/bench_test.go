package bench_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"shardingsphere/internal/bench"
	"shardingsphere/internal/bench/sysbench"
	"shardingsphere/internal/sqltypes"
)

func TestRunCollectsMetrics(t *testing.T) {
	sys, err := bench.NewSingle("single", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := bench.PrepareOn(sys, func(c bench.Client) error {
		return c.Exec("CREATE TABLE t (id INT PRIMARY KEY)")
	}); err != nil {
		t.Fatal(err)
	}
	m, err := bench.Run(bench.Options{Workers: 4, Duration: 200 * time.Millisecond},
		sys.NewClient,
		func(c bench.Client, rng *rand.Rand) error {
			_, err := c.Query("SELECT COUNT(*) FROM t")
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	if m.Count == 0 || m.TPS <= 0 || m.Errors != 0 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.P99Ms < m.P90Ms || m.AvgMs <= 0 {
		t.Fatalf("percentiles: %+v", m)
	}
}

func TestRunCountsErrorsWithoutStopping(t *testing.T) {
	sys, err := bench.NewSingle("single", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	m, err := bench.Run(bench.Options{Workers: 2, Duration: 100 * time.Millisecond},
		sys.NewClient,
		func(c bench.Client, rng *rand.Rand) error {
			return errors.New("always fails")
		})
	if err != nil {
		t.Fatal(err)
	}
	if m.Errors == 0 || m.Count != 0 {
		t.Fatalf("error accounting: %+v", m)
	}
}

func TestRunClientFactoryErrorFails(t *testing.T) {
	_, err := bench.Run(bench.Options{Workers: 2, Duration: 50 * time.Millisecond},
		func(int) (bench.Client, error) { return nil, errors.New("no client") },
		func(bench.Client, *rand.Rand) error { return nil })
	if err == nil {
		t.Fatal("factory error swallowed")
	}
}

func TestSysbenchScenariosPreserveRowCount(t *testing.T) {
	// The Read Write scenario deletes and reinserts the same id inside a
	// transaction, so the row count is invariant.
	cfg := sysbench.DefaultConfig(500)
	sys, err := bench.NewSSJ(bench.Topology{Sources: 2, TablesPerSource: 2, MaxCon: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := bench.PrepareOn(sys, func(c bench.Client) error {
		return sysbench.Prepare(c, cfg)
	}); err != nil {
		t.Fatal(err)
	}
	c, err := sys.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(3))
	for _, scenario := range []bench.TxFunc{cfg.PointSelect(), cfg.ReadOnly(), cfg.WriteOnly(), cfg.ReadWrite()} {
		for i := 0; i < 5; i++ {
			if err := scenario(c, rng); err != nil {
				t.Fatal(err)
			}
		}
	}
	rows, err := c.Query("SELECT COUNT(*) FROM sbtest")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].I != 500 {
		t.Fatalf("row count changed: %v", rows)
	}
}

func TestSysbenchDataDistributes(t *testing.T) {
	cfg := sysbench.DefaultConfig(400)
	sys, err := bench.NewSSJ(bench.Topology{Sources: 2, TablesPerSource: 2, MaxCon: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := bench.PrepareOn(sys, func(c bench.Client) error {
		return sysbench.Prepare(c, cfg)
	}); err != nil {
		t.Fatal(err)
	}
	// Every shard holds exactly rows/shards rows (MOD on a dense id space).
	for i := 0; i < 2; i++ {
		src, _ := sys.Kernel.Executor().Source(fmt.Sprintf("ds%d", i))
		conn, _ := src.Acquire()
		for _, table := range []string{} {
			_ = table
		}
		rs, err := conn.Query(context.Background(), "SHOW TABLES")
		if err != nil {
			t.Fatal(err)
		}
		var tables []string
		for {
			row, e := rs.Next()
			if e != nil {
				break
			}
			tables = append(tables, row[0].S)
		}
		rs.Close()
		for _, table := range tables {
			crs, err := conn.Query(context.Background(), "SELECT COUNT(*) FROM "+table)
			if err != nil {
				t.Fatal(err)
			}
			cnt, _ := crs.Next()
			crs.Close()
			if cnt[0].I != 100 {
				t.Fatalf("%s holds %d rows, want 100", table, cnt[0].I)
			}
		}
		conn.Release()
	}
}

func TestRemoteClientAgainstSSP(t *testing.T) {
	sys, err := bench.NewSSP(bench.Topology{Sources: 2, MaxCon: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	cfg := sysbench.DefaultConfig(200)
	if err := bench.PrepareOn(sys, func(c bench.Client) error {
		return sysbench.Prepare(c, cfg)
	}); err != nil {
		t.Fatal(err)
	}
	c, err := sys.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows, err := c.Query("SELECT c FROM sbtest WHERE id = ?", sqltypes.NewInt(42))
	if err != nil || len(rows) != 1 {
		t.Fatalf("remote point select: %v %v", rows, err)
	}
	if err := cfg.ReadWrite()(c, rand.New(rand.NewSource(1))); err != nil {
		t.Fatalf("remote read-write tx: %v", err)
	}
}

func TestRandString(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := bench.RandString(rng, 119)
	if len(s) != 119 {
		t.Fatalf("length: %d", len(s))
	}
}

// --- plan-cache benchmarks ---
//
// Repeated-shape point selects on one topology; the parallel variant
// exercises the plan cache's sharded-lock design under concurrent
// sessions. (What a missed shape costs is the gated benchmark's
// point_select / cold_shapes pair.)

func planCacheSystem(b *testing.B) (*bench.System, sysbench.Config) {
	b.Helper()
	sys, err := bench.NewSSJ(bench.Topology{
		Sources: 2, TablesPerSource: 2, MaxCon: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sysbench.DefaultConfig(1000)
	if err := bench.PrepareOn(sys, func(c bench.Client) error {
		return sysbench.Prepare(c, cfg)
	}); err != nil {
		b.Fatal(err)
	}
	return sys, cfg
}

func BenchmarkPointSelectCached(b *testing.B) {
	sys, _ := planCacheSystem(b)
	defer sys.Close()
	c, err := sys.NewClient(0)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := sqltypes.NewInt(int64(rng.Intn(1000)))
		if _, err := c.Query("SELECT c FROM sbtest WHERE id = ?", id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPointSelectCachedParallel(b *testing.B) {
	sys, _ := planCacheSystem(b)
	defer sys.Close()
	var seed int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c, err := sys.NewClient(0)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		rng := rand.New(rand.NewSource(atomic.AddInt64(&seed, 1)))
		for pb.Next() {
			id := sqltypes.NewInt(int64(rng.Intn(1000)))
			if _, err := c.Query("SELECT c FROM sbtest WHERE id = ?", id); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRepeatedShapeSysbench runs the sysbench point-select scenario —
// the repeated-shape OLTP workload the cache targets.
func BenchmarkRepeatedShapeSysbench(b *testing.B) {
	sys, cfg := planCacheSystem(b)
	defer sys.Close()
	c, err := sys.NewClient(0)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	scenario := cfg.PointSelect()
	rng := rand.New(rand.NewSource(11))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := scenario(c, rng); err != nil {
			b.Fatal(err)
		}
	}
}
