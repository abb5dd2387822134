package distsql

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shardingsphere/internal/core"
	"shardingsphere/internal/features/readwrite"
	"shardingsphere/internal/governor"
	"shardingsphere/internal/proxy"
	"shardingsphere/internal/registry"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqlexec"
	"shardingsphere/internal/storage"
	"shardingsphere/pkg/client"
)

// rwFixture builds a primary with two replicas behind read-write
// splitting, all seeded with the same table, plus a governor wired for
// breaker-driven failover (exec outcomes → breaker → health event →
// replica rotation).
func rwFixture(t *testing.T) (*core.Kernel, *governor.Governor) {
	t.Helper()
	sources := map[string]*resource.DataSource{}
	for _, name := range []string{"p0", "r1", "r2"} {
		ds := resource.NewEmbedded(storage.NewEngine(name), nil)
		conn, err := ds.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Exec(context.Background(), "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if _, err := conn.Exec(context.Background(), fmt.Sprintf("INSERT INTO t_user VALUES (%d, 'u%d')", i, i)); err != nil {
				t.Fatal(err)
			}
		}
		conn.Release()
		sources[name] = ds
	}
	rw, err := readwrite.New(&readwrite.Group{
		Name:     "ds_rw",
		Primary:  "p0",
		Replicas: []string{"r1", "r2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rules := sharding.NewRuleSet()
	rules.DefaultDataSource = "ds_rw"
	reg := registry.New()
	k, err := core.New(core.Config{
		Sources:  sources,
		Rules:    rules,
		Registry: reg,
		Features: []core.Feature{rw},
	})
	if err != nil {
		t.Fatal(err)
	}
	gov := governor.New(reg, k.Executor())
	k.AddGate(gov)
	Install(k, gov)
	return k, gov
}

// TestChaosReplicaOutageFailover is the chaos demo (acceptance): with one
// replica injected at 100% error rate, a concurrent read-only workload
// completes with zero client-visible errors — the breaker opens on real
// execution outcomes, the health event pulls the replica out of rotation,
// and reads fail over to the survivors.
func TestChaosReplicaOutageFailover(t *testing.T) {
	k, gov := rwFixture(t)
	s := k.NewSession()
	defer s.Close()
	exec(t, s, "INJECT FAULT r1 (ERROR_RATE = 1, SEED = 7)")

	const workers, perWorker = 4, 25
	var clientErrs atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := k.NewSession()
			defer sess.Close()
			for i := 0; i < perWorker; i++ {
				res, err := sess.Execute("SELECT * FROM t_user WHERE uid = 3")
				if err != nil {
					clientErrs.Add(1)
					continue
				}
				if _, err := resource.ReadAll(res.RS); err != nil {
					clientErrs.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := clientErrs.Load(); n != 0 {
		t.Fatalf("read-only workload saw %d client-visible errors during replica outage", n)
	}
	if st := gov.BreakerState("r1"); st != governor.BreakerOpen {
		t.Fatalf("r1 breaker should be open, got %v", st)
	}

	// The counters are visible on the DistSQL surfaces.
	counters := metrics(t, s)
	if counters["exec.retries"] == 0 || counters["resilience.failovers"] == 0 || counters["resilience.failover_success"] == 0 {
		t.Fatalf("retry/failover counters missing from SHOW METRICS: %v", counters)
	}
	breakerRows := 0
	for _, r := range rows(t, exec(t, s, "SHOW STATUS")) {
		if r[0].S == "breaker" && r[1].S == "r1" {
			breakerRows++
			if r[2].S != "open" {
				t.Fatalf("SHOW STATUS breaker row for r1: %v", r)
			}
		}
	}
	if breakerRows != 1 {
		t.Fatal("SHOW STATUS missing the r1 breaker row")
	}
	faults := rows(t, exec(t, s, "SHOW FAULTS"))
	if len(faults) != 1 || faults[0][0].S != "r1" || faults[0][3].I == 0 {
		t.Fatalf("SHOW FAULTS: %v", faults)
	}

	// Recovery: lift the fault, probe, and the replica rejoins rotation.
	exec(t, s, "REMOVE FAULT r1")
	gov.CheckOnce()
	if st := gov.BreakerState("r1"); st != governor.BreakerClosed {
		t.Fatalf("r1 breaker should close after recovery, got %v", st)
	}
	res, err := s.Execute("SELECT * FROM t_user WHERE uid = 3")
	if err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
	res.Close()
}

// TestStatementTimeoutFailFast is the fail-fast acceptance test: with one
// shard blackholed, a multi-shard SELECT under statement_timeout_ms=100
// returns within ~2× the deadline, cancels sibling shard work, and leaks
// no goroutines.
func TestStatementTimeoutFailFast(t *testing.T) {
	_, s, _ := fixture(t)
	exec(t, s, createUserRule) // shards t_user across ds0 and ds1
	exec(t, s, "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))")
	for i := 0; i < 8; i++ {
		exec(t, s, fmt.Sprintf("INSERT INTO t_user (uid, name) VALUES (%d, 'u%d')", i, i))
	}
	before := runtime.NumGoroutine()
	exec(t, s, "INJECT FAULT ds0 (HANG = true)")
	exec(t, s, "SET VARIABLE statement_timeout_ms = 100")

	start := time.Now()
	_, err := s.Execute("SELECT * FROM t_user") // full-table: all shards
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("blackholed shard should time the statement out")
	}
	if !errors.Is(err, core.ErrStatementTimeout) {
		t.Fatalf("want ErrStatementTimeout, got %v", err)
	}
	if !strings.Contains(err.Error(), "statement timeout") {
		t.Fatalf("error text: %v", err)
	}
	if elapsed > 400*time.Millisecond {
		t.Fatalf("statement took %v; deadline was 100ms (fail-fast broken)", elapsed)
	}

	// No goroutine leak: the hung sibling unblocked on cancellation.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
	}

	// The timeout is counted and surfaced.
	if metrics(t, s)["resilience.statement_timeouts"] <= 0 {
		t.Fatal("statement_timeouts counter missing from SHOW METRICS")
	}

	// Clearing the timeout and the fault restores normal execution.
	exec(t, s, "SET VARIABLE statement_timeout_ms = 0")
	exec(t, s, "REMOVE FAULT ds0")
	res, err := s.Execute("SELECT * FROM t_user")
	if err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	if got, _ := resource.ReadAll(res.RS); len(got) != 8 {
		t.Fatalf("rows after recovery: %d", len(got))
	}
}

// TestChaosHangOverMuxedRemote runs the blackhole drill against a real
// remote data node on protocol v2: a hang fault plus statement timeout
// aborts the statement quickly, and the shared multiplexed socket
// survives — follow-up statements reuse it (no redial) and SHOW REMOTE
// STATUS keeps reporting live transport counters.
func TestChaosHangOverMuxedRemote(t *testing.T) {
	proc := sqlexec.NewProcessor(storage.NewEngine("chaos-remote"))
	srv := proxy.NewServer(&proxy.NodeBackend{Processor: proc})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	remote := client.NewRemoteDataSource("remote", addr, &resource.Options{PoolSize: 8})
	rules := sharding.NewRuleSet()
	rules.DefaultDataSource = "remote"
	reg := registry.New()
	k, err := core.New(core.Config{
		Sources:  map[string]*resource.DataSource{"remote": remote},
		Rules:    rules,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	gov := governor.New(reg, k.Executor())
	k.AddGate(gov)
	Install(k, gov)
	s := k.NewSession()

	exec(t, s, "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))")
	for i := 0; i < 8; i++ {
		exec(t, s, fmt.Sprintf("INSERT INTO t_user (uid, name) VALUES (%d, 'u%d')", i, i))
	}
	socketsBefore := srv.Metrics()["connections_total"]

	exec(t, s, "INJECT FAULT remote (HANG = true)")
	exec(t, s, "SET VARIABLE statement_timeout_ms = 100")
	start := time.Now()
	if _, err := s.Execute("SELECT * FROM t_user"); err == nil {
		t.Fatal("hang fault should time the statement out")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	exec(t, s, "REMOVE FAULT remote")
	exec(t, s, "SET VARIABLE statement_timeout_ms = 0")

	// The transport recovered without redialing: the aborted statement
	// poisoned neither the socket nor sibling streams.
	res, err := s.Execute("SELECT * FROM t_user")
	if err != nil {
		t.Fatalf("source broken after fault removed: %v", err)
	}
	got := rows(t, res)
	if len(got) != 8 {
		t.Fatalf("want 8 rows back, got %d", len(got))
	}
	if after := srv.Metrics()["connections_total"]; after != socketsBefore {
		t.Fatalf("transport was redialed: %d -> %d sockets", socketsBefore, after)
	}

	// SHOW METRICS surfaces the transport counters.
	found := map[string]int64{}
	for name, v := range metrics(t, s) {
		if key, ok := strings.CutPrefix(name, "remote.remote."); ok {
			found[key] = v
		}
	}
	if len(found) == 0 {
		t.Fatal("SHOW METRICS returned no remote.remote.* rows for the remote source")
	}
	if found["sockets_open"] == 0 || found["streams_opened"] == 0 {
		t.Fatalf("transport counters missing: %v", found)
	}
}

// TestChaosHangDuringStreamingMerge hangs one of two remote shards while
// the sibling already holds an open streaming lease (memory-strict mode:
// conn-lease cursors, no drain barrier). The statement timeout must abort
// the fan-out, and the abort must close the sibling's live cursor and
// release its pooled connection — a stuck shard may cost the statement,
// never a leaked lease.
func TestChaosHangDuringStreamingMerge(t *testing.T) {
	sources := map[string]*resource.DataSource{}
	for _, name := range []string{"ds0", "ds1"} {
		srv := proxy.NewServer(&proxy.NodeBackend{Processor: sqlexec.NewProcessor(storage.NewEngine(name))})
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		sources[name] = client.NewRemoteDataSource(name, addr, &resource.Options{PoolSize: 4})
	}
	reg := registry.New()
	k, err := core.New(core.Config{
		Sources:  sources,
		Rules:    sharding.NewRuleSet(),
		Registry: reg,
		MaxCon:   4, // θ ≤ 1 on both shards: streaming conn-lease mode
	})
	if err != nil {
		t.Fatal(err)
	}
	gov := governor.New(reg, k.Executor())
	k.AddGate(gov)
	Install(k, gov)
	s := k.NewSession()

	exec(t, s, createUserRule)
	exec(t, s, "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))")
	const total = 200
	for i := 0; i < total; i++ {
		exec(t, s, fmt.Sprintf("INSERT INTO t_user (uid, name) VALUES (%d, 'u%d')", i, i))
	}

	// Warm the pools to their streaming working set (memory-strict mode
	// opens one conn per unit, growing the pool past the insert-path
	// single conn) so the goroutine baseline includes the persistent
	// per-stream transport workers.
	warm, err := s.Execute("SELECT uid, name FROM t_user ORDER BY uid")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := resource.ReadAll(warm.RS); len(got) != total {
		t.Fatalf("warmup rows: %d", len(got))
	}
	before := runtime.NumGoroutine()
	exec(t, s, "INJECT FAULT ds0 (HANG = true)")
	exec(t, s, "SET VARIABLE statement_timeout_ms = 150")

	// ORDER BY forces the streaming sort-merge across both shards; ds1's
	// cursors open and start prefetching while ds0 never answers.
	start := time.Now()
	_, err = s.Execute("SELECT uid, name FROM t_user ORDER BY uid")
	if err == nil {
		t.Fatal("hung shard should time the streaming statement out")
	}
	if !errors.Is(err, core.ErrStatementTimeout) {
		t.Fatalf("want ErrStatementTimeout, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("abort took %v; deadline was 150ms", elapsed)
	}

	// The abort must sweep the sibling's open lease back into the pool.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if sources["ds0"].Stats().InUse == 0 && sources["ds1"].Stats().InUse == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, name := range []string{"ds0", "ds1"} {
		if n := sources[name].Stats().InUse; n != 0 {
			t.Fatalf("%s leaked %d pooled conns after streaming abort", name, n)
		}
	}
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
	}

	// Recovery: the same streaming merge returns every row in order.
	exec(t, s, "REMOVE FAULT ds0")
	exec(t, s, "SET VARIABLE statement_timeout_ms = 0")
	res, err := s.Execute("SELECT uid, name FROM t_user ORDER BY uid")
	if err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	got := rows(t, res)
	if len(got) != total {
		t.Fatalf("rows after recovery: %d, want %d", len(got), total)
	}
	for i, r := range got {
		if int(r[0].I) != i {
			t.Fatalf("row %d out of order: uid=%d", i, r[0].I)
		}
	}
}
