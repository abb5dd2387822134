package proxy

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"shardingsphere/internal/core"
	"shardingsphere/internal/distsql"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sqlexec"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
	"shardingsphere/pkg/client"
)

// startNode launches a data node server over a fresh engine.
func startNode(t *testing.T, name string) (addr string) {
	t.Helper()
	proc := sqlexec.NewProcessor(storage.NewEngine(name))
	srv := NewServer(&NodeBackend{Processor: proc})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return addr
}

func TestDataNodeOverTCP(t *testing.T) {
	addr := startNode(t, "node0")
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(context.Background(), "CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))"); err != nil {
		t.Fatal(err)
	}
	res, err := conn.Exec(context.Background(), "INSERT INTO t VALUES (1, 'a'), (2, 'b')")
	if err != nil || res.Affected != 2 {
		t.Fatalf("insert: %+v %v", res, err)
	}
	rs, err := conn.Query(context.Background(), "SELECT * FROM t WHERE id = ?", sqltypes.NewInt(2))
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := resource.ReadAll(rs)
	if len(rows) != 1 || rows[0][1].S != "b" {
		t.Fatalf("query: %v", rows)
	}
	// Remote errors surface with the message.
	if _, err := conn.Query(context.Background(), "SELECT * FROM missing"); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("remote error: %v", err)
	}
	// Transactions keep session state across frames.
	if _, err := conn.Exec(context.Background(), "BEGIN"); err != nil {
		t.Fatal(err)
	}
	conn.Exec(context.Background(), "UPDATE t SET v = 'x' WHERE id = 1")
	conn.Exec(context.Background(), "ROLLBACK")
	rs, _ = conn.Query(context.Background(), "SELECT v FROM t WHERE id = 1")
	rows, _ = resource.ReadAll(rs)
	if rows[0][0].S != "a" {
		t.Fatalf("tx over wire: %v", rows)
	}
}

// startShardedProxy builds the paper's full deployment: two networked data
// nodes, a kernel sharding t_user across them, and a proxy serving the
// kernel over TCP. Returns the proxy address.
func startShardedProxy(t *testing.T) string {
	t.Helper()
	sources := map[string]*resource.DataSource{}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("ds%d", i)
		addr := startNode(t, name)
		sources[name] = client.NewRemoteDataSource(name, addr, nil)
		t.Cleanup(sources[name].Close)
	}
	k, err := core.New(core.Config{Sources: sources, MaxCon: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(distsql.Install(k).Close)
	srv := NewServer(&KernelBackend{Kernel: k})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return addr
}

func TestProxyEndToEndSharded(t *testing.T) {
	addr := startShardedProxy(t)
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Configure sharding through the proxy with DistSQL, then use it like
	// one database — the paper's headline workflow.
	if _, err := conn.Exec(context.Background(), `CREATE SHARDING TABLE RULE t_user (
		RESOURCES(ds0, ds1), SHARDING_COLUMN = uid, TYPE = mod,
		PROPERTIES("sharding-count" = 4))`); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(context.Background(), "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := conn.Exec(context.Background(), "INSERT INTO t_user (uid, name) VALUES (?, ?)",
			sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("u%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := conn.Query(context.Background(), "SELECT COUNT(*) FROM t_user")
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := resource.ReadAll(rs)
	if rows[0][0].I != 12 {
		t.Fatalf("count through proxy: %v", rows)
	}
	rs, err = conn.Query(context.Background(), "SELECT name FROM t_user WHERE uid = 7")
	if err != nil {
		t.Fatal(err)
	}
	rows, _ = resource.ReadAll(rs)
	if len(rows) != 1 || rows[0][0].S != "u7" {
		t.Fatalf("point query through proxy: %v", rows)
	}
	// Cross-shard ORDER BY + LIMIT through the proxy.
	rs, err = conn.Query(context.Background(), "SELECT uid FROM t_user ORDER BY uid DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	rows, _ = resource.ReadAll(rs)
	if len(rows) != 3 || rows[0][0].I != 11 {
		t.Fatalf("order through proxy: %v", rows)
	}
	// Distributed transaction through the proxy.
	if _, err := conn.Exec(context.Background(), "BEGIN"); err != nil {
		t.Fatal(err)
	}
	conn.Exec(context.Background(), "UPDATE t_user SET name = 'tx' WHERE uid IN (0, 1, 2, 3)")
	conn.Exec(context.Background(), "ROLLBACK")
	rs, _ = conn.Query(context.Background(), "SELECT COUNT(*) FROM t_user WHERE name = 'tx'")
	rows, _ = resource.ReadAll(rs)
	if rows[0][0].I != 0 {
		t.Fatalf("tx through proxy: %v", rows)
	}
}

func TestProxyConcurrentClients(t *testing.T) {
	addr := startShardedProxy(t)
	setup, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	setup.Exec(context.Background(), `CREATE SHARDING TABLE RULE t (RESOURCES(ds0, ds1), SHARDING_COLUMN = id, TYPE = mod, PROPERTIES("sharding-count" = 2))`)
	setup.Exec(context.Background(), "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	setup.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			for i := 0; i < 25; i++ {
				id := int64(w*100 + i)
				if _, err := conn.Exec(context.Background(), "INSERT INTO t (id, v) VALUES (?, ?)",
					sqltypes.NewInt(id), sqltypes.NewInt(id)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	check, _ := client.Dial(addr)
	defer check.Close()
	rs, err := check.Query(context.Background(), "SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := resource.ReadAll(rs)
	if rows[0][0].I != 200 {
		t.Fatalf("concurrent inserts: %v", rows)
	}
}

type denyAll struct{}

func (denyAll) Acquire() bool { return false }

func TestProxyThrottling(t *testing.T) {
	proc := sqlexec.NewProcessor(storage.NewEngine("n"))
	srv := NewServer(&NodeBackend{Processor: proc})
	srv.SetLimiter(denyAll{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Exec(context.Background(), "SELECT 1"); err == nil || !strings.Contains(err.Error(), "throttled") {
		t.Fatalf("throttle: %v", err)
	}
	// Ping is not throttled.
	if err := conn.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	proc := sqlexec.NewProcessor(storage.NewEngine("n"))
	srv := NewServer(&NodeBackend{Processor: proc})
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close()
}

// goroutinesIn counts the goroutines with a frame, or a creator, whose
// name contains fn. On one P, its yield lets a goroutine that a Close's
// Wait has already released, an earlier test's too, finish returning.
func goroutinesIn(fn string) int {
	runtime.Gosched()
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, fn) {
			count++
		}
	}
	return count
}

// TestCloseWaitsForItsGoroutines: once Close returns, the accept loop
// that Start began is gone, and so are a dialed client's demux and write
// loops. The stacks are read right after Close, with no sleep and no
// poll; one P keeps a goroutine that Close only woke from running first.
func TestCloseWaitsForItsGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const serve, transport = "internal/proxy.(*Server).Start", "pkg/client.(*Transport)"
	serving, dialed := goroutinesIn(serve), goroutinesIn(transport)
	idle := NewServer(&NodeBackend{Processor: sqlexec.NewProcessor(storage.NewEngine("idle"))})
	if _, err := idle.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	idle.Close()
	if n := goroutinesIn(serve) - serving; n != 0 {
		t.Errorf("%d goroutines Start began are left after the server's Close", n)
	}
	addr := startNode(t, "n")
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(context.Background(), "CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if n := goroutinesIn(transport) - dialed; n != 0 {
		t.Errorf("%d transport goroutines left after the conn's Close", n)
	}
}

func TestServerMetricsMove(t *testing.T) {
	proc := sqlexec.NewProcessor(storage.NewEngine("metrics-node"))
	srv := NewServer(&NodeBackend{Processor: proc})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(context.Background(), "CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(context.Background(), "INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	rs, err := conn.Query(context.Background(), "SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resource.ReadAll(rs); err != nil {
		t.Fatal(err)
	}
	// A failing statement bumps the error counter.
	if _, err := conn.Query(context.Background(), "SELECT * FROM missing"); err == nil {
		t.Fatal("expected remote error")
	}

	m := srv.Metrics()
	if m["connections_total"] != 1 || m["connections_active"] != 1 {
		t.Fatalf("connection counters: %v", m)
	}
	if m["statements"] != 4 {
		t.Fatalf("statements: %v", m)
	}
	if m["errors"] != 1 {
		t.Fatalf("errors: %v", m)
	}
	if m["bytes_in"] <= 0 || m["bytes_out"] <= 0 {
		t.Fatalf("byte counters: %v", m)
	}
	// The worker leaves in_flight after queueing the terminal frame, so
	// the client can read the reply a moment before the gauge settles.
	waitFor(t, "in_flight to settle", func() bool { return srv.Metrics()["in_flight"] == 0 })

	conn.Close()
	// The handler goroutine may still be winding down; poll briefly.
	for i := 0; i < 100; i++ {
		if srv.Metrics()["connections_active"] == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := srv.Metrics()["connections_active"]; got != 0 {
		t.Fatalf("active after close: %d", got)
	}
}

// A kernel routes by logic table: a proxy over one refuses a statement
// over a table list instead of running its text, and the stream stays
// usable.
func TestKernelBackendRefusesTableList(t *testing.T) {
	conn, err := client.Dial(startShardedProxy(t))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx := context.Background()
	_, err = conn.QueryBatch(ctx, []resource.Statement{{SQL: "SELECT 1", Tables: []string{"t_0", "t_1"}}})
	if err == nil || !strings.Contains(err.Error(), sqlexec.ErrTableList.Error()) {
		t.Fatalf("a kernel ran a table list: %v", err)
	}
	rs, err := conn.Query(ctx, "SELECT 1")
	if err != nil {
		t.Fatalf("the stream after the refusal: %v", err)
	}
	rs.Close()
}
