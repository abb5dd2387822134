package proxy

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"shardingsphere/internal/core"
	"shardingsphere/internal/distsql"
	"shardingsphere/internal/protocol"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/pkg/client"
)

// waitFor polls cond for up to 5s — the settle window for async teardown
// (stream workers unwinding, conn leases releasing back to their pools).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// fillNode creates a padded table on conn and bulk-loads rows of ~300
// encoded bytes each, so row batches stay small and flow-control windows
// are hit with modest row counts.
func fillNode(t *testing.T, conn *client.Conn, table string, rows int) {
	t.Helper()
	ctx := context.Background()
	if _, err := conn.Exec(ctx, fmt.Sprintf("CREATE TABLE %s (id INT PRIMARY KEY, pad VARCHAR(300))", table)); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 256)
	stmts := make([]resource.Statement, 0, rows)
	for i := 0; i < rows; i++ {
		stmts = append(stmts, resource.Statement{
			SQL:  fmt.Sprintf("INSERT INTO %s (id, pad) VALUES (?, ?)", table),
			Args: []sqltypes.Value{sqltypes.NewInt(int64(i)), sqltypes.NewString(pad)},
		})
	}
	if _, err := conn.ExecBatch(ctx, stmts); err != nil {
		t.Fatal(err)
	}
}

// TestCursorCancelEarlyStop abandons a large result after three rows;
// the cursor-cancel frame must stop the server-side producer long before
// it ships the whole table, and the stream must stay usable for the next
// statement (the cancel is seq-matched, not sticky).
func TestCursorCancelEarlyStop(t *testing.T) {
	const total = 4000
	addr, srv := startNodeServer(t, "cancel-node")
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fillNode(t, conn, "t", total)

	ctx := context.Background()
	rs, err := conn.Query(ctx, "SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := rs.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}

	m := srv.Metrics()
	if m["cursor_cancels"] != 1 {
		t.Fatalf("cursor_cancels = %d, want 1", m["cursor_cancels"])
	}
	// The producer stopped at roughly the flow-control window, not the
	// full table. (Window + fill-buffer slack is well under half.)
	if m["rows_streamed"] >= total/2 {
		t.Fatalf("server streamed %d of %d rows after cancel (early stop broken)", m["rows_streamed"], total)
	}

	// A later statement on the same stream is unaffected: the stale
	// cancel targets the abandoned statement's seq, not the stream.
	rs, err = conn.Query(ctx, "SELECT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := resource.ReadAll(rs)
	if err != nil || len(rows) != total {
		t.Fatalf("follow-up query after cancel: %d rows, err %v", len(rows), err)
	}
	if got := srv.Metrics()["cursor_cancels"]; got != 1 {
		t.Fatalf("follow-up query was cancelled: cursor_cancels = %d", got)
	}
}

// TestStreamWindowBounded parks a consumer before its first row and
// proves the server stops at the window: it parks for credit with
// exactly StreamWindow batches sent, they all land in the client's
// queue, and nothing more is produced until the consumer reads on — the
// memory bound that lets a k-way merge over many shards hold a few
// batches per source instead of whole results.
func TestStreamWindowBounded(t *testing.T) {
	const total = 3000
	addr, srv := startNodeServer(t, "window-node")
	ds := client.NewRemoteDataSource("window", addr, &resource.Options{PoolSize: 2})
	t.Cleanup(ds.Close)

	pc, err := ds.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	fillNode(t, pc.Conn.(*client.Conn), "t", total)

	rs, err := pc.Query(context.Background(), "SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	var parked map[string]int64
	waitFor(t, "the node to park for credit", func() bool {
		parked = srv.Metrics()
		return parked["credit_waits"] >= 1
	})
	if parked["row_batches"] != protocol.StreamWindow {
		t.Fatalf("node parked after %d row batches, want %d", parked["row_batches"], protocol.StreamWindow)
	}
	waitFor(t, "the window to land in the client queue", func() bool {
		return ds.AuxMetrics()["batch_window_peak"] >= protocol.StreamWindow
	})
	if m := ds.AuxMetrics(); m["batch_window_peak"] != protocol.StreamWindow || m["rows_streamed"] != 0 {
		t.Fatalf("stalled consumer: %d batches queued, %d rows taken", m["batch_window_peak"], m["rows_streamed"])
	}
	if now := srv.Metrics(); now["rows_streamed"] != parked["rows_streamed"] || now["row_batches"] != protocol.StreamWindow {
		t.Fatalf("parked node moved: rows %d → %d, batches %d", parked["rows_streamed"], now["rows_streamed"], now["row_batches"])
	}
	rows, err := resource.ReadAll(rs)
	if err != nil || len(rows) != total {
		t.Fatalf("stalled stream delivered %d rows, err %v", len(rows), err)
	}
	pc.Release()

	m := ds.AuxMetrics()
	if m["batch_window_peak"] < 1 || m["batch_window_peak"] > protocol.StreamWindow {
		t.Fatalf("batch_window_peak = %d, want within (0, %d]", m["batch_window_peak"], protocol.StreamWindow)
	}
	if m["rows_streamed"] != total {
		t.Fatalf("rows_streamed = %d, want %d", m["rows_streamed"], total)
	}
	if m["batches_streamed"] < total/200 {
		t.Fatalf("batches_streamed = %d — result did not move in batches", m["batches_streamed"])
	}
	if m["bytes_streamed"] == 0 {
		t.Fatal("bytes_streamed not counted")
	}
}

// streamFixture is the full streaming deployment: two remote data nodes,
// a kernel sharding t_user across them, a proxy serving the kernel, and
// handles on every layer's metrics.
type streamFixture struct {
	proxyAddr string
	proxy     *Server
	nodes     []*Server
	sources   map[string]*resource.DataSource
}

func startStreamFixture(t *testing.T, rowsPerShard int) *streamFixture {
	t.Helper()
	f := &streamFixture{sources: map[string]*resource.DataSource{}}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("ds%d", i)
		addr, srv := startNodeServer(t, name)
		f.nodes = append(f.nodes, srv)
		f.sources[name] = client.NewRemoteDataSource(name, addr, &resource.Options{PoolSize: 8})
	}
	k, err := core.New(core.Config{Sources: f.sources, MaxCon: 4})
	if err != nil {
		t.Fatal(err)
	}
	distsql.Install(k, nil)
	f.proxy = NewServer(&KernelBackend{Kernel: k})
	f.proxyAddr, err = f.proxy.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.proxy.Close)

	conn, err := client.Dial(f.proxyAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx := context.Background()
	if _, err := conn.Exec(ctx, `CREATE SHARDING TABLE RULE t_user (
		RESOURCES(ds0, ds1), SHARDING_COLUMN = uid, TYPE = mod,
		PROPERTIES("sharding-count" = 2))`); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(ctx, "CREATE TABLE t_user (uid INT PRIMARY KEY, pad VARCHAR(300))"); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 256)
	stmts := make([]resource.Statement, 0, 2*rowsPerShard)
	for i := 0; i < 2*rowsPerShard; i++ {
		stmts = append(stmts, resource.Statement{
			SQL:  "INSERT INTO t_user (uid, pad) VALUES (?, ?)",
			Args: []sqltypes.Value{sqltypes.NewInt(int64(i)), sqltypes.NewString(pad)},
		})
	}
	if _, err := conn.ExecBatch(ctx, stmts); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *streamFixture) nodeRowsStreamed() int64 {
	var sum int64
	for _, n := range f.nodes {
		sum += n.Metrics()["rows_streamed"]
	}
	return sum
}

func (f *streamFixture) poolsIdle() bool {
	for _, ds := range f.sources {
		if ds.Stats().InUse != 0 {
			return false
		}
	}
	return true
}

// TestStreamingLimitStopsShards: a cross-shard ORDER BY ... LIMIT
// through the proxy ships only the limit window from each data node —
// the rewriter's pushdown bounds what shards produce, and the merge path
// releases every shard lease the moment the quota is met.
func TestStreamingLimitStopsShards(t *testing.T) {
	const perShard = 2000
	f := startStreamFixture(t, perShard)
	conn, err := client.Dial(f.proxyAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	rs, err := conn.Query(context.Background(), "SELECT uid, pad FROM t_user ORDER BY uid LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := resource.ReadAll(rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 || rows[0][0].I != 0 || rows[4][0].I != 4 {
		t.Fatalf("limited merge result: %v", rows)
	}

	total := int64(2 * perShard)
	if streamed := f.nodeRowsStreamed(); streamed >= total/2 {
		t.Fatalf("shards streamed %d of %d rows for a LIMIT 5 (early stop broken)", streamed, total)
	}
	waitFor(t, "shard pools to drain", f.poolsIdle)
}

// TestClientAbandonCascadesCancelToShards is the tentpole cascade: the
// client abandons an unlimited cross-shard ORDER BY after a few rows.
// Its cursor cancel stops the proxy's stream worker, which closes the
// merged set, whose shard leases each fire their own cursor cancel at
// the data nodes — so every layer stops producing with the bulk of both
// shards' rows never shipped.
func TestClientAbandonCascadesCancelToShards(t *testing.T) {
	const perShard = 2000
	f := startStreamFixture(t, perShard)
	conn, err := client.Dial(f.proxyAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	rs, err := conn.Query(context.Background(), "SELECT uid, pad FROM t_user ORDER BY uid")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := rs.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}

	if got := f.proxy.Metrics()["cursor_cancels"]; got != 1 {
		t.Fatalf("proxy cursor_cancels = %d, want 1", got)
	}
	// The shard-level cancels propagate from the proxy's deferred merge
	// teardown, which runs after the proxy acks the client's cancel.
	waitFor(t, "cancel to cascade to both data nodes", func() bool {
		for _, n := range f.nodes {
			if n.Metrics()["cursor_cancels"] == 0 {
				return false
			}
		}
		return true
	})
	waitFor(t, "shard pools to drain after abandon", f.poolsIdle)
	total := int64(2 * perShard)
	if streamed := f.nodeRowsStreamed(); streamed >= total/2 {
		t.Fatalf("shards streamed %d of %d rows after abandon (cascade broken)", streamed, total)
	}
	// The client's logical connection is still usable after the abandon.
	rs, err = conn.Query(context.Background(), "SELECT COUNT(*) FROM t_user")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := resource.ReadAll(rs)
	if err != nil || len(rows) != 1 || rows[0][0].I != total {
		t.Fatalf("follow-up count after abandon: %v %v", rows, err)
	}
}

// TestClientKillMidStreamReleasesEverything tears the client transport
// down mid-stream and proves the whole pipeline unwinds: the proxy's
// stream worker (parked on flow-control credit) exits, the merged set
// closes, every shard lease returns to its pool, and no goroutines leak.
func TestClientKillMidStreamReleasesEverything(t *testing.T) {
	f := startStreamFixture(t, 2000)
	before := runtime.NumGoroutine()

	tr, err := client.DialMux(f.proxyAddr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := tr.OpenConn()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := conn.Query(context.Background(), "SELECT uid, pad FROM t_user ORDER BY uid")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := rs.Next(); err != nil {
			t.Fatal(err)
		}
	}
	// Kill the whole transport with the stream mid-flight.
	tr.Close()

	waitFor(t, "shard pools to drain after client kill", f.poolsIdle)
	waitFor(t, "proxy to settle", func() bool {
		return f.proxy.Metrics()["in_flight"] == 0
	})
	waitFor(t, "goroutines to unwind", func() bool {
		return runtime.NumGoroutine() <= before
	})
}

// TestDatanodeKillMidStream kills one shard's node while its rows are
// mid-merge: the client sees the error, the surviving shard's cursor is
// cancelled and released, and the proxy keeps serving.
func TestDatanodeKillMidStream(t *testing.T) {
	f := startStreamFixture(t, 2000)
	conn, err := client.Dial(f.proxyAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	rs, err := conn.Query(context.Background(), "SELECT uid, pad FROM t_user ORDER BY uid")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := rs.Next(); err != nil {
			t.Fatal(err)
		}
	}
	f.nodes[0].Close()
	// The merge needs more rows than the windows buffered; the dead
	// shard's cursor must surface the failure.
	rows, err := resource.ReadAll(rs)
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("stream over a dead shard should error, got %d rows, err=%v", len(rows), err)
	}

	waitFor(t, "shard pools to drain after node kill", f.poolsIdle)
	// The proxy is still serving (statements that don't touch the dead
	// shard, like DistSQL, keep working).
	conn2, err := client.Dial(f.proxyAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	rs, err = conn2.Query(context.Background(), "SHOW METRICS")
	if err != nil {
		t.Fatalf("proxy dead after shard failure: %v", err)
	}
	if _, err := resource.ReadAll(rs); err != nil {
		t.Fatal(err)
	}
}
