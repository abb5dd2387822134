package proxy

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"shardingsphere/internal/protocol"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sqlexec"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
	"shardingsphere/pkg/client"
)

// startNodeServer is startNode but also returns the server for metrics.
func startNodeServer(t *testing.T, name string) (string, *Server) {
	t.Helper()
	proc := sqlexec.NewProcessor(storage.NewEngine(name))
	srv := NewServer(&NodeBackend{Processor: proc})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return addr, srv
}

// TestPipelinedConcurrency hammers one multiplexed transport from many
// goroutines, each running its own stream of parameterized inserts and
// point selects. Run under -race it doubles as the data-race check for
// the demux/flush-coalescing paths.
func TestPipelinedConcurrency(t *testing.T) {
	addr, srv := startNodeServer(t, "mux-conc")
	tr, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	setup, err := tr.OpenConn()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Exec(context.Background(), "CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	setup.Close()

	const workers = 8
	const stmts = 40
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := tr.OpenConn()
			if err != nil {
				errCh <- err
				return
			}
			defer conn.Close()
			ctx := context.Background()
			for i := 0; i < stmts; i++ {
				id := w*stmts + i
				if _, err := conn.Exec(ctx, "INSERT INTO t (id, v) VALUES (?, ?)",
					sqltypes.NewInt(int64(id)), sqltypes.NewInt(int64(id))); err != nil {
					errCh <- fmt.Errorf("worker %d insert %d: %w", w, i, err)
					return
				}
				rs, err := conn.Query(ctx, "SELECT v FROM t WHERE id = ?", sqltypes.NewInt(int64(id)))
				if err != nil {
					errCh <- fmt.Errorf("worker %d select %d: %w", w, i, err)
					return
				}
				rows, err := resource.ReadAll(rs)
				if err != nil || len(rows) != 1 || rows[0][0].I != int64(id) {
					errCh <- fmt.Errorf("worker %d select %d: rows=%v err=%v", w, i, rows, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// All workers shared one socket.
	if got := srv.connsTotal.Load(); got != 1 {
		t.Fatalf("expected 1 TCP connection, server saw %d", got)
	}
	if got := srv.streamsOpened.Load(); got < workers {
		t.Fatalf("expected >= %d streams, server saw %d", workers, got)
	}
}

// TestExecBatchPipelined sends a multi-statement batch down one stream
// and checks per-statement error attribution.
func TestExecBatchPipelined(t *testing.T) {
	addr, _ := startNodeServer(t, "mux-batch")
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx := context.Background()
	if _, err := conn.Exec(ctx, "CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	stmts := make([]resource.Statement, 0, 100)
	for i := 0; i < 100; i++ {
		stmts = append(stmts, resource.Statement{
			SQL:  "INSERT INTO t (id) VALUES (?)",
			Args: []sqltypes.Value{sqltypes.NewInt(int64(i))},
		})
	}
	results, err := conn.ExecBatch(ctx, stmts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 100 {
		t.Fatalf("want 100 results, got %d", len(results))
	}
	// A failing statement mid-batch reports its index; earlier results
	// still come back.
	bad := []resource.Statement{
		{SQL: "INSERT INTO t (id) VALUES (?)", Args: []sqltypes.Value{sqltypes.NewInt(1000)}},
		{SQL: "INSERT INTO missing (id) VALUES (1)"},
		{SQL: "INSERT INTO t (id) VALUES (?)", Args: []sqltypes.Value{sqltypes.NewInt(1001)}},
	}
	results, err = conn.ExecBatch(ctx, bad)
	var be *resource.BatchError
	if !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("want BatchError at index 1, got %v", err)
	}
	if len(results) != 1 {
		t.Fatalf("want 1 result before the failure, got %d", len(results))
	}
	// The stream stays usable after a batch error.
	rs, err := conn.Query(ctx, "SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := resource.ReadAll(rs)
	if len(rows) != 1 {
		t.Fatalf("count rows: %v", rows)
	}
}

// hangBackend wraps the node backend; statements containing the marker
// block until release is closed, everything else passes through.
type hangBackend struct {
	inner   Backend
	release chan struct{}
	hung    chan struct{} // receives one token per hung statement
}

func (b *hangBackend) NewBackendSession() BackendSession {
	return &hangSession{inner: b.inner.NewBackendSession(), b: b}
}

type hangSession struct {
	inner BackendSession
	b     *hangBackend
}

func (s *hangSession) Execute(sql string, args []sqltypes.Value) ([]string, resource.ResultSet, int64, int64, error) {
	if strings.Contains(sql, "SLEEPY") {
		s.b.hung <- struct{}{}
		<-s.b.release
		return nil, nil, 0, 0, fmt.Errorf("hung statement released")
	}
	return s.inner.Execute(sql, args)
}

func (s *hangSession) Close() { s.inner.Close() }

// TestHungStreamDoesNotStallSiblings parks one stream inside a hung
// statement and proves sibling streams on the same socket keep serving.
func TestHungStreamDoesNotStallSiblings(t *testing.T) {
	proc := sqlexec.NewProcessor(storage.NewEngine("mux-hang"))
	hb := &hangBackend{
		inner:   &NodeBackend{Processor: proc},
		release: make(chan struct{}),
		hung:    make(chan struct{}, 1),
	}
	srv := NewServer(hb)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	tr, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	hungConn, err := tr.OpenConn()
	if err != nil {
		t.Fatal(err)
	}
	hungCtx, hungCancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer hungCancel()
	hungDone := make(chan error, 1)
	go func() {
		_, err := hungConn.Exec(hungCtx, "SELECT SLEEPY")
		hungDone <- err
	}()
	<-hb.hung // the statement is wedged inside its stream worker

	// A sibling stream on the same socket must make progress now.
	sibling, err := tr.OpenConn()
	if err != nil {
		t.Fatal(err)
	}
	defer sibling.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := sibling.Exec(ctx, "CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatalf("sibling stalled behind hung stream: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := sibling.Exec(ctx, "INSERT INTO t (id) VALUES (?)", sqltypes.NewInt(int64(i))); err != nil {
			t.Fatalf("sibling insert %d: %v", i, err)
		}
	}
	if got := srv.connsTotal.Load(); got != 1 {
		t.Fatalf("test invalid: expected shared socket, got %d conns", got)
	}

	// The hung caller's deadline fires: its logical conn dies, the
	// shared transport does not.
	if err := <-hungDone; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung statement should hit its deadline, got %v", err)
	}
	if !hungConn.Defunct() {
		t.Fatal("abandoned conn must be defunct")
	}
	if _, err := sibling.Exec(ctx, "INSERT INTO t (id) VALUES (100)"); err != nil {
		t.Fatalf("sibling broken after stream abort: %v", err)
	}
	hungConn.Close()
	// Unwedge the server worker so shutdown doesn't wait on it; its late
	// response targets a closed stream and is dropped by the demuxer.
	close(hb.release)
}

// TestMuxSocketBudget drives 64 logical connections through a remote
// data source and checks the server saw only the mux socket budget, not
// one TCP connection per logical conn.
func TestMuxSocketBudget(t *testing.T) {
	addr, srv := startNodeServer(t, "mux-budget")
	const logical = 64
	ds := client.NewRemoteDataSource("remote", addr, &resource.Options{PoolSize: logical})
	t.Cleanup(func() { ds.Close() })

	setup, err := ds.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Exec(context.Background(), "CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	setup.Release()

	// Check out all logical conns at once, use each, release.
	conns := make([]*resource.PooledConn, 0, logical)
	for i := 0; i < logical; i++ {
		pc, err := ds.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, pc)
	}
	var wg sync.WaitGroup
	for i, pc := range conns {
		wg.Add(1)
		go func(i int, pc *resource.PooledConn) {
			defer wg.Done()
			pc.Exec(context.Background(), "INSERT INTO t (id) VALUES (?)", sqltypes.NewInt(int64(i)))
		}(i, pc)
	}
	wg.Wait()
	for _, pc := range conns {
		pc.Release()
	}

	if got := srv.connsTotal.Load(); got > client.DefaultMuxSockets {
		t.Fatalf("%d logical conns used %d sockets; budget is %d", logical, got, client.DefaultMuxSockets)
	}
	m := ds.AuxMetrics()
	if m == nil {
		t.Fatal("remote data source reports no aux metrics")
	}
	if m["sockets_open"] > int64(client.DefaultMuxSockets) {
		t.Fatalf("aux metrics report %d sockets open", m["sockets_open"])
	}
	rs, err := func() (resource.ResultSet, error) {
		pc, err := ds.Acquire()
		if err != nil {
			return nil, err
		}
		defer pc.Release()
		return pc.Query(context.Background(), "SELECT COUNT(*) FROM t")
	}()
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := resource.ReadAll(rs)
	if len(rows) != 1 || rows[0][0].I != logical {
		t.Fatalf("want %d rows inserted, got %v", logical, rows)
	}
}

// TestClientDefunctOnOversizedFrame feeds the client a frame that
// claims a payload beyond the negotiated limit; the logical conn must
// go defunct (so the pool discards it) instead of misreading the
// stream.
func TestClientDefunctOnOversizedFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The fake server holds its socket open until the test is done, and the
	// test waits for it to return.
	release, served := make(chan struct{}), make(chan struct{})
	defer func() { close(release); <-served }()
	defer ln.Close()
	go func() {
		defer close(served)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		r := bufio.NewReader(nc)
		w := bufio.NewWriter(nc)
		// Accept the v2 handshake.
		if typ, _, err := protocol.ReadFrame(r); err != nil || typ != protocol.FrameHello {
			return
		}
		protocol.WriteFrame(w, protocol.FrameHelloAck, protocol.EncodeHello(protocol.MaxFrame))
		w.Flush()
		// Wait for the first statement, then answer with a frame header
		// claiming a 1GB payload.
		if _, _, _, err := protocol.ReadFrameV2(r, protocol.MaxFrame); err != nil {
			return
		}
		var hdr [9]byte
		binary.BigEndian.PutUint32(hdr[0:4], 1<<30)
		hdr[4] = protocol.FrameOK
		binary.BigEndian.PutUint32(hdr[5:9], 1)
		nc.Write(hdr[:])
		// Keep the socket open so the client error comes from the size
		// check, not a broken pipe.
		<-release
	}()

	conn, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = conn.Exec(ctx, "INSERT INTO t VALUES (1)")
	if err == nil {
		t.Fatal("oversized frame must fail the call")
	}
	if !errors.Is(err, protocol.ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	if !conn.Defunct() {
		t.Fatal("conn must be defunct after a framing violation")
	}
}

// TestDoExecutesOnce guards against Do probing the statement kind by
// running it twice (Query then Exec): on a v2 stream the server's reply
// is already OK-or-rows, so one send must suffice. A double-executed
// INSERT would fail on the duplicate primary key and leave two rows'
// worth of statement counts.
func TestDoExecutesOnce(t *testing.T) {
	addr, srv := startNodeServer(t, "do-once")
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if _, err := conn.Do("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	res, err := conn.Do("INSERT INTO t VALUES (1)")
	if err != nil {
		t.Fatalf("insert via Do: %v", err)
	}
	if res.Rows != nil || res.Exec.Affected != 1 {
		t.Fatalf("insert result: %+v", res)
	}
	res, err = conn.Do("SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows == nil {
		t.Fatal("select via Do returned no row set")
	}
	rows, err := resource.ReadAll(res.Rows)
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows: %v %v", rows, err)
	}
	// Exactly three statements reached the backend.
	if got := srv.Metrics()["statements"]; got != 3 {
		t.Fatalf("statements executed: want 3, got %d", got)
	}
	// A remote error leaves the conn usable and is not retried as exec.
	if _, err := conn.Do("INSERT INTO t VALUES (1)"); err == nil {
		t.Fatal("duplicate insert should fail")
	}
	if got := srv.Metrics()["statements"]; got != 4 {
		t.Fatalf("statements after error: want 4, got %d", got)
	}
	if conn.Defunct() {
		t.Fatal("remote error must not defunct the conn")
	}
}
