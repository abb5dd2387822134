package proxy

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"shardingsphere/internal/core"
	"shardingsphere/internal/distsql"
	"shardingsphere/internal/protocol"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sqlexec"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
	"shardingsphere/internal/transaction"
	"shardingsphere/pkg/client"
)

// serialRows is the loop QueryBatch replaces: one Query and one read to
// the end per statement. Every window below must return what it returns.
func serialRows(t *testing.T, conn *client.Conn, stmts []resource.Statement) [][]sqltypes.Row {
	t.Helper()
	out := make([][]sqltypes.Row, len(stmts))
	for i, st := range stmts {
		rs, err := conn.Query(context.Background(), st.SQL, st.Args...)
		if err != nil {
			t.Fatalf("serial statement %d: %v", i, err)
		}
		if out[i], err = resource.ReadAll(rs); err != nil {
			t.Fatalf("serial statement %d: %v", i, err)
		}
	}
	return out
}

func batchRows(t *testing.T, sets []resource.ResultSet) [][]sqltypes.Row {
	t.Helper()
	out := make([][]sqltypes.Row, len(sets))
	for i, rs := range sets {
		rows, err := resource.ReadAll(rs)
		if err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		out[i] = rows
	}
	return out
}

// A window longer than MaxPipeline is sent in several turns, and a window
// whose every result outgrows the row-batch flow-control window is read
// while the statements behind it already wait on credit: both complete
// and return exactly the serial loop's rows.
func TestQueryBatchMatchesSerialLoop(t *testing.T) {
	const rows = 400 // × ~270 B: every full scan is > StreamWindow × DefaultBatchBytes
	addr, srv := startNodeServer(t, "qb-node")
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fillNode(t, conn, "t", rows)
	ctx := context.Background()

	points := make([]resource.Statement, 150)
	for i := range points {
		points[i] = resource.Statement{SQL: "SELECT id, pad FROM t WHERE id = ?", Args: []sqltypes.Value{sqltypes.NewInt(int64(i * 2))}}
	}
	if len(points) <= 2*client.MaxPipeline {
		t.Fatalf("test invalid: %d statements do not span three windows of %d", len(points), client.MaxPipeline)
	}
	scans := make([]resource.Statement, 10)
	for i := range scans {
		scans[i] = resource.Statement{SQL: "SELECT id, pad FROM t WHERE id >= ? ORDER BY id", Args: []sqltypes.Value{sqltypes.NewInt(int64(i))}}
	}
	for name, stmts := range map[string][]resource.Statement{"150 points": points, "10 scans": scans} {
		before := srv.Metrics()["row_batches"]
		sets, err := conn.QueryBatch(ctx, stmts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		batches := srv.Metrics()["row_batches"] - before
		if got, want := batchRows(t, sets), serialRows(t, conn, stmts); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the window's rows differ from the serial loop's", name)
		}
		if name == "10 scans" && batches <= int64(len(stmts)*protocol.StreamWindow) {
			t.Fatalf("test invalid: %d row batches for %d scans never filled the flow-control window", batches, len(stmts))
		}
	}
}

// A window of results that are one row batch each costs no ack: each
// batch's terminal frame stands in for it. A window of scans, every one
// longer than the flow-control window, needs its acks and gets them.
func TestSingleBatchResultsCostNoAck(t *testing.T) {
	addr, srv := startNodeServer(t, "ack-node")
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fillNode(t, conn, "t", 400)
	ctx := context.Background()
	// window runs stmts and returns the node's counters once every ack the
	// client sent has been counted: a ping behind them on the same stream
	// is answered only after the node's reader has dispatched them.
	window := func(stmts []resource.Statement) ([]resource.ResultSet, map[string]int64) {
		sets, err := conn.QueryBatch(ctx, stmts)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Ping(); err != nil {
			t.Fatal(err)
		}
		return sets, srv.Metrics()
	}

	points := make([]resource.Statement, 20)
	for i := range points {
		points[i] = resource.Statement{SQL: "SELECT id, pad FROM t WHERE id BETWEEN ? AND ?", Args: []sqltypes.Value{sqltypes.NewInt(int64(i * 3)), sqltypes.NewInt(int64(i*3 + 2))}}
	}
	before := srv.Metrics()
	sets, after := window(points)
	if n := after["row_batches"] - before["row_batches"]; n != int64(len(points)) {
		t.Fatalf("test invalid: %d row batches for %d single-batch results", n, len(points))
	}
	if n := after["batch_acks"] - before["batch_acks"]; n != 0 {
		t.Fatalf("%d acks for %d single-batch results, want 0", n, len(points))
	}
	if got, want := batchRows(t, sets), serialRows(t, conn, points); !reflect.DeepEqual(got, want) {
		t.Fatal("the window's rows differ from the serial loop's")
	}

	scans := []resource.Statement{{SQL: "SELECT id, pad FROM t"}, {SQL: "SELECT id, pad FROM t ORDER BY id"}}
	before = srv.Metrics()
	_, after = window(scans)
	batches, acks := after["row_batches"]-before["row_batches"], after["batch_acks"]-before["batch_acks"]
	if batches <= int64(len(scans)*protocol.StreamWindow) || acks != batches-int64(len(scans)) {
		t.Fatalf("%d scans: %d row batches, %d acks; want every batch but each scan's last acked", len(scans), batches, acks)
	}
}

// An ack names its statement: one for the statement before the one
// streaming leaves the credit alone, one for the streaming statement
// returns a batch, and none takes the count below zero.
func TestAckForFinishedStatementIsIgnored(t *testing.T) {
	st := &muxStream{}
	const k = 7
	st.credit.Store(k<<32 | 3)
	st.ack(k - 1)
	if w := st.credit.Load(); w != k<<32|3 {
		t.Fatalf("ack for seq %d while %d streams: credit word %#x", k-1, k, w)
	}
	for range 4 {
		st.ack(k)
	}
	if w := st.credit.Load(); w != k<<32 {
		t.Fatalf("acks for the streaming statement: credit word %#x, want %#x", w, uint64(k)<<32)
	}
	// Racing acks, current and stale, each count at most once.
	st.credit.Store(k<<32 | 100)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 10 {
				st.ack(uint32(k - g%2))
			}
		}()
	}
	wg.Wait()
	if w := st.credit.Load(); w != k<<32|60 {
		t.Fatalf("40 current and 40 stale racing acks: credit word %#x, want %#x", w, uint64(k)<<32|60)
	}
}

// An ack whose payload is not one statement seq — a version-3 client's
// empty ack, or a torn one — is dropped like a malformed cancel: not
// counted, and the stream keeps answering.
func TestMalformedAckIgnored(t *testing.T) {
	addr, srv := startNodeServer(t, "bad-ack")
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	r, w := bufio.NewReader(nc), bufio.NewWriter(nc)
	protocol.WriteFrame(w, protocol.FrameHello, protocol.EncodeHello(protocol.MaxFrame))
	w.Flush()
	if typ, _, err := protocol.ReadFrame(r); err != nil || typ != protocol.FrameHelloAck {
		t.Fatalf("hello ack: %#x %v", typ, err)
	}
	ping := func() {
		t.Helper()
		protocol.WriteFrameV2(w, protocol.FramePing, 1, nil)
		w.Flush()
		if typ, sid, _, err := protocol.ReadFrameV2(r, protocol.MaxFrame); err != nil || typ != protocol.FramePong || sid != 1 {
			t.Fatalf("ping on stream 1: %#x %d %v", typ, sid, err)
		}
	}
	ping() // opens stream 1
	protocol.WriteFrameV2(w, protocol.FrameBatchAck, 1, nil)
	protocol.WriteFrameV2(w, protocol.FrameBatchAck, 1, []byte{0, 0, 1})
	ping()
	if n := srv.Metrics()["batch_acks"]; n != 0 {
		t.Fatalf("%d malformed acks counted", n)
	}
}

// Statement k of a window fails at the node: the error names k, the sets
// before it come back, the responses behind it are consumed, and the next
// statement on the same connection is answered as itself.
func TestQueryBatchStatementFailureKeepsStreamAligned(t *testing.T) {
	addr, _ := startNodeServer(t, "qb-fail")
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fillNode(t, conn, "t", 8)
	ctx := context.Background()
	point := func(id int64) resource.Statement {
		return resource.Statement{SQL: "SELECT id FROM t WHERE id = ?", Args: []sqltypes.Value{sqltypes.NewInt(id)}}
	}
	for _, bad := range []resource.Statement{
		{SQL: "SELECT id FROM missing"},                   // fails at the node
		{SQL: "INSERT INTO t (id, pad) VALUES (99, 'p')"}, // answers OK, not rows
	} {
		sets, err := conn.QueryBatch(ctx, []resource.Statement{point(1), point(2), bad, point(3), point(4)})
		var be *resource.BatchError
		if !errors.As(err, &be) || be.Index != 2 {
			t.Fatalf("%s: want BatchError at index 2, got %v", bad.SQL, err)
		}
		if conn.Defunct() {
			t.Fatalf("%s: a statement error made the connection defunct", bad.SQL)
		}
		if got := batchRows(t, sets); len(got) != 2 || got[0][0][0].I != 1 || got[1][0][0].I != 2 {
			t.Fatalf("%s: sets before the failure: %v", bad.SQL, got)
		}
		rs, err := conn.Query(ctx, "SELECT id FROM t WHERE id = 7")
		if err != nil {
			t.Fatal(err)
		}
		if rows, err := resource.ReadAll(rs); err != nil || len(rows) != 1 || rows[0][0].I != 7 {
			t.Fatalf("%s: statement after the failed window got %v %v", bad.SQL, rows, err)
		}
	}
}

// A window may lead with a statement marked Verb, as a transaction
// branch's first window leads with its BEGIN: the verb's slot is nil, the
// units' sets follow it, and the verb took effect on the connection.
func TestQueryBatchLeadingVerb(t *testing.T) {
	addr, _ := startNodeServer(t, "qb-verb")
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fillNode(t, conn, "t", 8)
	ctx := context.Background()
	sets, err := conn.QueryBatch(ctx, []resource.Statement{
		{SQL: "BEGIN", Verb: true},
		{SQL: "SELECT id FROM t WHERE id = ?", Args: []sqltypes.Value{sqltypes.NewInt(3)}},
	})
	if err != nil || len(sets) != 2 || sets[0] != nil {
		t.Fatalf("window led by a verb: %v %v", sets, err)
	}
	if rows, err := resource.ReadAll(sets[1]); err != nil || len(rows) != 1 || rows[0][0].I != 3 {
		t.Fatalf("the unit behind the verb: %v %v", rows, err)
	}
	if _, err := conn.Exec(ctx, "BEGIN"); err == nil {
		t.Fatal("the window's BEGIN opened no transaction")
	}
	if _, err := conn.Exec(ctx, "ROLLBACK"); err != nil {
		t.Fatal(err)
	}
}

// A statement hangs at the node in the middle of a window and the caller
// gives up: the pooled connection is defunct and leaves the pool, and a
// sibling stream on the same socket keeps answering. The cancel fires on
// the node's own signal that the statement is wedged, not on a timer.
func TestQueryBatchAbandonedMidWindow(t *testing.T) {
	proc := sqlexec.NewProcessor(storage.NewEngine("qb-hang"))
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
	defer close(hb.release) // lets the wedged worker wind down at shutdown

	// One socket: the abandoned stream and its sibling share it.
	ds := client.NewRemoteDataSource("qb-hang", addr, &resource.Options{PoolSize: 8})
	defer ds.Close()
	var held []*resource.PooledConn
	for i := 0; i <= client.DefaultMuxSockets; i++ {
		pc, err := ds.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, pc)
	}
	victim, sibling := held[0], held[client.DefaultMuxSockets] // same transport slot
	if _, err := sibling.Exec(context.Background(), "CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-hb.hung
		cancel()
	}()
	_, err = victim.QueryBatch(ctx, []resource.Statement{
		{SQL: "SELECT id FROM t"}, {SQL: "SELECT SLEEPY"}, {SQL: "SELECT id FROM t"},
	})
	var be *resource.BatchError
	// The cancel lands on the response the client was reading: the hung
	// statement's, or the one before it if that was still in the queue.
	if !errors.As(err, &be) || be.Index > 1 || !errors.Is(err, context.Canceled) {
		t.Fatalf("want the window cancelled at or before statement 1, got %v", err)
	}
	if d, ok := victim.Conn.(resource.Defuncter); !ok || !d.Defunct() {
		t.Fatal("a window abandoned mid-read left its connection usable")
	}
	idle := ds.Stats().Idle
	victim.Release()
	if got := ds.Stats(); got.Idle != idle {
		t.Fatalf("the pool kept a defunct connection: idle %d → %d", idle, got.Idle)
	}
	rs, err := sibling.Query(context.Background(), "SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatalf("sibling stream after the abort: %v", err)
	}
	if rows, err := resource.ReadAll(rs); err != nil || len(rows) != 1 {
		t.Fatalf("sibling stream after the abort: %v %v", rows, err)
	}
	for _, pc := range held[1:] {
		pc.Release()
	}
}

// rangeKernel builds a kernel over the given sources with one table of 20
// shards, ten per source, holding ids 0..199, and returns a session whose
// transactions are of the given type.
func rangeKernel(t *testing.T, sources map[string]*resource.DataSource, tx transaction.Type) *core.Session {
	t.Helper()
	k, err := core.New(core.Config{Sources: sources, DefaultTxType: tx})
	if err != nil {
		t.Fatal(err)
	}
	distsql.Install(k, nil)
	s := k.NewSession()
	for _, sql := range []string{
		`CREATE SHARDING TABLE RULE t_r (RESOURCES(ds0, ds1), SHARDING_COLUMN = id,
			TYPE = mod, PROPERTIES("sharding-count" = 20))`,
		"CREATE TABLE t_r (id INT PRIMARY KEY, c VARCHAR(32))",
	} {
		if _, err := s.Execute(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	for i := 0; i < 200; i++ {
		if _, err := s.Execute("INSERT INTO t_r (id, c) VALUES (?, ?)", sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprint("c", i))); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func sessionRows(t *testing.T, s *core.Session, sql string) []sqltypes.Row {
	t.Helper()
	res, err := s.Execute(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	rows, err := resource.ReadAll(res.RS)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return rows
}

// Inside a LOCAL and an XA transaction a 20-unit range over two remote
// nodes returns the rows the same range returns over two embedded nodes,
// and costs each remote source exactly one pipelined window.
func TestTransactionRangeOverRemoteNodesIsOneWindowPerSource(t *testing.T) {
	for _, tx := range []transaction.Type{transaction.Local, transaction.XA} {
		t.Run(tx.String(), func(t *testing.T) {
			embedded, remote := map[string]*resource.DataSource{}, map[string]*resource.DataSource{}
			for _, name := range []string{"ds0", "ds1"} {
				embedded[name] = resource.NewEmbedded(storage.NewEngine(name), nil)
				addr, _ := startNodeServer(t, name)
				remote[name] = client.NewRemoteDataSource(name, addr, nil)
			}
			es, rs := rangeKernel(t, embedded, tx), rangeKernel(t, remote, tx)
			ranges := []string{
				"SELECT id, c FROM t_r WHERE id BETWEEN 20 AND 119 ORDER BY id",
				"SELECT COUNT(*) FROM t_r WHERE id BETWEEN 5 AND 150",
				"SELECT DISTINCT c FROM t_r WHERE id BETWEEN 40 AND 80 ORDER BY c",
			}
			for _, s := range []*core.Session{es, rs} {
				if _, err := s.Execute("BEGIN"); err != nil {
					t.Fatal(err)
				}
			}
			for _, sql := range ranges {
				want := sessionRows(t, es, sql)
				before := map[string]int64{}
				for name, ds := range remote {
					before[name] = ds.AuxMetrics()["pipelined_batches"]
				}
				if got := sessionRows(t, rs, sql); len(want) == 0 || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: remote %d rows, embedded %d rows, or they differ", sql, len(got), len(want))
				}
				for name, ds := range remote {
					if n := ds.AuxMetrics()["pipelined_batches"] - before[name]; n != 1 {
						t.Fatalf("%s: %s ran %d pipelined windows, want 1", sql, name, n)
					}
				}
			}
			for _, s := range []*core.Session{es, rs} {
				if _, err := s.Execute("COMMIT"); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// The stream worker's fill slice and encoder outlive a statement; what
// the statement produced must not: after EOF every fill slot is empty and
// the encoder holds nothing. Each batch is built in a buffer the socket
// writer handed back after writing the one before, so results
// alternating between 100 rows and 1 allocate no payload once warm.
func TestStreamBuffersHoldNothingAfterEOF(t *testing.T) {
	m := &muxConn{s: NewServer(nil), writeCh: make(chan outMsg, 8)}
	st := &muxStream{id: 1, flow: make(chan struct{}, 1), done: make(chan struct{})}
	want := []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewString(strings.Repeat("a", 100))},
		{sqltypes.NewInt(2), sqltypes.NewString(strings.Repeat("b", 100))},
	}
	noTrace := func() []byte { return nil }
	for round := 0; round < 2; round++ {
		m.streamRows(st, uint32(round+1), []string{"id", "pad"}, resource.NewSliceResultSet(nil, want), noTrace)
		var payload []byte
		for len(m.writeCh) > 0 {
			if msg := <-m.writeCh; msg.typ == protocol.FrameRowBatch {
				payload = *msg.batch
			}
		}
		if got, err := protocol.DecodeRowBatch(payload, nil); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: streamed %v %v", round, got, err)
		}
		for i, row := range st.fill {
			if row != nil {
				t.Fatalf("round %d: fill slot %d still holds a row after EOF", round, i)
			}
		}
		if st.enc.Rows() != 0 || st.enc.Size() != 0 {
			t.Fatalf("round %d: encoder holds %d rows / %d bytes after EOF", round, st.enc.Rows(), st.enc.Size())
		}
	}

	m = &muxConn{s: NewServer(nil), w: bufio.NewWriter(io.Discard), writeCh: make(chan outMsg, 256), wdone: make(chan struct{})}
	go m.writeLoop()
	defer func() { close(m.writeCh); <-m.wdone }()
	hundred := make([]sqltypes.Row, 100)
	for i := range hundred {
		hundred[i] = want[i%2]
	}
	stream := func(rows []sqltypes.Row) {
		m.streamRows(st, 1, []string{"id", "pad"}, resource.NewSliceResultSet(nil, rows), noTrace)
		m.flushBarrier() // the writer has written, and handed back, every batch
	}
	// A payload built afresh costs two allocations (its pointer and its
	// bytes), so two results must cost fewer than two more than two empty
	// ones. Reused, they cost none; under -race, where sync.Pool drops a
	// random quarter of its Puts, about one.
	empty := testing.AllocsPerRun(50, func() { stream(nil); stream(nil) })
	alternating := testing.AllocsPerRun(50, func() { stream(hundred); stream(want[:1]) })
	if alternating-empty >= 2 {
		t.Fatalf("a 100-row and a 1-row result allocate %v times, two empty results %v: payloads are not reused", alternating, empty)
	}
}
