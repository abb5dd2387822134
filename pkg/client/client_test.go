package client

import (
	"bufio"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"shardingsphere/internal/admission"
	"shardingsphere/internal/protocol"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sqltypes"
)

// fakePeer listens on loopback and runs serve on every accepted socket;
// gone receives one token each time a served socket has been closed by
// the client (serve returned), so tests can wait for "no socket left
// open" as an event.
type fakePeer struct {
	addr string
	gone chan struct{}
}

func startPeer(t *testing.T, serve func(nc net.Conn)) *fakePeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Sized so serve goroutines never block on a test that stopped
	// listening; no test opens more sockets than this.
	p := &fakePeer{addr: ln.Addr().String(), gone: make(chan struct{}, 16)}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				serve(nc)
				nc.Close()
				p.gone <- struct{}{}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return p
}

func (p *fakePeer) waitGone(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-p.gone:
		case <-time.After(5 * time.Second):
			t.Fatalf("socket %d of %d still open", i+1, n)
		}
	}
}

// refuseHello answers the client's Hello with one error frame, then
// waits for the client to hang up.
func refuseHello(msg string) func(net.Conn) {
	return func(nc net.Conn) {
		r, w := bufio.NewReader(nc), bufio.NewWriter(nc)
		if typ, _, err := protocol.ReadFrame(r); err != nil || typ != protocol.FrameHello {
			return
		}
		protocol.WriteFrame(w, protocol.FrameError, protocol.EncodeError(msg))
		w.Flush()
		r.ReadByte() // returns when the client closes
	}
}

// An accept-time rejection answers the Hello, so it must surface from
// Dial itself, typed, with no conn to misuse.
func TestDialSurfacesTypedOverload(t *testing.T) {
	shed := &admission.OverloadedError{Reason: admission.ReasonConnLimit, RetryAfter: 40 * time.Millisecond}
	p := startPeer(t, refuseHello(shed.Error()))
	conn, err := Dial(p.addr)
	if conn != nil {
		t.Fatal("rejected dial returned a conn")
	}
	reason, after, ok := IsOverloaded(err)
	if !ok || reason != admission.ReasonConnLimit || after != shed.RetryAfter {
		t.Fatalf("IsOverloaded(%v) = %q, %v, %v", err, reason, after, ok)
	}
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("rejection is not a remote error: %v", err)
	}
	p.waitGone(t, 1)
}

// A pre-v2 server answers the Hello with "unknown frame", a server built
// for another version with an error naming both. Every way of opening a
// connection fails inside the dial timeout with the typed remote error,
// which names the protocol and carries the server's words, and none of
// them keeps the socket.
func TestDialAgainstOtherVersionServerFails(t *testing.T) {
	for _, msg := range []string{
		"proxy: unknown frame",
		"proxy: protocol: peer speaks version 4, this build speaks version 3",
	} {
		p := startPeer(t, refuseHello(msg))
		check := func(what string, err error) {
			t.Helper()
			if err == nil {
				t.Fatalf("%s succeeded against a server that refused the Hello", what)
			}
			if !strings.Contains(err.Error(), "protocol v2") || !strings.Contains(err.Error(), msg) || !errors.Is(err, ErrRemote) {
				t.Fatalf("%s: error does not name the protocol and the refusal: %v", what, err)
			}
		}
		start := time.Now()
		_, err := Dial(p.addr)
		check("Dial", err)
		_, err = DialMux(p.addr)
		check("DialMux", err)
		ds := NewRemoteDataSource("old", p.addr, &resource.Options{PoolSize: 2})
		_, err = ds.Acquire()
		check("Acquire", err)
		ds.Close()
		if d := time.Since(start); d >= dialTimeout {
			t.Fatalf("three refused dials took %v", d)
		}
		p.waitGone(t, 3)
	}
}

// A version-2 server does not refuse a newer Hello: it acks with its
// own version (and its capability word). The dial fails on that ack, by
// number, and closes the socket. The ack's bytes are spelled out.
func TestDialAgainstVersion2AckFails(t *testing.T) {
	p := startPeer(t, func(nc net.Conn) {
		r := bufio.NewReader(nc)
		if typ, _, err := protocol.ReadFrame(r); err != nil || typ != protocol.FrameHello {
			return
		}
		// HelloAck: | len=12 | type=0x16 | version=2 | maxFrame=16MiB | caps=0b111 |
		nc.Write([]byte{0, 0, 0, 12, 0x16, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 7})
		r.ReadByte() // returns when the client closes
	})
	conn, err := Dial(p.addr)
	if conn != nil || err == nil || !strings.Contains(err.Error(), "peer speaks version 2") {
		t.Fatalf("dial against a version-2 ack: %v, %v", conn, err)
	}
	p.waitGone(t, 1)
}

// A peer that accepts and never answers the Hello must fail the dial at
// the handshake deadline instead of hanging it.
func TestHandshakeDeadline(t *testing.T) {
	p := startPeer(t, func(nc net.Conn) {
		nc.Read(make([]byte, 1<<10)) // swallow the Hello
		nc.Read(make([]byte, 1))     // say nothing until the client closes
	})
	tr, err := negotiate(p.addr, 50*time.Millisecond)
	if tr != nil {
		t.Fatal("silent peer produced a transport")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("want a deadline error, got %v", err)
	}
	p.waitGone(t, 1)
}

// scriptedV2 is a minimal v2 server: it acks the Hello, answers a SELECT
// with a header and one one-row batch and then goes quiet on that stream
// (an open cursor: statements pipelined behind it are read, not
// answered), answers any other statement with OK(1), and reports every
// FrameStreamClose it receives and, when answered is not nil, every
// statement it has read.
func scriptedV2(closed chan<- uint32, answered chan<- string) func(net.Conn) {
	return func(nc net.Conn) {
		r, w := bufio.NewReader(nc), bufio.NewWriter(nc)
		if typ, _, err := protocol.ReadFrame(r); err != nil || typ != protocol.FrameHello {
			return
		}
		protocol.WriteFrame(w, protocol.FrameHelloAck, protocol.EncodeHello(protocol.MaxFrame))
		w.Flush()
		open := map[uint32]bool{}
		for {
			typ, sid, payload, err := protocol.ReadFrameV2(r, protocol.MaxFrame)
			if err != nil {
				return
			}
			switch typ {
			case protocol.FrameQuery:
				_, body, _ := protocol.SplitTraceContext(payload)
				sql, _, _ := protocol.DecodeQuery(body)
				switch {
				case open[sid]:
				case strings.HasPrefix(sql, "SELECT"):
					open[sid] = true
					var enc protocol.BatchEncoder
					enc.Append(sqltypes.Row{sqltypes.NewInt(7)})
					protocol.WriteFrameV2(w, protocol.FrameHeader, sid, protocol.EncodeHeader([]string{"v"}))
					protocol.WriteFrameV2(w, protocol.FrameRowBatch, sid, *enc.Payload())
				default:
					protocol.WriteFrameV2(w, protocol.FrameOK, sid, protocol.EncodeOK(1, 0))
				}
				w.Flush()
				if answered != nil {
					answered <- sql
				}
			case protocol.FrameStreamClose:
				closed <- sid
			}
		}
	}
}

// Cancelling the context in the middle of a cursor abandons only that
// stream: the conn goes defunct, the server is told to tear the stream
// down, and a sibling on the same socket keeps answering.
func TestCancelMidCursorLeavesSiblingsAlone(t *testing.T) {
	closed := make(chan uint32, 1)
	p := startPeer(t, scriptedV2(closed, nil))
	tr, err := DialMux(p.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cur, err := tr.OpenConn()
	if err != nil {
		t.Fatal(err)
	}
	sib, err := tr.OpenConn()
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rs, err := cur.Query(ctx, "SELECT v FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if row, err := rs.Next(); err != nil || row[0].I != 7 {
		t.Fatalf("first row: %v %v", row, err)
	}
	cancel()
	if _, err := rs.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("read past a cancelled context: %v", err)
	}
	if !cur.Defunct() {
		t.Fatal("abandoned conn is not defunct")
	}
	select {
	case sid := <-closed:
		if sid != cur.st.id {
			t.Fatalf("stream close named stream %d, cursor was on %d", sid, cur.st.id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never saw FrameStreamClose")
	}
	rs.Close()

	res, err := sib.Exec(context.Background(), "UPDATE t SET v = 1")
	if err != nil || res.Affected != 1 {
		t.Fatalf("sibling after the abort: %+v %v", res, err)
	}
	if sib.Defunct() || !tr.Healthy() {
		t.Fatal("the abort damaged the shared transport")
	}
}

// A caller that gives up in the middle of a pipelined read window leaves
// the conn defunct with the stream torn down at the server, whichever
// response it was reading; the sibling stream on the socket is untouched.
// The peer never finishes the first statement's cursor, and the cancel
// fires once it has read the window's last statement.
func TestQueryBatchCancelMidWindow(t *testing.T) {
	closed, answered := make(chan uint32, 1), make(chan string, 3)
	p := startPeer(t, scriptedV2(closed, answered))
	tr, err := DialMux(p.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	win, err := tr.OpenConn()
	if err != nil {
		t.Fatal(err)
	}
	sib, err := tr.OpenConn()
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for i := 0; i < 3; i++ {
			<-answered
		}
		cancel()
	}()
	before := tr.pipelined.Load()
	sets, err := win.QueryBatch(ctx, []resource.Statement{{SQL: "SELECT 1"}, {SQL: "SELECT 2"}, {SQL: "SELECT 3"}})
	var be *resource.BatchError
	if !errors.As(err, &be) || be.Index != 0 || !errors.Is(err, context.Canceled) || len(sets) != 0 {
		t.Fatalf("want the first (never finished) response cancelled, got %d sets, %v", len(sets), err)
	}
	if got := tr.pipelined.Load() - before; got != 1 {
		t.Fatalf("three statements went out as %d windows", got)
	}
	if !win.Defunct() {
		t.Fatal("abandoned conn is not defunct")
	}
	// Its stream is gone: a statement on it fails at once instead of
	// waiting for a reply nothing routes back.
	if _, err := win.Exec(context.Background(), "ROLLBACK"); !errors.Is(err, resource.ErrConnClosed) {
		t.Fatalf("statement on a defunct conn: %v", err)
	}
	select {
	case sid := <-closed:
		if sid != win.st.id {
			t.Fatalf("stream close named stream %d, the window was on %d", sid, win.st.id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never saw FrameStreamClose")
	}
	if res, err := sib.Exec(context.Background(), "UPDATE t SET v = 1"); err != nil || res.Affected != 1 {
		t.Fatalf("sibling after the abort: %+v %v", res, err)
	}
	if sib.Defunct() || !tr.Healthy() {
		t.Fatal("the abort damaged the shared transport")
	}
}

// A closed-loop conversation (one frame in, one frame out) reuses the
// stream queue's array instead of making a new one per response, a popped
// slot lets go of its payload, and a reader that stays one frame behind
// keeps the queue at the depth it actually reached.
func TestStreamQueueKeepsItsArray(t *testing.T) {
	s := &stream{notify: make(chan struct{}, 1)}
	ctx := context.Background()
	frame := muxFrame{typ: protocol.FrameRowBatch, payload: make([]byte, 16)}
	cycle := func() {
		s.push(frame)
		if f, err := s.pop(ctx); err != nil || len(f.payload) != 16 {
			t.Fatalf("pop: %v %v", f, err)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a push/pop cycle allocates %v times", n)
	}
	for i, f := range s.q[:cap(s.q)] {
		if f.payload != nil {
			t.Fatalf("slot %d still pins a popped payload", i)
		}
	}
	s.push(frame)
	for i := 0; i < 1000; i++ {
		s.push(muxFrame{typ: protocol.FrameRowBatch, payload: []byte{byte(i)}})
		s.pop(ctx)
	}
	if f, _ := s.pop(ctx); len(f.payload) != 1 || f.payload[0] != byte(999%256) || s.batches != 0 {
		t.Fatalf("queue lost its order: last frame %v, %d batches still counted", f.payload, s.batches)
	}
	if cap(s.q) > 8 {
		t.Fatalf("a reader one frame behind grew the queue to %d slots", cap(s.q))
	}
}

// A table list travels in a frame type of its own. A node built before
// that frame answers a type it does not know with "unknown frame", as
// this stand-in for one does, and the batch fails: the list never reaches
// such a node as a plain query of its first unit's text, whose decoder
// would ignore trailing bytes and run that one table alone.
func TestTableListNeverReachesAnOldNodeAsAQuery(t *testing.T) {
	sent := make(chan byte, 8)
	p := startPeer(t, func(nc net.Conn) {
		r, w := bufio.NewReader(nc), bufio.NewWriter(nc)
		if typ, _, err := protocol.ReadFrame(r); err != nil || typ != protocol.FrameHello {
			return
		}
		protocol.WriteFrame(w, protocol.FrameHelloAck, protocol.EncodeHello(protocol.MaxFrame))
		w.Flush()
		for {
			typ, sid, _, err := protocol.ReadFrameV2(r, protocol.MaxFrame)
			if err != nil {
				return
			}
			sent <- typ
			if typ == protocol.FrameQuery {
				protocol.WriteFrameV2(w, protocol.FrameHeader, sid, protocol.EncodeHeader([]string{"id"}))
				protocol.WriteFrameV2(w, protocol.FrameEOF, sid, nil)
			} else {
				protocol.WriteFrameV2(w, protocol.FrameError, sid, protocol.EncodeError("proxy: unknown frame"))
			}
			w.Flush()
		}
	})
	conn, err := Dial(p.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sets, err := conn.QueryBatch(context.Background(), []resource.Statement{
		{SQL: "SELECT id FROM t_0 WHERE id > ?", Args: []sqltypes.Value{sqltypes.NewInt(1)}, Tables: []string{"t_0", "t_2"}},
	})
	var be *resource.BatchError
	if !errors.As(err, &be) || be.Index != 0 || !strings.Contains(err.Error(), "unknown frame") {
		t.Fatalf("a list sent to an old node: sets %v, error %v; want the node's unknown-frame error", sets, err)
	}
	if typ := <-sent; typ != protocol.FrameQueryTables {
		t.Fatalf("the list went out as frame %#x, want FrameQueryTables", typ)
	}
}
