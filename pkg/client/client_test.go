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

// A pre-v2 server answers the Hello with "unknown frame". Every way of
// opening a connection fails with an error that names the protocol, and
// none of them keeps the socket.
func TestDialAgainstV1ServerFails(t *testing.T) {
	p := startPeer(t, refuseHello("proxy: unknown frame"))
	check := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s succeeded against a v1 server", what)
		}
		if !strings.Contains(err.Error(), "protocol v2") || !errors.Is(err, ErrRemote) {
			t.Fatalf("%s: error does not name the protocol: %v", what, err)
		}
	}
	_, err := Dial(p.addr)
	check("Dial", err)
	_, err = DialMux(p.addr)
	check("DialMux", err)
	ds := NewRemoteDataSource("old", p.addr, &resource.Options{PoolSize: 2})
	defer ds.Close()
	_, err = ds.Acquire()
	check("Acquire", err)
	p.waitGone(t, 3)
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

// scriptedV2 is a minimal v2 server: it acks the Hello without
// capabilities, answers a prepared SELECT with a header and one one-row
// batch and then goes quiet (an open cursor), answers anything else
// with OK(1), and reports every FrameStreamClose it receives.
func scriptedV2(closed chan<- uint32) func(net.Conn) {
	return func(nc net.Conn) {
		r, w := bufio.NewReader(nc), bufio.NewWriter(nc)
		if typ, _, err := protocol.ReadFrame(r); err != nil || typ != protocol.FrameHello {
			return
		}
		protocol.WriteFrame(w, protocol.FrameHelloAck, protocol.EncodeHello(protocol.Version2, protocol.MaxFrame))
		w.Flush()
		selects := map[[2]uint32]bool{} // (stream, stmt id) registered as a SELECT
		for {
			typ, sid, payload, err := protocol.ReadFrameV2(r, protocol.MaxFrame)
			if err != nil {
				return
			}
			switch typ {
			case protocol.FramePrepare:
				id, sql, _ := protocol.DecodePrepare(payload)
				selects[[2]uint32{sid, id}] = strings.HasPrefix(sql, "SELECT")
			case protocol.FrameExecStmt:
				id, _, _ := protocol.DecodeExecStmt(payload)
				if selects[[2]uint32{sid, id}] {
					var enc protocol.BatchEncoder
					enc.Append(sqltypes.Row{sqltypes.NewInt(7)})
					protocol.WriteFrameV2(w, protocol.FrameHeader, sid, protocol.EncodeHeader([]string{"v"}))
					protocol.WriteFrameV2(w, protocol.FrameRowBatch, sid, enc.Payload())
				} else {
					protocol.WriteFrameV2(w, protocol.FrameOK, sid, protocol.EncodeOK(1, 0))
				}
				w.Flush()
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
	p := startPeer(t, scriptedV2(closed))
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
