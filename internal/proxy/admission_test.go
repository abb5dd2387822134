package proxy

import (
	"bufio"
	"context"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"shardingsphere/internal/admission"
	"shardingsphere/internal/protocol"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sqlexec"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
	"shardingsphere/pkg/client"
)

// blockingBackend parks every statement until release is closed — a
// stand-in for a saturated kernel, so tests can hold the admission slot
// open deterministically.
type blockingBackend struct{ release chan struct{} }

func (b *blockingBackend) NewBackendSession() BackendSession { return &blockingSession{b.release} }

type blockingSession struct{ release chan struct{} }

func (s *blockingSession) Execute(string, []sqltypes.Value) ([]string, resource.ResultSet, int64, int64, error) {
	<-s.release
	return nil, nil, 1, 0, nil
}

func (s *blockingSession) Close() {}

func waitMetric(t *testing.T, get func() int64, want int64, what string) {
	t.Helper()
	waitCond(t, what, func() bool { return get() >= want })
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s: condition never held", what)
}

// TestStatementShedTypedError saturates a one-slot controller and
// checks both shed paths a queued statement can take — sojourn timeout
// and queue-full — surface to the client as the typed, retryable
// overload error rather than an opaque failure.
func TestStatementShedTypedError(t *testing.T) {
	ctl := admission.NewController(admission.Config{
		MaxConcurrent: 1, QueueDepth: 1, MaxQueueWait: 50 * time.Millisecond,
	})
	bk := &blockingBackend{release: make(chan struct{})}
	srv := NewServer(bk)
	srv.SetAdmission(ctl)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(bk.release) }) }
	defer release() // must run before srv.Close: handlers park in Execute

	dial := func() *client.Conn {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}

	// First statement takes the only slot and parks in the backend.
	holder := dial()
	holderDone := make(chan error, 1)
	go func() {
		_, err := holder.Exec(context.Background(), "SELECT 1")
		holderDone <- err
	}()
	waitMetric(t, func() int64 { return ctl.Metrics()["running"] }, 1, "running")

	// Second statement queues, then sheds when its sojourn bound expires.
	queued := dial()
	queuedDone := make(chan error, 1)
	go func() {
		_, err := queued.Exec(context.Background(), "SELECT 1")
		queuedDone <- err
	}()
	waitMetric(t, func() int64 { return ctl.Metrics()["queued"] }, 1, "queued")

	// Third statement finds the queue full and is shed immediately.
	full := dial()
	_, err = full.Exec(context.Background(), "SELECT 1")
	reason, retryAfter, ok := client.IsOverloaded(err)
	if !ok || reason != admission.ReasonQueueFull {
		t.Fatalf("queue-full shed: ok=%v reason=%q err=%v", ok, reason, err)
	}
	if retryAfter <= 0 {
		t.Fatalf("queue-full shed carries no retry-after: %v", err)
	}
	if !resource.IsTransient(err) {
		t.Fatalf("overload error should be transient (retryable): %v", err)
	}

	err = <-queuedDone
	if reason, _, ok := client.IsOverloaded(err); !ok || reason != admission.ReasonTimeout {
		t.Fatalf("sojourn-timeout shed: ok=%v reason=%q err=%v", ok, reason, err)
	}

	// The holder was never shed: releasing the backend completes it.
	release()
	if err := <-holderDone; err != nil {
		t.Fatalf("admitted statement failed: %v", err)
	}

	m := srv.Metrics()
	if m["shed_statements"] != 2 {
		t.Fatalf("shed_statements = %d, want 2 (metrics %v)", m["shed_statements"], m)
	}
	am := ctl.Metrics()
	if am["shed_queue_full"] != 1 || am["shed_timeout"] != 1 {
		t.Fatalf("admission shed counters: %v", am)
	}
}

// TestConnCapTypedRejection checks the accept-time connection cap: the
// excess connection is turned away with the typed overload error (not a
// silent close), and the slot is reusable once the first client leaves.
func TestConnCapTypedRejection(t *testing.T) {
	ctl := admission.NewController(admission.Config{MaxConns: 1})
	proc := sqlexec.NewProcessor(storage.NewEngine("cap"))
	srv := NewServer(&NodeBackend{Processor: proc})
	srv.SetAdmission(ctl)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	first, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Ping(); err != nil {
		t.Fatal(err)
	}

	// The TCP connect still succeeds; the rejection answers the Hello, so
	// the dial itself fails with the typed error.
	second, err := client.Dial(addr)
	if reason, _, ok := client.IsOverloaded(err); !ok || reason != admission.ReasonConnLimit || second != nil {
		t.Fatalf("conn-cap rejection: conn=%v ok=%v reason=%q err=%v", second, ok, reason, err)
	}
	if got := srv.Metrics()["conns_rejected"]; got != 1 {
		t.Fatalf("conns_rejected = %d, want 1", got)
	}

	// Releasing the first connection frees the slot for a newcomer.
	first.Close()
	waitCond(t, "conns_active drop", func() bool { return ctl.Metrics()["conns_active"] == 0 })
	third, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	if err := third.Ping(); err != nil {
		t.Fatalf("slot not reclaimed after close: %v", err)
	}
}

// TestSlowLorisReclaimed sends a partial frame and goes silent, before
// the handshake and after it. The idle deadline must reclaim the
// connection and its goroutines — the slow-loris defense — without
// disturbing healthy clients.
func TestSlowLorisReclaimed(t *testing.T) {
	proc := sqlexec.NewProcessor(storage.NewEngine("loris"))
	srv := NewServer(&NodeBackend{Processor: proc})
	srv.SetIdleTimeout(100 * time.Millisecond)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Let the server settle, then take the goroutine baseline.
	warm, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	warm.Ping()
	warm.Close()
	waitCond(t, "warm conn close", func() bool { return srv.Metrics()["connections_active"] == 0 })
	runtime.GC()
	baseline := runtime.NumGoroutine()

	// Pre-handshake loris: 2 of the Hello's 5 header bytes, then silence.
	early, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer early.Close()
	early.Write([]byte{0x00, 0x00})

	// Post-handshake loris: complete the Hello exchange, then stall
	// mid-frame.
	v2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	bw := bufio.NewWriter(v2)
	protocol.WriteFrame(bw, protocol.FrameHello, protocol.EncodeHello(protocol.MaxFrame))
	bw.Flush()
	br := bufio.NewReader(v2)
	if typ, _, err := protocol.ReadFrame(br); err != nil || typ != protocol.FrameHelloAck {
		t.Fatalf("hello ack: %#x %v", typ, err)
	}
	v2.Write([]byte{0x00, 0x00, 0x00})

	// Both get reclaimed by the per-frame read deadline.
	waitMetric(t, func() int64 { return srv.Metrics()["idle_reclaims"] }, 2, "idle_reclaims")
	waitCond(t, "active after reclaim", func() bool { return srv.Metrics()["connections_active"] == 0 })

	// The server actually closed the sockets.
	early.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := early.Read(make([]byte, 1)); err == nil {
		t.Fatal("pre-handshake loris socket still open")
	}

	// No goroutine leak: counts return to the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseline {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, n)
	}

	// A healthy client still works and is NOT reclaimed while active.
	healthy, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	for i := 0; i < 3; i++ {
		if err := healthy.Ping(); err != nil {
			t.Fatalf("healthy client after reclaim: %v", err)
		}
		time.Sleep(30 * time.Millisecond)
	}
}

// sleepBackend serves statements that take a fixed wall-clock time.
type sleepBackend struct{ d time.Duration }

func (b *sleepBackend) NewBackendSession() BackendSession { return &sleepSession{b.d} }

type sleepSession struct{ d time.Duration }

func (s *sleepSession) Execute(string, []sqltypes.Value) ([]string, resource.ResultSet, int64, int64, error) {
	time.Sleep(s.d)
	return nil, nil, 1, 0, nil
}

func (s *sleepSession) Close() {}

// TestDrainNotDrop: with a drain timeout configured, Close lets the
// in-flight statement finish and deliver its reply instead of cutting
// the connection under it.
func TestDrainNotDrop(t *testing.T) {
	ctl := admission.NewController(admission.Config{})
	srv := NewServer(&sleepBackend{d: 200 * time.Millisecond})
	srv.SetAdmission(ctl)
	srv.SetDrainTimeout(5 * time.Second)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	type outcome struct {
		affected int64
		err      error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := conn.Exec(context.Background(), "SELECT 1")
		done <- outcome{res.Affected, err}
	}()
	waitMetric(t, func() int64 { return ctl.Metrics()["running"] }, 1, "running")

	start := time.Now()
	srv.Close()
	got := <-done
	if got.err != nil || got.affected != 1 {
		t.Fatalf("in-flight statement dropped by Close: %+v (close took %v)", got, time.Since(start))
	}
	if ctl.Metrics()["running"] != 0 {
		t.Fatal("controller not idle after drain")
	}
}

// flakyListener fails the first N accepts with EMFILE — the fd
// exhaustion shape — then behaves.
type flakyListener struct {
	net.Listener
	remaining atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.remaining.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	}
	return l.Listener.Accept()
}

// TestAcceptTransientRetry: transient accept errors (EMFILE et al) must
// not kill the accept loop; it backs off and keeps serving.
func TestAcceptTransientRetry(t *testing.T) {
	proc := sqlexec.NewProcessor(storage.NewEngine("flaky"))
	srv := NewServer(&NodeBackend{Processor: proc})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: ln}
	fl.remaining.Store(3)
	srv.mu.Lock()
	srv.listener = fl
	srv.mu.Unlock()
	go srv.Serve()
	defer srv.Close()

	conn, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Ping(); err != nil {
		t.Fatalf("server did not survive transient accept errors: %v", err)
	}
	if got := srv.Metrics()["accept_retries"]; got != 3 {
		t.Fatalf("accept_retries = %d, want 3", got)
	}
}

// fatalListener returns a permanent error: Serve must give up on those.
type fatalListener struct{ net.Listener }

func (l *fatalListener) Accept() (net.Conn, error) {
	return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EBADF}
}

func TestAcceptPermanentErrorStillFatal(t *testing.T) {
	proc := sqlexec.NewProcessor(storage.NewEngine("fatal"))
	srv := NewServer(&NodeBackend{Processor: proc})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv.mu.Lock()
	srv.listener = &fatalListener{Listener: ln}
	srv.mu.Unlock()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve() }()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Serve swallowed a permanent accept error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve kept retrying a permanent accept error")
	}
}
