// Package proxy implements the network server side of the wire protocol.
// Run over a kernel it is "ShardingSphere-Proxy" (paper Section VII-A): a
// standalone process applications of any language connect to as if it
// were one database. Run over a single query processor it is a data node
// server (cmd/datanode) — the stand-in for a networked MySQL instance.
package proxy

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"shardingsphere/internal/admission"
	"shardingsphere/internal/core"
	"shardingsphere/internal/protocol"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sqlexec"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/telemetry"
)

// BackendSession serves one stream's statements.
type BackendSession interface {
	// Execute runs one statement. rs is non-nil exactly when the statement
	// returned rows: a pull cursor the mux layer streams row batches off,
	// paced by per-stream flow control, so a scatter result is never
	// resident in this process as a whole. The caller owns closing it.
	Execute(sql string, args []sqltypes.Value) (cols []string, rs resource.ResultSet, affected, lastInsertID int64, err error)
	Close()
}

// Backend creates per-connection sessions.
type Backend interface {
	NewBackendSession() BackendSession
}

// TracingBackendSession is optionally implemented by backend sessions
// that can record per-stage spans for a traced statement. BeginTrace
// arms recording (base is the frame receive time, started the worker
// pickup time); EndTrace disarms it and returns the collected spans,
// which the mux layer piggybacks on the terminal reply frame.
type TracingBackendSession interface {
	BeginTrace(base, started time.Time)
	EndTrace(total time.Duration) []telemetry.RemoteSpan
}

// MetricsBackend is optionally implemented by backends that can export
// a histogram/counter snapshot for federation (FrameMetricsPull).
type MetricsBackend interface {
	MetricsSnapshot() *telemetry.MetricsSnapshot
}

// Limiter optionally throttles inbound statements (the governor's rate
// limiter implements it).
type Limiter interface {
	Acquire() bool
}

// AdmissionBackendSession is optionally implemented by backend sessions
// that carry admission context: the fair-queueing tenant and the
// statement's remaining timeout budget (for deadline-aware shedding),
// plus a sink for the measured queue wait so the kernel charges it
// against that budget.
type AdmissionBackendSession interface {
	AdmissionInfo() (tenant string, budget time.Duration)
	NoteQueueWait(d time.Duration)
}

// admissionInfo resolves a session's admission context; sessions without
// one share the default tenant with no deadline budget.
func admissionInfo(sess BackendSession) (string, time.Duration) {
	if as, ok := sess.(AdmissionBackendSession); ok {
		return as.AdmissionInfo()
	}
	return "default", 0
}

// FrontendPerturber is the chaos injector's frontend face (INJECT FAULT
// frontend): accept-time delay and connection resets, plus per-statement
// client stalls.
type FrontendPerturber interface {
	FrontendAcceptDelay() time.Duration
	FrontendConnReset() bool
	FrontendClientStall() time.Duration
}

// Server is a TCP server speaking the wire protocol.
type Server struct {
	backend Backend
	limiter Limiter

	// admission is the overload-protection controller (nil = admit all).
	// chaosFE injects frontend faults; idleTimeout bounds how long a
	// client may take to deliver each frame (slow-loris reclaim);
	// drainTimeout, when set, makes Close drain instead of drop. All four
	// are configured before Serve.
	admission    *admission.Controller
	chaosFE      FrontendPerturber
	idleTimeout  time.Duration
	drainTimeout time.Duration

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	// Wire-level telemetry: connection lifecycle, statement traffic and
	// byte counts. All plain atomics — the handler loop stays lock-free.
	connsTotal atomic.Int64
	active     atomic.Int64
	inFlight   atomic.Int64
	statements atomic.Int64
	errors     atomic.Int64
	throttled  atomic.Int64
	bytesIn    atomic.Int64
	bytesOut   atomic.Int64

	// Protocol v2 counters: multiplexed connections, stream lifecycle
	// and row-batch framing.
	v2Conns       atomic.Int64
	streamsOpened atomic.Int64
	streamsActive atomic.Int64
	rowBatches    atomic.Int64
	flushes       atomic.Int64 // socket writers' flushes of buffered frames

	// Streaming-pipeline counters: rows produced through pull cursors,
	// early cursor stops requested by clients, row-batch acks received
	// and the times a stream worker parked for want of credit.
	rowsStreamed  atomic.Int64
	cursorCancels atomic.Int64
	batchAcks     atomic.Int64
	creditWaits   atomic.Int64

	// Overload-protection counters: statements shed by admission,
	// connections reclaimed by the idle deadline, transient accept
	// errors retried, and connections rejected at accept time.
	shedStatements atomic.Int64
	idleReclaims   atomic.Int64
	acceptRetries  atomic.Int64
	connsRejected  atomic.Int64
}

// Metrics snapshots the server's wire-level counters. MetricsSnapshot
// reports them under "wire.", and the benchmark reads the map.
func (s *Server) Metrics() map[string]int64 {
	return map[string]int64{
		"connections_total":  s.connsTotal.Load(),
		"connections_active": s.active.Load(),
		"in_flight":          s.inFlight.Load(),
		"statements":         s.statements.Load(),
		"errors":             s.errors.Load(),
		"throttled":          s.throttled.Load(),
		"bytes_in":           s.bytesIn.Load(),
		"bytes_out":          s.bytesOut.Load(),
		"v2_connections":     s.v2Conns.Load(),
		"streams_opened":     s.streamsOpened.Load(),
		"streams_active":     s.streamsActive.Load(),
		"row_batches":        s.rowBatches.Load(),
		"flushes":            s.flushes.Load(),
		"rows_streamed":      s.rowsStreamed.Load(),
		"cursor_cancels":     s.cursorCancels.Load(),
		"batch_acks":         s.batchAcks.Load(),
		"credit_waits":       s.creditWaits.Load(),
		"shed_statements":    s.shedStatements.Load(),
		"idle_reclaims":      s.idleReclaims.Load(),
		"accept_retries":     s.acceptRetries.Load(),
		"conns_rejected":     s.connsRejected.Load(),
	}
}

// MetricsSnapshot exports the node's federated metrics view: the
// backend's execution histograms and counters (when the backend can
// produce them) plus the server's own wire counters under "wire.".
// This is what FrameMetricsPull answers with.
func (s *Server) MetricsSnapshot() *telemetry.MetricsSnapshot {
	var snap *telemetry.MetricsSnapshot
	if mb, ok := s.backend.(MetricsBackend); ok {
		snap = mb.MetricsSnapshot()
	}
	if snap == nil {
		snap = &telemetry.MetricsSnapshot{}
	}
	wire := s.Metrics()
	for k, v := range wire {
		snap.Counters = append(snap.Counters, telemetry.NamedCounter{Name: "wire." + k, Value: v})
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	return snap
}

// countingReader / countingWriter tally wire bytes as they stream.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// NewServer builds a server over the backend.
func NewServer(backend Backend) *Server {
	return &Server{backend: backend, conns: map[net.Conn]struct{}{}}
}

// SetLimiter installs a statement rate limiter.
func (s *Server) SetLimiter(l Limiter) { s.limiter = l }

// SetAdmission installs the overload-protection controller: statement
// admission and the connection cap at accept time. Configure before
// Serve.
func (s *Server) SetAdmission(c *admission.Controller) { s.admission = c }

// SetChaosFrontend installs the frontend fault injector (INJECT FAULT
// frontend). Configure before Serve.
func (s *Server) SetChaosFrontend(p FrontendPerturber) { s.chaosFE = p }

// SetIdleTimeout bounds how long a client may take to deliver each
// complete frame. A connection that stalls mid-frame or goes silent —
// the slow-loris shape — is reclaimed, releasing its goroutines and any
// admission slot its streams were pinning. 0 (default) disables the
// deadline; long-lived idle pooled connections then persist, matching
// previous behavior. Configure before Serve.
func (s *Server) SetIdleTimeout(d time.Duration) { s.idleTimeout = d }

// SetDrainTimeout makes Close drain instead of drop: stop accepting,
// shed new statements through the admission controller, wait up to d for
// in-flight statements to finish, then close what remains. 0 (default)
// keeps the historical hard close. Requires SetAdmission.
func (s *Server) SetDrainTimeout(d time.Duration) { s.drainTimeout = d }

// Listen binds the address and returns the bound address (useful with
// ":0" for tests).
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.listener = ln
	s.mu.Unlock()
	return ln.Addr().String(), nil
}

// Serve accepts connections until Close; it returns nil after Close.
// Transient accept failures — fd exhaustion (EMFILE/ENFILE), aborted
// handshakes, timeouts — are retried with jittered exponential backoff
// instead of killing the accept loop: under a connection storm the
// listener must survive exactly when it is hardest to restart.
func (s *Server) Serve() error {
	ln, err := s.hold()
	if ln == nil {
		return err
	}
	defer s.wg.Done()
	return s.serve(ln)
}

// ServeUntil is Serve until ctx is done; then it closes the server, which
// drains the statements in flight for up to the drain timeout, and
// returns nil.
func (s *Server) ServeUntil(ctx context.Context) error {
	served := make(chan error, 1)
	go func() { served <- s.Serve() }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
		s.Close()
		return <-served
	}
}

// hold counts an accept loop into the goroutines Close waits for and
// returns the listener it accepts on; nil once the server is closed.
// Every wg.Add happens under mu while the server is open, so none races
// Close's Wait.
func (s *Server) hold() (net.Listener, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return nil, fmt.Errorf("proxy: Serve before Listen")
	}
	if s.closed {
		return nil, nil
	}
	s.wg.Add(1)
	return s.listener, nil
}

func (s *Server) serve(ln net.Listener) error {
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			if isTransientAccept(err) {
				s.acceptRetries.Add(1)
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff < time.Second {
					backoff *= 2
				}
				// Full jitter over [backoff/2, backoff): synchronized
				// retry waves are what caused the storm in the first place.
				time.Sleep(backoff/2 + time.Duration(rand.Int63n(int64(backoff/2))))
				continue
			}
			return err
		}
		backoff = 0
		if fe := s.chaosFE; fe != nil && fe.FrontendConnReset() {
			conn.Close()
			continue
		}
		if ac := s.admission; ac != nil {
			if err := ac.AdmitConn(); err != nil {
				s.rejectConn(conn, err)
				continue
			}
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			if s.admission != nil {
				s.admission.ReleaseConn()
			}
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			if s.admission != nil {
				defer s.admission.ReleaseConn()
			}
			if fe := s.chaosFE; fe != nil {
				if d := fe.FrontendAcceptDelay(); d > 0 {
					time.Sleep(d)
				}
			}
			s.handle(conn)
		}()
	}
}

// isTransientAccept classifies accept errors worth retrying.
func isTransientAccept(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	for _, e := range []error{syscall.EMFILE, syscall.ENFILE, syscall.ECONNABORTED, syscall.ECONNRESET, syscall.EINTR} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// maxFirstFrame bounds the one frame read before the handshake, so a
// peer that has not said Hello cannot make the server allocate. A Hello
// is 8 bytes; the slack lets a v1 client's opening statement be
// read whole, so it gets the typed upgrade error instead of a reset.
const maxFirstFrame = 4 << 10

// rejectConn turns away a connection at accept time with the typed
// overload error, so well-behaved clients back off instead of
// interpreting the close as a network flake. The rejection is delivered
// as the reply to the client's Hello, which fails its dial with the
// typed error. The goroutine is bounded by a short deadline.
func (s *Server) rejectConn(conn net.Conn, aerr error) {
	s.connsTotal.Add(1)
	s.connsRejected.Add(1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(finalErrorWait))
		r := bufio.NewReader(countingReader{conn, &s.bytesIn})
		w := bufio.NewWriter(countingWriter{conn, &s.bytesOut})
		if _, _, err := protocol.ReadFrameLimit(r, maxFirstFrame); err != nil {
			return
		}
		s.finalError(conn, w, aerr.Error())
	}()
}

// finalErrorWait bounds how long a refused peer may take to read its
// error frame and hang up.
const finalErrorWait = 2 * time.Second

// finalError answers a peer's opening frame with one error frame, then
// half-closes and drains so the frame is not reset away. The caller
// closes conn.
func (s *Server) finalError(conn net.Conn, w *bufio.Writer, msg string) {
	conn.SetDeadline(time.Now().Add(finalErrorWait))
	if s.reply(w, protocol.FrameError, protocol.EncodeError(msg)) != nil {
		return
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
		io.Copy(io.Discard, conn)
	}
}

// Start is Listen+Serve on a goroutine, which Close waits for; it returns
// the bound address.
func (s *Server) Start(addr string) (string, error) {
	bound, err := s.Listen(addr)
	if err != nil {
		return "", err
	}
	if ln, _ := s.hold(); ln != nil {
		go func() {
			defer s.wg.Done()
			s.serve(ln)
		}()
	}
	return bound, nil
}

// Close stops accepting, closes every connection and waits for handlers.
// With a drain timeout configured (SetDrainTimeout + SetAdmission), new
// statements are shed first and in-flight ones get up to that long to
// finish before their connections are closed — draining, not dropping.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.listener
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	if s.drainTimeout > 0 && s.admission != nil {
		s.admission.BeginDrain()
		s.admission.WaitIdle(s.drainTimeout)
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// handle reads the one frame that precedes the handshake: a Hello at this
// build's version hands the socket to serveMux, anything else is refused.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	s.connsTotal.Add(1)
	s.active.Add(1)
	defer s.active.Add(-1)
	r := bufio.NewReaderSize(countingReader{conn, &s.bytesIn}, 64<<10)
	w := bufio.NewWriterSize(countingWriter{conn, &s.bytesOut}, 64<<10)

	// The whole frame must arrive within the idle window, so a client
	// that sends a partial frame and stalls (slow loris) is reclaimed just
	// like one that goes fully silent.
	if d := s.idleTimeout; d > 0 {
		conn.SetReadDeadline(time.Now().Add(d))
	}
	typ, payload, err := protocol.ReadFrameLimit(r, maxFirstFrame)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			s.idleReclaims.Add(1)
		}
		return // client went away, or sent an oversized frame
	}
	if typ != protocol.FrameHello {
		s.finalError(conn, w, "proxy: protocol v1 is no longer served; upgrade the client")
		return
	}
	if _, err := protocol.DecodeHello(payload); err != nil {
		s.finalError(conn, w, "proxy: "+err.Error())
		return
	}
	if s.reply(w, protocol.FrameHelloAck, protocol.EncodeHello(protocol.MaxFrame)) != nil {
		return
	}
	s.serveMux(conn, r, w)
}

func (s *Server) reply(w *bufio.Writer, typ byte, payload []byte) error {
	if err := protocol.WriteFrame(w, typ, payload); err != nil {
		return err
	}
	return w.Flush()
}

// --- backends ---

// KernelBackend serves kernel sessions: the ShardingSphere-Proxy mode.
type KernelBackend struct {
	Kernel *core.Kernel
}

// NewBackendSession implements Backend.
func (b *KernelBackend) NewBackendSession() BackendSession {
	return &kernelSession{sess: b.Kernel.NewSession()}
}

// MetricsSnapshot implements MetricsBackend: the kernel's one snapshot.
func (b *KernelBackend) MetricsSnapshot() *telemetry.MetricsSnapshot {
	return b.Kernel.Metrics()
}

type kernelSession struct {
	sess *core.Session
}

// Execute implements BackendSession: the merged result set from the
// kernel pipeline is handed to the mux layer as-is, so rows flow from the
// shard cursors through the merge to the wire without ever being
// materialized in the proxy. Closing the returned set releases the shard
// cursors and their pooled connections.
func (ks *kernelSession) Execute(sql string, args []sqltypes.Value) ([]string, resource.ResultSet, int64, int64, error) {
	res, err := ks.sess.Execute(sql, args...)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	if !res.IsQuery() {
		return nil, nil, res.Affected, res.LastInsertID, nil
	}
	cols := res.RS.Columns()
	if cols == nil {
		cols = []string{}
	}
	return cols, res.RS, 0, 0, nil
}

// AdmissionInfo implements AdmissionBackendSession: the fair-queueing
// tenant comes from the session variable `tenant` (SET VARIABLE tenant =
// '...'), the budget from the session's statement timeout — giving the
// admission controller exactly the deadline the kernel would enforce.
func (ks *kernelSession) AdmissionInfo() (string, time.Duration) {
	tenant := "default"
	if v, ok := ks.sess.Vars()["tenant"]; ok {
		if s := v.AsString(); s != "" {
			tenant = s
		}
	}
	return tenant, ks.sess.StatementTimeout()
}

// NoteQueueWait implements AdmissionBackendSession: the measured queue
// wait is charged against the next statement's timeout budget and shows
// up as an admission_wait span on sampled traces.
func (ks *kernelSession) NoteQueueWait(d time.Duration) { ks.sess.NoteQueueWait(d) }

func (ks *kernelSession) Close() { ks.sess.Close() }

// NodeBackend serves plain query-processor sessions: the data node mode
// (a stand-in networked MySQL).
type NodeBackend struct {
	Processor *sqlexec.Processor
}

// NewBackendSession implements Backend.
func (b *NodeBackend) NewBackendSession() BackendSession {
	return &nodeSession{sess: b.Processor.NewSession()}
}

// MetricsSnapshot implements MetricsBackend over the processor's
// node-local aggregates.
func (b *NodeBackend) MetricsSnapshot() *telemetry.MetricsSnapshot {
	return b.Processor.Stats().Snapshot()
}

type nodeSession struct {
	sess *sqlexec.Session
}

// Execute implements BackendSession. The embedded executor materializes
// its result per statement anyway (it is the stand-in storage engine), so
// the cursor wraps the slice — what streaming buys on a data node is
// wire-level pacing: batches leave under the client's flow-control window
// and a cursor cancel stops transmission early instead of shipping the
// rest.
func (ns *nodeSession) Execute(sql string, args []sqltypes.Value) ([]string, resource.ResultSet, int64, int64, error) {
	res, err := ns.sess.Execute(sql, args...)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	if !res.IsQuery() {
		return nil, nil, res.Affected, res.LastInsertID, nil
	}
	cols := res.Columns
	if cols == nil {
		cols = []string{}
	}
	return cols, resource.NewSliceResultSet(cols, res.Rows), 0, 0, nil
}

// BeginTrace / EndTrace implement TracingBackendSession by delegating
// to the executor session's span recorder.
func (ns *nodeSession) BeginTrace(base, started time.Time) {
	ns.sess.BeginTrace(base, started)
}

func (ns *nodeSession) EndTrace(total time.Duration) []telemetry.RemoteSpan {
	return ns.sess.EndTrace(total)
}

func (ns *nodeSession) Close() { ns.sess.Close() }
