// Protocol v2 server side: stream-multiplexed connection handling.
//
// One TCP connection carries many streams; each stream gets its own
// backend session and worker goroutine, so a statement hung in one stream
// never stalls its siblings on the same socket. Frames are dispatched to
// bounded per-stream queues by the socket reader. The queue depth is a
// multiple of the client's pipeline window, so a compliant client cannot
// fill it; an overrunning client only wedges its own socket.
//
// All responses funnel through one writer goroutine per socket, which
// drains everything the stream workers have queued before paying a
// single flush syscall — under pipelined load many responses share one
// write.
package proxy

import (
	"bufio"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"shardingsphere/internal/protocol"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/telemetry"
)

// streamQueueDepth is the per-stream inbound frame budget: four times the
// client-side pipeline window (64), so a compliant client never fills it.
const streamQueueDepth = 256

// inFrame is one frame routed to a stream worker.
type inFrame struct {
	typ     byte
	payload []byte
	// at is the frame's receive time, stamped by the dispatcher only for
	// statements whose trace context requests recording — the worker's
	// pickup delay becomes the statement's queue span.
	at time.Time
}

// outMsg is one response frame queued for the socket writer. Its bytes
// are payload, or, for a row batch, batch: the encoder's pooled buffer,
// the only bytes the writer releases (protocol.ReleaseBatch) once the
// frame is written. A message with done set carries no frame: it is a
// barrier, closed by the writer once every frame queued before it has
// been flushed to the socket — what the admission release rides on.
type outMsg struct {
	sid     uint32
	typ     byte
	payload []byte
	batch   *[]byte
	done    chan struct{}
}

// muxConn is the server half of one multiplexed socket.
type muxConn struct {
	s *Server

	w       *bufio.Writer
	writeCh chan outMsg
	wdone   chan struct{} // closed when the writer goroutine exits

	mu      sync.Mutex
	streams map[uint32]*muxStream
	wg      sync.WaitGroup
}

type muxStream struct {
	id uint32
	in chan inFrame

	// Flow control. The dispatcher updates these out-of-band — the worker
	// is busy producing row batches when acks and cancels arrive, so they
	// cannot ride the in queue. credit packs the seq of the statement
	// being streamed (high 32 bits) with its unacked row batches (low 32):
	// one word, so an ack is counted only against the statement it names.
	credit    atomic.Uint64
	cancelSeq atomic.Uint32 // latest cursor-cancel target (statement seq)
	flow      chan struct{} // capacity 1; nudges a credit-blocked worker
	done      chan struct{} // closed at teardown; unsticks credit waits
	doneOnce  sync.Once

	// Response buffers, the worker's (one statement at a time). fill is
	// what a cursor pull lands in, cleared at each statement's end so no
	// row outlives its EOF; enc is empty between statements, each batch
	// built in a buffer the socket writer handed back. Per statement they
	// would cost more than the rows.
	fill []sqltypes.Row
	enc  protocol.BatchEncoder
}

// shutdown unsticks a worker blocked waiting for flow credit. Called
// when the stream (or the whole socket) is being torn down.
func (st *muxStream) shutdown() {
	st.doneOnce.Do(func() { close(st.done) })
}

// ack returns one row batch of credit to statement seq. An ack naming a
// statement that has finished streaming finds another seq in the word
// and changes nothing.
func (st *muxStream) ack(seq uint32) {
	for {
		w := st.credit.Load()
		if uint32(w>>32) != seq || uint32(w) == 0 || st.credit.CompareAndSwap(w, w-1) {
			return
		}
	}
}

// serveMux runs the v2 loop on a negotiated connection until the socket
// dies or the client quits. The caller owns conn closing.
func (s *Server) serveMux(conn net.Conn, r *bufio.Reader, w *bufio.Writer) {
	s.v2Conns.Add(1)
	m := &muxConn{
		s:       s,
		w:       w,
		writeCh: make(chan outMsg, 256),
		wdone:   make(chan struct{}),
		streams: map[uint32]*muxStream{},
	}
	go m.writeLoop()
	for {
		// Same slow-loris protection as the handshake: each frame must
		// arrive whole within the idle window. Reclaiming the socket
		// tears down the streams, which unblocks credit-parked workers
		// (st.done) and releases their admission slots.
		if d := s.idleTimeout; d > 0 {
			conn.SetReadDeadline(time.Now().Add(d))
		}
		typ, sid, payload, err := protocol.ReadFrameV2(r, protocol.MaxFrame)
		if err != nil || typ == protocol.FrameQuit {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				s.idleReclaims.Add(1)
			}
			break
		}
		m.dispatch(typ, sid, payload)
	}
	// Teardown: stop feeding workers and wait for them to wind down
	// their sessions.
	m.mu.Lock()
	streams := make([]*muxStream, 0, len(m.streams))
	for _, st := range m.streams {
		streams = append(streams, st)
	}
	m.streams = map[uint32]*muxStream{}
	m.mu.Unlock()
	for _, st := range streams {
		st.shutdown()
		close(st.in)
	}
	m.wg.Wait()
	// Workers are the only writers; now the queue can close and the
	// writer goroutine drain out.
	close(m.writeCh)
	<-m.wdone
}

// dispatch routes one frame to its stream, spawning the stream worker on
// first sight. The queue send may block if a stream's queue is full —
// that throttles only this socket, which is the misbehaving client's own.
func (m *muxConn) dispatch(typ byte, sid uint32, payload []byte) {
	// Metrics pulls are answered inline — no session, no stream state.
	if typ == protocol.FrameMetricsPull {
		m.send(sid, protocol.FrameMetrics, protocol.EncodeMetrics(m.s.MetricsSnapshot()))
		return
	}
	// Flow-control frames are handled here, out-of-band: the stream's
	// worker is busy producing the row batches these frames govern, so
	// routing them through the in queue would deadlock the window.
	if typ == protocol.FrameBatchAck || typ == protocol.FrameCursorCancel {
		m.mu.Lock()
		st := m.streams[sid]
		m.mu.Unlock()
		if st == nil {
			return // abandoned conversation
		}
		seq, err := protocol.DecodeSeq(payload)
		if err != nil {
			return // malformed: ignored, the stream stays up
		}
		switch typ {
		case protocol.FrameBatchAck:
			st.ack(seq)
			m.s.batchAcks.Add(1)
		case protocol.FrameCursorCancel:
			st.cancelSeq.Store(seq)
			m.s.cursorCancels.Add(1)
		}
		select {
		case st.flow <- struct{}{}:
		default:
		}
		return
	}
	// Stamp the receive time only for statements that will be traced:
	// one branchy peek per statement frame, a time.Now() only when the
	// client asked for recording.
	var at time.Time
	if typ == protocol.FrameQuery && protocol.PeekTraceActive(payload) {
		at = time.Now()
	}
	m.mu.Lock()
	st := m.streams[sid]
	if st == nil {
		if typ == protocol.FrameStreamClose {
			m.mu.Unlock()
			return
		}
		st = &muxStream{
			id:   sid,
			in:   make(chan inFrame, streamQueueDepth),
			flow: make(chan struct{}, 1),
			done: make(chan struct{}),
		}
		m.streams[sid] = st
		m.s.streamsOpened.Add(1)
		m.s.streamsActive.Add(1)
		m.wg.Add(1)
		go m.worker(st)
	}
	m.mu.Unlock()
	if typ == protocol.FrameStreamClose {
		m.mu.Lock()
		delete(m.streams, sid)
		m.mu.Unlock()
		st.shutdown()
		close(st.in)
		return
	}
	st.in <- inFrame{typ: typ, payload: payload, at: at}
}

// worker serves one stream: one backend session, statements in arrival
// order. Pipelined statements queue in st.in and are answered strictly
// in order, which is what lets the client match responses positionally.
func (m *muxConn) worker(st *muxStream) {
	defer m.wg.Done()
	defer m.s.streamsActive.Add(-1)
	sess := m.s.backend.NewBackendSession()
	defer sess.Close()
	// seq numbers the statements this stream has processed, 1-based and
	// in arrival order — the same count the client keeps for statements
	// sent, which is what lets FrameCursorCancel name exactly one
	// statement's row stream.
	var seq uint32
	for f := range st.in {
		switch f.typ {
		case protocol.FramePing:
			m.send(st.id, protocol.FramePong, nil)
		case protocol.FrameQuery:
			seq++
			// A malformed payload gets an Error reply; the frame is
			// length-delimited, so the stream stays in sync.
			sql, args, tc, err := decodeStatement(f.payload)
			if err != nil {
				m.s.errors.Add(1)
				m.send(st.id, protocol.FrameError, protocol.EncodeError(err.Error()))
				continue
			}
			m.runStatement(st, seq, sess, sql, args, tc, f.at)
		default:
			m.send(st.id, protocol.FrameError, protocol.EncodeError("proxy: unknown frame"))
		}
	}
}

// decodeStatement splits a FrameQuery payload into the statement and its
// trace-context trailer.
func decodeStatement(payload []byte) (string, []sqltypes.Value, protocol.TraceContext, error) {
	tc, body, err := protocol.SplitTraceContext(payload)
	if err != nil {
		return "", nil, tc, err
	}
	sql, args, err := protocol.DecodeQuery(body)
	return sql, args, tc, err
}

// runStatement executes one statement and writes its complete response
// (OK, Error, or Header+RowBatch*+EOF) to the stream. When the trace
// context requests recording, the terminal frame carries a span block:
// the node's receive→reply total plus whatever stage spans the backend
// session recorded.
//
// Queries are served off the session's pull cursor: the header goes out
// as soon as the cursor exists, and row batches are produced one at a
// time, paced by the statement's flow-control window — the result is
// never materialized here.
func (m *muxConn) runStatement(st *muxStream, seq uint32, sess BackendSession, sql string, args []sqltypes.Value, tc protocol.TraceContext, recvAt time.Time) {
	s := m.s
	sid := st.id
	s.statements.Add(1)
	if s.limiter != nil && !s.limiter.Acquire() {
		s.throttled.Add(1)
		m.send(sid, protocol.FrameError, protocol.EncodeError("proxy: throttled"))
		return
	}
	if fe := s.chaosFE; fe != nil {
		if d := fe.FrontendClientStall(); d > 0 {
			time.Sleep(d)
		}
	}
	// Admission: the slot is held until the full response — including a
	// streamed cursor — has been produced, so concurrency covers the work
	// the statement actually pins. A client stalling its flow-control
	// window cannot pin the slot forever: the idle deadline reclaims the
	// socket, which closes st.done and unwinds this worker.
	if ac := s.admission; ac != nil {
		tenant, budget := admissionInfo(sess)
		rel, qwait, aerr := ac.Acquire(tenant, budget)
		if aerr != nil {
			s.shedStatements.Add(1)
			m.send(sid, protocol.FrameError, protocol.EncodeError(aerr.Error()))
			return
		}
		defer func() {
			m.flushBarrier()
			rel()
		}()
		if qwait > 0 {
			if as, ok := sess.(AdmissionBackendSession); ok {
				as.NoteQueueWait(qwait)
			}
		}
	}
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	traced := tc.Active()
	var started time.Time
	var tracer TracingBackendSession
	if traced {
		started = time.Now()
		if recvAt.IsZero() {
			recvAt = started
		}
		if ts, ok := sess.(TracingBackendSession); ok {
			tracer = ts
			ts.BeginTrace(recvAt, started, tc.Detailed)
		}
	}
	// The span block rides the terminal frame. Backends without span
	// recording still get a block with the measured total, so the client
	// can compute the wire/queue gap against any backend. Streaming
	// responses stamp it when the cursor finishes, so the total covers
	// production time too.
	finishTrace := func() []byte {
		if !traced {
			return nil
		}
		total := time.Since(recvAt)
		var spans []telemetry.RemoteSpan
		if tracer != nil {
			spans = tracer.EndTrace(total)
		}
		return protocol.AppendSpanBlock(nil, total, spans)
	}

	cols, rs, affected, lastID, err := sess.Execute(sql, args)
	if err != nil {
		s.errors.Add(1)
		m.send(sid, protocol.FrameError, append(protocol.EncodeError(err.Error()), finishTrace()...))
		return
	}
	if rs == nil {
		m.send(sid, protocol.FrameOK, append(protocol.EncodeOK(affected, lastID), finishTrace()...))
		return
	}
	m.streamRows(st, seq, cols, rs, finishTrace)
}

// send queues one frame for the socket writer.
func (m *muxConn) send(sid uint32, typ byte, payload []byte) {
	m.writeCh <- outMsg{sid: sid, typ: typ, payload: payload}
}

// flushBarrier blocks until everything queued before it — the calling
// statement's terminal frame included — has been written and flushed to
// the socket (or discarded on a dead socket). Holding the admission
// slot across this barrier is what makes drain mean "response
// delivered", not "response queued".
func (m *muxConn) flushBarrier() {
	done := make(chan struct{})
	m.writeCh <- outMsg{done: done}
	<-done
}

// streamFillRows is how many rows one cursor pull requests. The byte
// threshold still decides batch boundaries; this only caps the slice a
// fill can hand back at once.
const streamFillRows = 256

// streamRows streams a query response from a pull cursor: one row batch
// per write-queue message, so the socket writer interleaves streams
// fairly and a result is never resident here as a whole. Each batch
// first waits for this statement's window credit — a stalled consumer
// pins at most StreamWindow batches of memory per statement — and a
// cursor cancel naming this statement stops production at the next batch
// boundary, finishing the stream with a clean EOF.
func (m *muxConn) streamRows(st *muxStream, seq uint32, cols []string, rs resource.ResultSet, finishTrace func() []byte) {
	defer rs.Close()
	st.credit.Store(uint64(seq) << 32)
	m.send(st.id, protocol.FrameHeader, protocol.EncodeHeader(cols))
	if st.fill == nil {
		st.fill = make([]sqltypes.Row, streamFillRows)
	}
	buf, enc := st.fill, &st.enc
	defer clear(buf)
	defer enc.Reset() // drops rows a cancel or cursor error left unsent
	canceled := false
fill:
	for {
		n, err := rs.NextBatch(buf)
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			m.s.errors.Add(1)
			m.send(st.id, protocol.FrameError, append(protocol.EncodeError(err.Error()), finishTrace()...))
			return
		}
		m.s.rowsStreamed.Add(int64(n))
		for _, row := range buf[:n] {
			enc.Append(row)
			if enc.Size() >= protocol.DefaultBatchBytes {
				if !m.streamBatch(st, seq, enc.Payload()) {
					canceled = true
					break fill
				}
			}
		}
	}
	if !canceled && enc.Rows() > 0 {
		m.streamBatch(st, seq, enc.Payload())
	}
	m.send(st.id, protocol.FrameEOF, finishTrace())
}

// streamBatch ships one row batch, first waiting for window credit. It
// returns false when this statement's cursor was canceled or the stream
// is being torn down; the caller stops producing and closes out the
// response.
func (m *muxConn) streamBatch(st *muxStream, seq uint32, batch *[]byte) bool {
	for {
		if st.cancelSeq.Load() == seq {
			return false
		}
		if uint32(st.credit.Load()) < protocol.StreamWindow {
			break
		}
		// Re-check both conditions after every nudge: the flow
		// channel is a condition signal, not a credit token.
		m.s.creditWaits.Add(1)
		select {
		case <-st.flow:
		case <-st.done:
			return false
		}
	}
	st.credit.Add(1)
	m.writeCh <- outMsg{sid: st.id, typ: protocol.FrameRowBatch, batch: batch}
	m.s.rowBatches.Add(1)
	return true
}

// writeLoop is the socket's only writer: it drains every queued response
// before flushing, so concurrent streams share flush syscalls. After a
// write error it keeps consuming (and discarding) so stream workers never
// block; the read side notices the dead socket and tears the conn down.
func (m *muxConn) writeLoop() {
	defer close(m.wdone)
	var werr error
	var dones []chan struct{}
	for msg := range m.writeCh {
		if werr == nil {
			werr = m.writeMsg(msg)
		}
		if msg.done != nil {
			dones = append(dones, msg.done)
		}
		yielded := false
	drain:
		for {
			select {
			case next, ok := <-m.writeCh:
				if !ok {
					break drain
				}
				if werr == nil {
					werr = m.writeMsg(next)
				}
				if next.done != nil {
					dones = append(dones, next.done)
				}
				yielded = false
			default:
				// Yield once before flushing: runnable stream workers
				// get to queue their responses into this same flush.
				if yielded {
					break drain
				}
				runtime.Gosched()
				yielded = true
			}
		}
		if werr == nil {
			werr = m.w.Flush()
		}
		// Barriers release only after the flush (or on a dead socket,
		// where the bytes are gone anyway and blocking would wedge drain).
		for _, d := range dones {
			close(d)
		}
		dones = dones[:0]
	}
}

func (m *muxConn) writeMsg(msg outMsg) error {
	if msg.done != nil {
		return nil
	}
	payload := msg.payload
	if msg.batch != nil {
		payload = *msg.batch
	}
	err := protocol.WriteFrameV2(m.w, msg.typ, msg.sid, payload)
	if msg.batch != nil {
		// Written, the bytes are in the bufio.Writer or already on the
		// socket: the buffer goes back for the next batch.
		protocol.ReleaseBatch(msg.batch)
	}
	return err
}
