// Multiplexed transport: protocol v2 client side.
//
// A Transport is one TCP connection carrying many logical connections
// (streams). A single demux goroutine reads frames off the socket and
// routes them to per-stream queues by stream ID; writes funnel through a
// single writer goroutine that drains everything queued before paying
// one flush syscall, so N concurrent streams cost far fewer syscalls
// than N sockets would.
//
// Flow control is at statement granularity: a stream has at most
// MaxPipeline statements in flight (client window), while the server
// queues up to four times that per stream, so a compliant client can
// never wedge the socket by overrunning a slow stream.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"shardingsphere/internal/protocol"
)

// MaxPipeline bounds the statements one stream keeps in flight before
// reading responses (the client-side flow-control window). It must stay
// below the server's per-stream queue depth.
const MaxPipeline = 64

// muxFrame is one demultiplexed frame delivered to a stream.
type muxFrame struct {
	typ     byte
	payload []byte
	// at is the receive time, stamped by the demux goroutine on terminal
	// frames — closer to the wire than the consumer's clock, so queue
	// time on the client side counts toward the wire gap too.
	at time.Time
}

// outFrame is one frame queued for a coalesced write.
type outFrame struct {
	typ     byte
	payload []byte
}

// outMsg is one stream's contiguous run of frames handed to the writer
// goroutine as a unit.
type outMsg struct {
	sid    uint32
	frames []outFrame
}

// Transport is one multiplexed TCP connection to a v2 server. Safe for
// concurrent use; logical connections are opened with OpenConn.
type Transport struct {
	nc   net.Conn
	r    *bufio.Reader
	addr string // dialed address; default trace-source label

	w        *bufio.Writer
	writeCh  chan outMsg
	quit     chan struct{}
	quitOnce sync.Once

	mu         sync.Mutex
	streams    map[uint32]*stream
	nextStream uint32
	err        error

	maxFrame uint32 // read limit, from HelloAck

	// Counters surfaced through SHOW METRICS (remote.<ds>.*).
	streamsOpened atomic.Int64
	pipelined     atomic.Int64
	rowBatches    atomic.Int64
	rowsStreamed  atomic.Int64
	bytesStreamed atomic.Int64
	cursorCancels atomic.Int64
	batchAcks     atomic.Int64
	windowPeak    atomic.Int64 // deepest per-stream row-batch queue seen
}

// stream is the client half of one logical connection: an inbound frame
// queue fed by the demux goroutine. Control frames are bounded by the
// pipeline window (at most MaxPipeline responses outstanding); row
// batches are bounded by the server's flow-control window — the server
// keeps at most StreamWindow unacked batches of a statement in flight,
// and the cursor acks them as it reads on, so a stalled merge holds
// ~StreamWindow×DefaultBatchBytes per source instead of the whole result.
type stream struct {
	id      uint32
	mu      sync.Mutex
	q       []muxFrame // unread frames are q[head:]; the array is kept
	head    int
	batches int // row-batch frames currently queued
	err     error
	notify  chan struct{} // capacity 1; nudges a blocked pop
}

// push queues one inbound frame and reports the row-batch queue depth
// after the append (the flow-control window occupancy).
func (s *stream) push(f muxFrame) int {
	s.mu.Lock()
	if s.head > 0 && len(s.q) == cap(s.q) {
		// Never quite caught up: slide the unread frames down, don't grow.
		n := copy(s.q, s.q[s.head:])
		clear(s.q[n:])
		s.q, s.head = s.q[:n], 0
	}
	s.q = append(s.q, f)
	if f.typ == protocol.FrameRowBatch {
		s.batches++
	}
	depth := s.batches
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return depth
}

func (s *stream) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// pop returns the next frame for this stream, blocking until one arrives,
// the stream fails, or ctx is done.
func (s *stream) pop(ctx context.Context) (muxFrame, error) {
	for {
		s.mu.Lock()
		if s.head < len(s.q) {
			f := s.q[s.head]
			s.q[s.head] = muxFrame{} // the slot must not pin a 16 KB payload
			if s.head++; s.head == len(s.q) {
				s.q, s.head = s.q[:0], 0
			}
			if f.typ == protocol.FrameRowBatch {
				s.batches--
			}
			s.mu.Unlock()
			return f, nil
		}
		err := s.err
		s.mu.Unlock()
		if err != nil {
			return muxFrame{}, err
		}
		select {
		case <-s.notify:
		case <-ctx.Done():
			return muxFrame{}, ctx.Err()
		}
	}
}

// dialTimeout bounds the TCP connect and, separately, the Hello exchange
// that follows it: a peer that accepts and then stays silent fails the
// dial instead of hanging it.
const dialTimeout = 5 * time.Second

// negotiate dials addr and opens a protocol v2 transport on the socket.
// Every failure closes the socket; a server that answers the Hello with
// an error (an accept-time overload rejection, or a server built for
// another protocol version) surfaces as that typed remote error.
func negotiate(addr string, timeout time.Duration) (*Transport, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	t, err := handshake(nc, addr, timeout)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: protocol v2 handshake with %s: %w", addr, err)
	}
	return t, nil
}

// handshake runs the Hello/HelloAck exchange — the only traffic in v1
// framing — under a deadline, and starts the transport's goroutines.
func handshake(nc net.Conn, addr string, timeout time.Duration) (*Transport, error) {
	nc.SetDeadline(time.Now().Add(timeout))
	r := bufio.NewReaderSize(nc, 64<<10)
	w := bufio.NewWriterSize(nc, 64<<10)
	if err := protocol.WriteFrame(w, protocol.FrameHello, protocol.EncodeHello(protocol.MaxFrame)); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	typ, payload, err := protocol.ReadFrame(r)
	if err != nil {
		return nil, err
	}
	switch typ {
	case protocol.FrameHelloAck:
		maxFrame, err := protocol.DecodeHello(payload)
		if err != nil {
			return nil, fmt.Errorf("bad hello ack: %w", err)
		}
		if maxFrame == 0 || maxFrame > protocol.MaxFrame {
			maxFrame = protocol.MaxFrame
		}
		nc.SetDeadline(time.Time{})
		t := &Transport{
			nc:       nc,
			r:        r,
			addr:     addr,
			w:        w,
			writeCh:  make(chan outMsg, 256),
			quit:     make(chan struct{}),
			streams:  map[uint32]*stream{},
			maxFrame: maxFrame,
		}
		go t.demux()
		go t.writeLoop()
		return t, nil
	case protocol.FrameError:
		msg, _ := protocol.DecodeError(payload)
		return nil, remoteError(msg)
	default:
		return nil, fmt.Errorf("unexpected frame %#x to hello", typ)
	}
}

// DialMux connects to a data node and negotiates a multiplexed v2
// transport, for callers that open several logical connections on it.
func DialMux(addr string) (*Transport, error) {
	return negotiate(addr, dialTimeout)
}

// demux routes inbound frames to their streams. Any read error is fatal
// for the whole transport: every stream is failed and the socket closed.
func (t *Transport) demux() {
	for {
		typ, sid, payload, err := protocol.ReadFrameV2(t.r, t.maxFrame)
		if err != nil {
			// A socket-level EOF here is a peer disconnect mid-protocol,
			// not end-of-result: surface it as ErrUnexpectedEOF so row
			// cursors reading through this transport don't mistake
			// truncation for clean exhaustion.
			if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				err = io.ErrUnexpectedEOF
			}
			t.fatal(fmt.Errorf("client: transport read: %w", err))
			return
		}
		if typ == protocol.FrameRowBatch {
			t.rowBatches.Add(1)
			t.bytesStreamed.Add(int64(len(payload)))
		}
		var at time.Time
		if typ == protocol.FrameOK || typ == protocol.FrameEOF || typ == protocol.FrameError {
			at = time.Now()
		}
		t.mu.Lock()
		st := t.streams[sid]
		t.mu.Unlock()
		if st != nil {
			depth := st.push(muxFrame{typ: typ, payload: payload, at: at})
			if typ == protocol.FrameRowBatch {
				for {
					p := t.windowPeak.Load()
					if int64(depth) <= p || t.windowPeak.CompareAndSwap(p, int64(depth)) {
						break
					}
				}
			}
		}
		// Frames for unknown streams belong to abandoned conversations;
		// drop them.
	}
}

func (t *Transport) fatal(err error) {
	t.mu.Lock()
	if t.err == nil {
		t.err = err
	}
	streams := make([]*stream, 0, len(t.streams))
	for _, st := range t.streams {
		streams = append(streams, st)
	}
	t.streams = map[uint32]*stream{}
	t.mu.Unlock()
	t.quitOnce.Do(func() { close(t.quit) })
	t.nc.Close()
	for _, st := range streams {
		st.fail(err)
	}
}

// send queues frames for one stream with the writer goroutine. A write
// failure surfaces asynchronously: the transport dies and every stream's
// next pop reports it.
func (t *Transport) send(sid uint32, frames ...outFrame) error {
	select {
	case t.writeCh <- outMsg{sid: sid, frames: frames}:
		return nil
	case <-t.quit:
		t.mu.Lock()
		err := t.err
		t.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("client: transport closed")
		}
		return err
	}
}

// writeLoop is the transport's only socket writer. Before paying the
// flush syscall it drains everything queued, yields once so runnable
// streams can queue their statements too, and drains again — so a burst
// of concurrent statements shares one flush. The yield costs nothing
// when the transport is idle: with no other runnable goroutine it
// returns immediately and the single statement flushes at once.
func (t *Transport) writeLoop() {
	for {
		var msg outMsg
		select {
		case msg = <-t.writeCh:
		case <-t.quit:
			return
		}
		err := t.writeMsg(msg)
		yielded := false
	drain:
		for err == nil {
			select {
			case msg = <-t.writeCh:
				err = t.writeMsg(msg)
				yielded = false
			default:
				if yielded {
					break drain
				}
				runtime.Gosched()
				yielded = true
			}
		}
		if err == nil {
			err = t.w.Flush()
		}
		if err != nil {
			t.fatal(err)
			return
		}
	}
}

func (t *Transport) writeMsg(msg outMsg) error {
	for _, f := range msg.frames {
		if err := protocol.WriteFrameV2(t.w, f.typ, msg.sid, f.payload); err != nil {
			return err
		}
	}
	return nil
}

// Healthy reports whether the transport can still carry streams.
func (t *Transport) Healthy() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err == nil
}

// ActiveStreams counts the currently open logical connections.
func (t *Transport) ActiveStreams() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.streams)
}

// OpenConn opens a new logical connection (stream) on the transport.
func (t *Transport) OpenConn() (*Conn, error) {
	t.mu.Lock()
	if t.err != nil {
		err := t.err
		t.mu.Unlock()
		return nil, err
	}
	t.nextStream++
	st := &stream{id: t.nextStream, notify: make(chan struct{}, 1)}
	t.streams[st.id] = st
	t.mu.Unlock()
	t.streamsOpened.Add(1)
	return &Conn{t: t, st: st, source: t.addr}, nil
}

func (t *Transport) closeStream(st *stream) {
	t.mu.Lock()
	delete(t.streams, st.id)
	t.mu.Unlock()
}

// Close tears down the transport and fails all open streams.
func (t *Transport) Close() error {
	t.fatal(fmt.Errorf("client: transport closed"))
	return nil
}
