// Package client is the Go client for the wire protocol: applications use
// it to talk to a ShardingSphere-Proxy instance, and the kernel uses it to
// drive networked data nodes (cmd/datanode). A Conn satisfies the
// kernel's resource connection contract, so a remote data source plugs in
// exactly like an embedded one.
//
// Dial negotiates protocol v2 (multiplexed streams, pipelining,
// row-batch framing); a server that does not speak it is a dial error.
// NewRemoteDataSource goes further: all logical connections of the pool
// share a handful of multiplexed sockets, so the real TCP footprint stays
// far below the pool's MaxCon.
package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"shardingsphere/internal/admission"
	"shardingsphere/internal/protocol"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/transaction"
)

// ErrRemote wraps an error reported by the server.
var ErrRemote = errors.New("remote error")

// remoteError types a server-reported error message. Overload
// rejections survive the wire round trip: the typed retryable error the
// proxy shed with is reconstructed here — transient for the retry
// machinery, with its reason and retry-after hint intact (IsOverloaded).
// In-doubt commit outcomes are re-typed too, and stay NON-transient:
// the commit decision is logged server-side, so a retry would
// double-apply the transaction (IsInDoubt). Everything else stays a
// plain ErrRemote wrap.
func remoteError(msg string) error {
	if ov, ok := admission.ParseOverloaded(msg); ok {
		return fmt.Errorf("%w: %w", ErrRemote, ov)
	}
	if id, ok := transaction.ParseInDoubt(msg); ok {
		return fmt.Errorf("%w: %w", ErrRemote, id)
	}
	return fmt.Errorf("%w: %s", ErrRemote, msg)
}

// IsOverloaded reports whether err is the server's typed "overloaded,
// retry later" rejection, and if so the shed reason (queue_full,
// deadline, queue_wait, timeout, brake, draining, conn_limit) and the
// server's suggested backoff before retrying.
func IsOverloaded(err error) (reason string, retryAfter time.Duration, ok bool) {
	var ov *admission.OverloadedError
	if errors.As(err, &ov) {
		return ov.Reason, ov.RetryAfter, true
	}
	return "", 0, false
}

// IsInDoubt reports whether err is a COMMIT's typed in-doubt outcome:
// the commit decision is durably logged but some branches have not
// acknowledged phase 2 yet. The transaction WILL commit — the
// coordinator's recovery completes the listed branches — so the caller
// must NOT retry the transaction; treat the work as applied (pending
// recovery) or reconcile via the returned XID.
func IsInDoubt(err error) (*transaction.InDoubtError, bool) {
	var id *transaction.InDoubtError
	if errors.As(err, &id) {
		return id, true
	}
	return nil, false
}

// Conn is one logical protocol connection: one stream on a (possibly
// shared) v2 transport. Not safe for concurrent use (like a database
// connection).
type Conn struct {
	t             *Transport
	st            *stream
	seq           uint32 // 1-based count of statement responses begun on this stream
	ownsTransport bool   // Close tears the transport down too
	source        string // trace-source label (data source name or address)

	closed  bool
	defunct bool
}

// Defunct reports whether the connection suffered a transport failure and
// must not be reused; the pool checks it on release.
func (c *Conn) Defunct() bool { return c.defunct }

// fail marks the connection defunct and passes the error through.
func (c *Conn) fail(err error) error {
	if err != nil {
		c.defunct = true
	}
	return err
}

// Dial connects to a proxy or data node and negotiates protocol v2. The
// returned Conn owns its socket.
func Dial(addr string) (*Conn, error) {
	t, err := negotiate(addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	conn, err := t.OpenConn()
	if err != nil {
		t.Close()
		return nil, err
	}
	conn.ownsTransport = true
	return conn, nil
}

// Ping round-trips a ping frame.
func (c *Conn) Ping() error {
	if c.closed {
		return resource.ErrConnClosed
	}
	if err := c.t.send(c.st.id, outFrame{protocol.FramePing, nil}); err != nil {
		return c.fail(err)
	}
	f, err := c.pop(context.Background())
	if err != nil {
		return err
	}
	if f.typ != protocol.FramePong {
		return c.fail(fmt.Errorf("client: unexpected frame %#x to ping", f.typ))
	}
	return nil
}

// pop reads the next frame for this conn's stream. A context abort
// abandons the conversation mid-stream, so the logical conn is marked
// defunct and the server told to tear the stream down; sibling streams on
// the same socket are unaffected.
func (c *Conn) pop(ctx context.Context) (muxFrame, error) {
	f, err := c.st.pop(ctx)
	if err != nil {
		c.defunct = true
		if ctx.Err() != nil && c.t.Healthy() {
			c.t.send(c.st.id, outFrame{protocol.FrameStreamClose, nil})
			c.t.closeStream(c.st)
		}
		return muxFrame{}, err
	}
	return f, nil
}

// stmtFrame builds one statement's frame: text, bind args and the
// trace-context trailer, which is unconditional (fixed size, so the server
// strips it without parsing).
func stmtFrame(sql string, args []sqltypes.Value, tc protocol.TraceContext) outFrame {
	return outFrame{protocol.FrameQuery, protocol.AppendTraceContext(protocol.EncodeQuery(sql, args), tc)}
}

// roundTrip sends one statement and reads the first frame of its
// response. Every statement entry point (Query, Exec, Do) is this plus
// what it does with a row set. A defunct conn sends nothing: its stream
// may be torn down at both ends, and no reply would ever reach it.
func (c *Conn) roundTrip(ctx context.Context, sql string, args []sqltypes.Value) ([]string, resource.ExecResult, spanExpect, error) {
	if c.closed || c.defunct {
		return nil, resource.ExecResult{}, spanExpect{}, resource.ErrConnClosed
	}
	tc, exp := beginTrace(ctx)
	if err := c.t.send(c.st.id, stmtFrame(sql, args, tc)); err != nil {
		return nil, resource.ExecResult{}, exp, c.fail(err)
	}
	cols, res, err := c.firstFrame(ctx, exp)
	return cols, res, exp, err
}

// firstFrame classifies the first frame of a statement response. cols is
// non-nil exactly when a row set follows (the header is consumed, the
// caller owns the rows); otherwise res is the statement's exec summary.
// Remote statement errors leave the conn healthy; protocol or transport
// errors mark it defunct. seq advances here, not at send, so a cursor in
// the middle of a pipelined window names its own statement.
func (c *Conn) firstFrame(ctx context.Context, exp spanExpect) ([]string, resource.ExecResult, error) {
	c.seq++
	f, err := c.pop(ctx)
	if err != nil {
		return nil, resource.ExecResult{}, err
	}
	switch f.typ {
	case protocol.FrameOK:
		exp.observe(c, f)
		affected, lastID, err := protocol.DecodeOK(f.payload)
		if err != nil {
			return nil, resource.ExecResult{}, c.fail(err)
		}
		return nil, resource.ExecResult{Affected: affected, LastInsertID: lastID}, nil
	case protocol.FrameError:
		exp.observe(c, f)
		msg, _ := protocol.DecodeError(f.payload)
		return nil, resource.ExecResult{}, remoteError(msg)
	case protocol.FrameHeader:
		cols, err := protocol.DecodeHeader(f.payload)
		if err != nil {
			return nil, resource.ExecResult{}, c.fail(err)
		}
		return cols, resource.ExecResult{}, nil
	default:
		return nil, resource.ExecResult{}, c.fail(fmt.Errorf("client: unexpected frame %#x", f.typ))
	}
}

// rows is the cursor over the row set whose header firstFrame consumed.
func (c *Conn) rows(ctx context.Context, cols []string, exp spanExpect) *remoteRows {
	return &remoteRows{c: c, ctx: ctx, seq: c.seq, cols: cols, exp: exp}
}

// discardRows is Exec's tolerance for a statement that answered with
// rows (nil cols: it did not): read the set to its end and report zero
// affected, as database/sql does.
func (c *Conn) discardRows(ctx context.Context, cols []string, exp spanExpect) error {
	if cols == nil {
		return nil
	}
	rs := c.rows(ctx, cols, exp)
	rs.skim()
	return rs.err
}

// remoteRows is the lazy batched cursor over one v2 query result. Row
// batches are decoded one frame at a time as the reader advances, so a
// large result never has to be resident all at once (Memory-Strictly
// friendly). The cursor owns the stream until Close. Closing an
// unfinished cursor sends FrameCursorCancel so the server stops
// producing; the bounded skim to EOF then costs at most the in-flight
// window, not the rest of the result — the logical connection stays
// healthy for the next statement.
//
// A row's string values are views of the frame its batch arrived in
// (protocol.DecodeRowBatch), so a row the caller keeps pins at most that
// one frame: DefaultBatchBytes plus one row.
type remoteRows struct {
	c      *Conn
	ctx    context.Context
	seq    uint32 // this statement's 1-based sequence on the stream
	cols   []string
	batch  []sqltypes.Row
	pos    int
	done   bool
	err    error
	closed bool
	owe    bool       // the last row batch taken is not acked yet
	keep   bool       // each batch decodes onto the rows before it (all)
	exp    spanExpect // span grafting on the terminal frame, if traced
}

func (rs *remoteRows) Columns() []string { return rs.cols }

// fetch ensures the current batch has unread rows, pulling the next
// row-batch frame when it runs dry. After fetch: either pos < len(batch),
// or done is set (EOF/error consumed).
//
// A batch is acked (the server's credit for the next one) once the frame
// behind it turns out to be another batch of this statement; when it is
// the terminal frame, the server has finished and that frame stands in
// for the ack, so a one-batch result costs none. Acking one frame late
// cannot wedge the stream: with the queue empty the server holds at most
// the one unacked batch, below StreamWindow.
func (rs *remoteRows) fetch() error {
	if rs.err != nil {
		return rs.err
	}
	for !rs.done && rs.pos >= len(rs.batch) {
		f, err := rs.c.pop(rs.ctx)
		if err != nil {
			rs.done, rs.err = true, err
			return err
		}
		switch f.typ {
		case protocol.FrameRowBatch:
			if rs.owe {
				rs.c.t.batchAcks.Add(1)
				rs.c.t.send(rs.c.st.id, outFrame{protocol.FrameBatchAck, protocol.EncodeSeq(rs.seq)})
			}
			rs.owe = true
			at := 0
			if rs.keep {
				at = len(rs.batch)
			}
			rs.batch, err = protocol.DecodeRowBatch(f.payload, rs.batch[:at])
			rs.pos = at
			if err != nil {
				rs.done, rs.err = true, rs.c.fail(err)
				return rs.err
			}
			rs.c.t.rowsStreamed.Add(int64(len(rs.batch) - at))
		case protocol.FrameEOF:
			rs.exp.observe(rs.c, f)
			rs.done = true
		case protocol.FrameError:
			rs.exp.observe(rs.c, f)
			msg, _ := protocol.DecodeError(f.payload)
			rs.done = true
			rs.err = remoteError(msg)
			return rs.err
		default:
			rs.done = true
			rs.err = rs.c.fail(fmt.Errorf("client: unexpected frame %#x in row stream", f.typ))
			return rs.err
		}
	}
	return nil
}

func (rs *remoteRows) Next() (sqltypes.Row, error) {
	if err := rs.fetch(); err != nil {
		return nil, err
	}
	if rs.pos >= len(rs.batch) {
		return nil, io.EOF
	}
	row := rs.batch[rs.pos]
	rs.pos++
	return row, nil
}

func (rs *remoteRows) NextBatch(buf []sqltypes.Row) (int, error) {
	if err := rs.fetch(); err != nil {
		return 0, err
	}
	if rs.pos >= len(rs.batch) {
		return 0, io.EOF
	}
	n := copy(buf, rs.batch[rs.pos:])
	rs.pos += n
	return n, nil
}

func (rs *remoteRows) Close() error {
	if rs.closed {
		return nil
	}
	rs.closed = true
	// An unfinished cursor cancels the server-side producer first: the
	// server stops at the next batch boundary and sends EOF, so the skim
	// below reads at most the in-flight window instead of the whole
	// remaining result. The seq match server-side makes a cancel racing
	// the natural EOF harmless.
	if !rs.done && rs.c.t.Healthy() {
		rs.c.t.cursorCancels.Add(1)
		rs.c.t.send(rs.c.st.id, outFrame{protocol.FrameCursorCancel, protocol.EncodeSeq(rs.seq)})
	}
	rs.skim()
	return nil
}

// skim reads to end-of-result so the stream is clean for the next
// statement; error paths set done, so this terminates.
func (rs *remoteRows) skim() {
	for !rs.done {
		rs.pos = len(rs.batch)
		rs.fetch()
	}
}

// all reads a fresh cursor's result the way skim does, but decodes each
// batch onto the rows before it: no read window, no second copy, and a
// one-batch result is one exact allocation. Acks and the terminal frame
// are fetch's, as for any read.
func (rs *remoteRows) all() ([]sqltypes.Row, error) {
	rs.keep = true
	rs.skim()
	return rs.batch, rs.err
}

// --- Conn operations ---

// Query executes a statement that returns rows; the result is a lazy
// batched cursor. A context abort mid-conversation marks the conn defunct
// (the pool discards it) without disturbing sibling streams.
func (c *Conn) Query(ctx context.Context, sql string, args ...sqltypes.Value) (resource.ResultSet, error) {
	cols, _, exp, err := c.roundTrip(ctx, sql, args)
	if err != nil {
		return nil, err
	}
	if cols == nil {
		return nil, fmt.Errorf("client: %q returned no row set", sql)
	}
	return c.rows(ctx, cols, exp), nil
}

// Exec executes a statement that returns no rows.
func (c *Conn) Exec(ctx context.Context, sql string, args ...sqltypes.Value) (resource.ExecResult, error) {
	cols, res, exp, err := c.roundTrip(ctx, sql, args)
	if err == nil {
		err = c.discardRows(ctx, cols, exp)
	}
	return res, err
}

// pipeline runs stmts a window (≤ MaxPipeline) at a time: every statement
// of a window is written before the first response is read, so a batch
// pays one round trip per window instead of one per statement. read
// consumes the rest of statement i's response; the window is read to its
// end even past a failure, so the stream stays aligned. The first failure
// is reported as *resource.BatchError with its index; the statements
// behind it still execute.
func (c *Conn) pipeline(ctx context.Context, stmts []resource.Statement, read func(i int, cols []string, res resource.ExecResult, exp spanExpect) error) error {
	if c.closed || c.defunct {
		return resource.ErrConnClosed
	}
	var firstErr error
	for base := 0; base < len(stmts); base += MaxPipeline {
		end := min(base+MaxPipeline, len(stmts))
		tc, exp := beginTrace(ctx)
		frames := make([]outFrame, 0, end-base)
		for _, st := range stmts[base:end] {
			frames = append(frames, stmtFrame(st.SQL, st.Args, tc))
		}
		if err := c.t.send(c.st.id, frames...); err != nil {
			return &resource.BatchError{Index: base, Err: c.fail(err)}
		}
		c.t.pipelined.Add(1)
		for i := base; i < end; i++ {
			cols, res, err := c.firstFrame(ctx, exp)
			if err == nil {
				err = read(i, cols, res, exp)
			}
			if err != nil {
				if c.defunct {
					return &resource.BatchError{Index: i, Err: err}
				}
				if firstErr == nil {
					firstErr = &resource.BatchError{Index: i, Err: err}
				}
			}
		}
		if firstErr != nil {
			return firstErr
		}
	}
	return nil
}

// ExecBatch implements resource.BatchConn: the results of the statements
// before the first failure.
func (c *Conn) ExecBatch(ctx context.Context, stmts []resource.Statement) ([]resource.ExecResult, error) {
	results := make([]resource.ExecResult, 0, len(stmts))
	err := c.pipeline(ctx, stmts, func(i int, cols []string, res resource.ExecResult, exp spanExpect) error {
		err := c.discardRows(ctx, cols, exp)
		if err == nil && len(results) == i {
			results = append(results, res)
		}
		return err
	})
	return results, err
}

// QueryBatch implements resource.BatchConn: each row set is read to its
// end as its turn comes (the server paces each statement by its own
// StreamWindow while the statements behind it already run); the stream
// is free on return.
func (c *Conn) QueryBatch(ctx context.Context, stmts []resource.Statement) ([]resource.ResultSet, error) {
	sets := make([]resource.ResultSet, 0, len(stmts))
	err := c.pipeline(ctx, stmts, func(i int, cols []string, _ resource.ExecResult, exp spanExpect) error {
		var rs resource.ResultSet
		var err error
		switch {
		case stmts[i].Verb:
			err = c.discardRows(ctx, cols, exp)
		case cols == nil:
			return fmt.Errorf("client: %q returned no row set", stmts[i].SQL)
		default:
			var rows []sqltypes.Row
			rows, err = c.rows(ctx, cols, exp).all()
			rs = resource.NewSliceResultSet(cols, rows)
		}
		if err == nil && len(sets) == i {
			sets = append(sets, rs)
		}
		return err
	})
	return sets, err
}

// Result is the outcome of Do: either a row set or an exec summary. Its
// rows' strings view the frames they arrived in, each at most
// DefaultBatchBytes plus one row, so a row kept alone pins one frame.
type Result struct {
	Rows resource.ResultSet // nil for non-queries
	Exec resource.ExecResult
}

// Do executes one statement, returning rows when the server sends them
// and an exec result otherwise. Interactive shells use it to avoid
// guessing the statement kind: the server answers FrameOK for non-queries
// and a row set otherwise, so the statement is never executed twice.
func (c *Conn) Do(sql string, args ...sqltypes.Value) (*Result, error) {
	ctx := context.Background()
	cols, res, exp, err := c.roundTrip(ctx, sql, args)
	if err != nil {
		return nil, err
	}
	if cols == nil {
		return &Result{Exec: res}, nil
	}
	// Materialize: shells print whole results anyway.
	rows, err := c.rows(ctx, cols, exp).all()
	if err != nil {
		return nil, err
	}
	return &Result{Rows: resource.NewSliceResultSet(cols, rows)}, nil
}

// Close terminates the logical connection: only its stream (the shared
// socket lives on) unless it owns the transport.
func (c *Conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.ownsTransport {
		return c.t.Close()
	}
	if c.t.Healthy() {
		c.t.send(c.st.id, outFrame{protocol.FrameStreamClose, nil})
	}
	c.t.closeStream(c.st)
	return nil
}

// --- remote data source (mux pool) ---

// DefaultMuxSockets is how many multiplexed TCP connections a remote data
// source fans its logical connections across. A handful of sockets keeps
// head-of-line effects negligible while the socket count stays an order
// of magnitude below typical pool sizes.
const DefaultMuxSockets = 4

// muxPool shares a fixed set of transports among all pooled logical
// conns, redialing slots whose transport died.
type muxPool struct {
	addr string
	name string // data source name; labels traced spans from this pool

	mu         sync.Mutex
	transports []*Transport
	next       int

	socketsOpened atomic.Int64
}

// factory is the pool's resource.DataSource connection factory.
func (p *muxPool) factory() (resource.Conn, error) {
	c, err := p.open()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// open returns a new logical conn on the next transport slot, dialing
// the slot first when its transport is missing or dead.
func (p *muxPool) open() (*Conn, error) {
	p.mu.Lock()
	slot := p.next % len(p.transports)
	p.next++
	t := p.transports[slot]
	p.mu.Unlock()
	if t != nil && t.Healthy() {
		return p.openConn(t)
	}
	tr, err := negotiate(p.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	p.socketsOpened.Add(1)
	p.mu.Lock()
	// A concurrent open may have already replaced this slot; keep the
	// healthy incumbent and fold our dial into it.
	if cur := p.transports[slot]; cur != nil && cur.Healthy() {
		p.mu.Unlock()
		tr.Close()
		return p.openConn(cur)
	}
	p.transports[slot] = tr
	p.mu.Unlock()
	return p.openConn(tr)
}

// openConn opens a stream labeled with the pool's data source name, so
// grafted remote spans attribute to the source rather than its address.
func (p *muxPool) openConn(t *Transport) (*Conn, error) {
	c, err := t.OpenConn()
	if err != nil {
		return nil, err
	}
	if p.name != "" {
		c.source = p.name
	}
	return c, nil
}

// metrics snapshots transport counters across all sockets; the kernel's
// metrics snapshot reports them under "remote.<ds>.".
func (p *muxPool) metrics() map[string]int64 {
	m := map[string]int64{
		"sockets_open":      0,
		"streams_active":    0,
		"streams_opened":    0,
		"pipelined_batches": 0,
		"rows_streamed":     0,
		"batches_streamed":  0,
		"bytes_streamed":    0,
		"cursor_cancels":    0,
		"batch_acks":        0,
		"batch_window_peak": 0,
		"sockets_dialed":    p.socketsOpened.Load(),
		"mux_socket_budget": 0,
	}
	p.mu.Lock()
	transports := append([]*Transport(nil), p.transports...)
	p.mu.Unlock()
	m["mux_socket_budget"] = int64(len(transports))
	for _, t := range transports {
		if t == nil {
			continue
		}
		if t.Healthy() {
			m["sockets_open"]++
		}
		m["streams_active"] += int64(t.ActiveStreams())
		m["streams_opened"] += t.streamsOpened.Load()
		m["pipelined_batches"] += t.pipelined.Load()
		m["rows_streamed"] += t.rowsStreamed.Load()
		m["batches_streamed"] += t.rowBatches.Load()
		m["bytes_streamed"] += t.bytesStreamed.Load()
		m["cursor_cancels"] += t.cursorCancels.Load()
		m["batch_acks"] += t.batchAcks.Load()
		m["batch_window_peak"] = max(m["batch_window_peak"], t.windowPeak.Load())
	}
	return m
}

// NewRemoteDataSource builds a pooled data source whose logical
// connections share DefaultMuxSockets multiplexed TCP connections to the
// given address — how the kernel attaches networked data nodes.
func NewRemoteDataSource(name, addr string, opts *resource.Options) *resource.DataSource {
	sockets := DefaultMuxSockets
	p := &muxPool{addr: addr, name: name, transports: make([]*Transport, sockets)}
	ds := resource.NewDataSource(name, p.factory, opts)
	ds.SetAuxMetrics(p.metrics)
	ds.SetMetricsPull(p.pullMetrics)
	return ds
}
