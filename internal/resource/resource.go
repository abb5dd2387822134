// Package resource abstracts the kernel's view of a data source: named
// databases reached through pooled connections that execute SQL text and
// stream result rows back. It is the Go analogue of the JDBC layer the
// paper's kernel drives (Section VI-D): the execution engine acquires a
// bounded number of connections per data source (MaxCon), and the choice
// between holding cursors open (stream merge) and draining them into
// memory (memory merge) happens against these interfaces.
//
// Two implementations exist: the embedded connection in this package,
// which drives an in-process sqlexec session, and the remote connection in
// package client, which speaks the wire protocol to a data node server.
//
// All connection operations are context-first: cancellation and deadlines
// flow through the same methods that execute, so there is exactly one way
// to run a statement. Result cursors are batch-oriented: NextBatch moves
// many rows per interface call, and Next remains as the row-at-a-time
// view over it.
package resource

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"shardingsphere/internal/sqlexec"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
	"shardingsphere/internal/telemetry"
)

// Errors returned by the resource layer.
var (
	ErrPoolExhausted = errors.New("resource: connection pool exhausted")
	ErrConnClosed    = errors.New("resource: connection closed")
)

// TransientError marks failures worth retrying on a fresh connection (or
// another replica): infrastructure trouble rather than a statement the
// database rejected. Injected chaos faults implement it.
type TransientError interface {
	Transient() bool
}

// IsTransient classifies an execution error as transient (retry may
// succeed: pool pressure, dead connections, wire resets, injected faults)
// or permanent (the SQL itself failed; retrying is pointless and unsafe).
// Context cancellation and deadline expiry are NOT transient — the caller
// gave up, retrying would outlive its budget.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var te TransientError
	if errors.As(err, &te) {
		return te.Transient()
	}
	if errors.Is(err, ErrPoolExhausted) || errors.Is(err, ErrConnClosed) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	// Wire-level failures from remote connections surface as formatted
	// errors; match the canonical transport markers.
	msg := err.Error()
	for _, marker := range []string{
		"connection reset", "broken pipe", "connection refused",
		"use of closed network connection", "defunct",
	} {
		if strings.Contains(msg, marker) {
			return true
		}
	}
	return false
}

// ExecResult is the outcome of DML/DDL on a data source.
type ExecResult struct {
	Affected     int64
	LastInsertID int64
}

// ResultSet is a cursor over one query result from one data source. Next
// returns io.EOF after the last row. A ResultSet holds node resources (and
// for pooled connections, the connection itself) until Close.
type ResultSet interface {
	Columns() []string
	Next() (sqltypes.Row, error)
	// NextBatch fills buf with up to len(buf) rows and returns how many
	// were written. It returns (0, io.EOF) once the cursor is exhausted;
	// a short (even zero-row) batch with a nil error just means "call
	// again". Batched readers amortize the per-row interface-call and
	// (for remote cursors) per-frame costs that Next pays.
	NextBatch(buf []sqltypes.Row) (int, error)
	Close() error
}

// FillBatch implements NextBatch semantics over a row-at-a-time next
// function: fill buf until full or io.EOF, mapping "EOF with zero rows"
// to (0, io.EOF).
func FillBatch(next func() (sqltypes.Row, error), buf []sqltypes.Row) (int, error) {
	n := 0
	for n < len(buf) {
		row, err := next()
		if errors.Is(err, io.EOF) {
			if n == 0 {
				return 0, io.EOF
			}
			return n, nil
		}
		if err != nil {
			return n, err
		}
		buf[n] = row
		n++
	}
	return n, nil
}

// Conn is one connection to a data source. Conns carry session state
// (open transactions), so a transaction must stay on one Conn. Conns are
// not safe for concurrent use.
//
// Both operations take a context: interruptible connections (remote, and
// fault-injected ones) unblock when it is cancelled; in-process
// connections pre-check it so cancelled work never starts.
type Conn interface {
	// Query executes a statement that returns rows.
	Query(ctx context.Context, sql string, args ...sqltypes.Value) (ResultSet, error)
	// Exec executes a statement that returns no rows.
	Exec(ctx context.Context, sql string, args ...sqltypes.Value) (ExecResult, error)
	// Close releases the underlying session.
	Close() error
}

// Statement is one unit of a pipelined batch: SQL text plus bind args.
type Statement struct {
	SQL  string
	Args []sqltypes.Value
	// Tables, when set, runs a single-table SELECT over these tables'
	// union (sqlexec.Session.ExecuteTables); its *SliceResultSet's
	// TableRows counts each table's rows.
	Tables []string
	// Verb marks a statement run for its effect alone, such as the BEGIN
	// that opens a transaction branch ahead of a read window: QueryBatch
	// expects no row set from it and leaves its result slot nil.
	Verb bool
}

// BatchConn is implemented by connections that can pipeline a batch of
// statements: all statements are sent before the first response is read,
// collapsing N round trips into one. Results are positional. A failed
// statement yields a BatchError carrying its index; statements after it
// are still executed (the batch is not transactional by itself).
// QueryBatch returns every result materialized — the connection is free
// for its next statement when the call returns — and does not keep stmts;
// a statement that returns no row set fails it unless marked Verb.
type BatchConn interface {
	ExecBatch(ctx context.Context, stmts []Statement) ([]ExecResult, error)
	QueryBatch(ctx context.Context, stmts []Statement) ([]ResultSet, error)
}

// BatchError attributes a batch failure to one statement.
type BatchError struct {
	Index int
	Err   error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("batch statement %d: %v", e.Index, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// ExecBatch executes stmts on c, pipelining when the connection supports
// it and degrading to a sequential loop otherwise. On error the returned
// error wraps (or is) a *BatchError identifying the failed statement.
func ExecBatch(ctx context.Context, c Conn, stmts []Statement) ([]ExecResult, error) {
	if bc, ok := c.(BatchConn); ok {
		return bc.ExecBatch(ctx, stmts)
	}
	results := make([]ExecResult, 0, len(stmts))
	for i, st := range stmts {
		res, err := c.Exec(ctx, st.SQL, st.Args...)
		if err != nil {
			return results, &BatchError{Index: i, Err: err}
		}
		results = append(results, res)
	}
	return results, nil
}

// tableQuerier is a connection that runs a Statement's table list itself
// (the embedded one, over its sqlexec session).
type tableQuerier interface {
	queryTables(ctx context.Context, st Statement) (ResultSet, error)
}

// QueryBatch runs stmts on c and returns each result read to its end,
// pipelining when the connection can, else one by one; a table list runs
// only on a tableQuerier, any other connection refuses it with
// sqlexec.ErrTableList. Errors are as ExecBatch's.
func QueryBatch(ctx context.Context, c Conn, stmts []Statement) ([]ResultSet, error) {
	if bc, ok := c.(BatchConn); ok {
		return bc.QueryBatch(ctx, stmts)
	}
	sets := make([]ResultSet, 0, len(stmts))
	for i, st := range stmts {
		var rs ResultSet
		var err error
		switch tq, ok := c.(tableQuerier); {
		case st.Tables != nil && ok:
			rs, err = tq.queryTables(ctx, st)
		case st.Tables != nil:
			err = fmt.Errorf("%w: the connection runs no list", sqlexec.ErrTableList)
		case st.Verb:
			_, err = c.Exec(ctx, st.SQL, st.Args...)
		default:
			rs, err = c.Query(ctx, st.SQL, st.Args...)
		}
		if _, ok := rs.(*SliceResultSet); err == nil && rs != nil && !ok {
			cols := rs.Columns()
			var rows []sqltypes.Row
			rows, err = ReadAll(rs)
			rs = NewSliceResultSet(cols, rows)
		}
		if err != nil {
			return sets, &BatchError{Index: i, Err: err}
		}
		sets = append(sets, rs)
	}
	return sets, nil
}

// SliceResultSet adapts a materialized row set to the ResultSet
// interface. It holds no connection: closing it releases nothing.
type SliceResultSet struct {
	Cols      []string
	Data      []sqltypes.Row
	TableRows []int // a table list's per-table row counts (Statement.Tables)
	pos       int
}

// NewSliceResultSet wraps columns and rows as a ResultSet.
func NewSliceResultSet(cols []string, rows []sqltypes.Row) *SliceResultSet {
	return &SliceResultSet{Cols: cols, Data: rows}
}

// Columns implements ResultSet.
func (rs *SliceResultSet) Columns() []string { return rs.Cols }

// Next implements ResultSet.
func (rs *SliceResultSet) Next() (sqltypes.Row, error) {
	if rs.pos >= len(rs.Data) {
		return nil, io.EOF
	}
	row := rs.Data[rs.pos]
	rs.pos++
	return row, nil
}

// NextBatch implements ResultSet natively: one copy moves the whole
// window.
func (rs *SliceResultSet) NextBatch(buf []sqltypes.Row) (int, error) {
	if rs.pos >= len(rs.Data) {
		return 0, io.EOF
	}
	n := copy(buf, rs.Data[rs.pos:])
	rs.pos += n
	return n, nil
}

// Remaining reports the unread rows, all of them at hand.
func (rs *SliceResultSet) Remaining() (int, bool) { return len(rs.Data) - rs.pos, true }

// Rest hands over the unread rows without copying and leaves the cursor
// exhausted. Readers that would otherwise copy the rows through a window
// (ReadAll, the merger's shard cursors) read the slice in place.
func (rs *SliceResultSet) Rest() []sqltypes.Row {
	rows := rs.Data[rs.pos:]
	rs.pos = len(rs.Data)
	return rows
}

// Close implements ResultSet.
func (rs *SliceResultSet) Close() error { return nil }

// closeHookSet runs a hook exactly once after the wrapped set closes.
type closeHookSet struct {
	ResultSet
	hook func()
	done bool
}

// WithCloseHook wraps a result set so hook fires exactly once when the
// set is closed. Executors use it to keep a fan-out cancel context alive
// until the last live cursor reading through it is released.
func WithCloseHook(rs ResultSet, hook func()) ResultSet {
	return &closeHookSet{ResultSet: rs, hook: hook}
}

// Close implements ResultSet.
func (s *closeHookSet) Close() error {
	err := s.ResultSet.Close()
	if !s.done {
		s.done = true
		s.hook()
	}
	return err
}

// Remaining reports how many rows rs has left when it holds them all
// already — a materialized set, or a lease or counting wrapper around one
// — and ok false otherwise. ReadAll sizes its result by it.
func Remaining(rs ResultSet) (rows int, ok bool) {
	if b, is := rs.(interface{ Remaining() (int, bool) }); is {
		return b.Remaining()
	}
	return 0, false
}

// ReadAll drains a result set into memory and closes it.
func ReadAll(rs ResultSet) ([]sqltypes.Row, error) {
	defer rs.Close()
	// Materialized sets hand over their backing slice without copying.
	if s, ok := rs.(*SliceResultSet); ok {
		return s.Rest(), nil
	}
	// Batches land directly in the result's spare capacity, which doubles
	// when full: no window buffer, no second copy. A set that holds its
	// rows sizes the result exactly; an empty window then reads its end.
	size, exact := Remaining(rs)
	if !exact {
		size = 16
	}
	rows := make([]sqltypes.Row, 0, size)
	for {
		if len(rows) == cap(rows) && !exact {
			rows = append(rows, nil)[:len(rows)]
		}
		n, err := rs.NextBatch(rows[len(rows):cap(rows)])
		rows = rows[:len(rows)+n]
		if errors.Is(err, io.EOF) {
			return rows, nil
		}
		if err != nil {
			return rows, err
		}
		exact = exact && n > 0 // too few rows reported: grow from here
	}
}

// --- embedded connection ---

// embeddedConn drives an in-process query processor session.
type embeddedConn struct {
	sess   *sqlexec.Session
	closed bool
}

// run executes one statement; a table list also returns its row counts.
func (c *embeddedConn) run(ctx context.Context, st Statement) (*sqlexec.Result, []int, error) {
	if c.closed {
		return nil, nil, ErrConnClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return c.sess.ExecuteTables(st.SQL, st.Tables, st.Args...)
}

func (c *embeddedConn) Query(ctx context.Context, sql string, args ...sqltypes.Value) (ResultSet, error) {
	res, _, err := c.run(ctx, Statement{SQL: sql, Args: args})
	if err == nil && !res.IsQuery() {
		err = fmt.Errorf("resource: %q returned no row set", sql)
	}
	if err != nil {
		return nil, err
	}
	return NewSliceResultSet(res.Columns, res.Rows), nil
}

func (c *embeddedConn) Exec(ctx context.Context, sql string, args ...sqltypes.Value) (ExecResult, error) {
	res, _, err := c.run(ctx, Statement{SQL: sql, Args: args})
	if err != nil {
		return ExecResult{}, err
	}
	return ExecResult{Affected: res.Affected, LastInsertID: res.LastInsertID}, nil
}

// queryTables runs st over the union of its tables (Statement.Tables).
func (c *embeddedConn) queryTables(ctx context.Context, st Statement) (ResultSet, error) {
	res, counts, err := c.run(ctx, st)
	if err != nil {
		return nil, err
	}
	return &SliceResultSet{Cols: res.Columns, Data: res.Rows, TableRows: counts}, nil
}

func (c *embeddedConn) Close() error {
	if !c.closed {
		c.closed = true
		c.sess.Close()
	}
	return nil
}

// --- data source ---

// Options configures a DataSource.
type Options struct {
	// PoolSize bounds the total open connections (default 64).
	PoolSize int
	// AcquireTimeout bounds waits for a pooled connection (default 5s).
	AcquireTimeout time.Duration
	// Dialect selects the SQL dialect the source speaks.
	Dialect sqlparser.Dialect
}

func (o *Options) withDefaults() Options {
	out := Options{PoolSize: 64, AcquireTimeout: 5 * time.Second}
	if o == nil {
		return out
	}
	if o.PoolSize > 0 {
		out.PoolSize = o.PoolSize
	}
	if o.AcquireTimeout > 0 {
		out.AcquireTimeout = o.AcquireTimeout
	}
	out.Dialect = o.Dialect
	return out
}

// ConnFactory creates raw connections for a DataSource.
type ConnFactory func() (Conn, error)

// ConnInterceptor wraps a connection at checkout time; the chaos layer
// injects faults through it. The raw connection (not the wrapper) is what
// returns to the pool on release.
type ConnInterceptor func(Conn) Conn

// AcquireObserver is notified of every acquisition that missed the idle
// fast path: the time spent blocked and whether it ended in timeout.
type AcquireObserver func(wait time.Duration, timedOut bool)

// Remote is the transport a networked data source's connections ride.
type Remote interface {
	// Metrics reports its counters (mux sockets, streams, pipelined
	// batches, row batches), which the kernel's metrics snapshot reports
	// under "remote.<ds>.".
	Metrics() map[string]int64
	// PullMetrics scrapes the peer's histogram and counter snapshot
	// (wire-v2 FrameMetricsPull), which SHOW CLUSTER METRICS merges.
	PullMetrics(ctx context.Context) (*telemetry.MetricsSnapshot, error)
	// Close closes its sockets and waits for the goroutines serving them.
	Close()
}

// DataSource is one named database with a connection pool.
type DataSource struct {
	name    string
	dialect sqlparser.Dialect
	factory ConnFactory
	opts    Options

	idle  chan Conn
	slots chan struct{} // capacity tokens: one per open or openable conn

	// Pool gauges. The idle fast path pays exactly two atomic adds; wait
	// accounting happens only on the blocking path.
	inUse     atomic.Int64
	waiters   atomic.Int64
	acquires  atomic.Uint64
	waitNs    atomic.Int64
	timeouts  atomic.Uint64
	discarded atomic.Uint64 // defunct idle conns replaced on acquire
	observer  atomic.Pointer[AcquireObserver]

	interceptor atomic.Pointer[ConnInterceptor]
	remote      Remote // nil for an embedded source
}

// PoolStats is a point-in-time snapshot of one pool's gauges.
type PoolStats struct {
	InUse     int64
	Idle      int
	Waiters   int64
	Acquires  uint64
	WaitTotal time.Duration
	Timeouts  uint64
	Discarded uint64
}

// NewDataSource builds a data source from a connection factory.
func NewDataSource(name string, factory ConnFactory, opts *Options) *DataSource {
	o := opts.withDefaults()
	ds := &DataSource{
		name:    name,
		dialect: o.Dialect,
		factory: factory,
		opts:    o,
		idle:    make(chan Conn, o.PoolSize),
		slots:   make(chan struct{}, o.PoolSize),
	}
	for i := 0; i < o.PoolSize; i++ {
		ds.slots <- struct{}{}
	}
	return ds
}

// NewRemote builds a data source whose connections ride remote; closing
// the source closes it.
func NewRemote(name string, factory ConnFactory, remote Remote, opts *Options) *DataSource {
	ds := NewDataSource(name, factory, opts)
	ds.remote = remote
	return ds
}

// NewEmbedded builds a data source over an in-process storage engine.
func NewEmbedded(engine *storage.Engine, opts *Options) *DataSource {
	o := opts.withDefaults()
	proc := sqlexec.NewProcessor(engine)
	return NewDataSource(engine.Name(), func() (Conn, error) {
		return &embeddedConn{sess: proc.NewSession()}, nil
	}, &o)
}

// Name returns the data source name.
func (ds *DataSource) Name() string { return ds.name }

// Dialect returns the SQL dialect the source speaks.
func (ds *DataSource) Dialect() sqlparser.Dialect { return ds.dialect }

// PoolSize returns the configured pool capacity.
func (ds *DataSource) PoolSize() int { return ds.opts.PoolSize }

// SetAcquireObserver installs the blocking-acquire callback (telemetry).
// Safe to call concurrently with Acquire.
func (ds *DataSource) SetAcquireObserver(fn AcquireObserver) {
	if fn == nil {
		ds.observer.Store(nil)
		return
	}
	ds.observer.Store(&fn)
}

// AuxMetrics snapshots transport-level counters, or nil if the data
// source has no remote transport behind it.
func (ds *DataSource) AuxMetrics() map[string]int64 {
	if ds.remote == nil {
		return nil
	}
	return ds.remote.Metrics()
}

// MetricsPull scrapes the peer's metrics snapshot, or returns (nil, nil)
// when the data source has no scrapeable peer (embedded sources).
func (ds *DataSource) MetricsPull(ctx context.Context) (*telemetry.MetricsSnapshot, error) {
	if ds.remote == nil {
		return nil, nil
	}
	return ds.remote.PullMetrics(ctx)
}

// Stats snapshots the pool gauges.
func (ds *DataSource) Stats() PoolStats {
	return PoolStats{
		InUse:     ds.inUse.Load(),
		Idle:      len(ds.idle),
		Waiters:   ds.waiters.Load(),
		Acquires:  ds.acquires.Load(),
		WaitTotal: time.Duration(ds.waitNs.Load()),
		Timeouts:  ds.timeouts.Load(),
		Discarded: ds.discarded.Load(),
	}
}

// SetConnInterceptor installs (or, with nil, removes) the checkout-time
// connection wrapper. Safe to call concurrently with Acquire.
func (ds *DataSource) SetConnInterceptor(fn ConnInterceptor) {
	if fn == nil {
		ds.interceptor.Store(nil)
		return
	}
	ds.interceptor.Store(&fn)
}

func (ds *DataSource) observeWait(wait time.Duration, timedOut bool) {
	ds.waitNs.Add(int64(wait))
	if timedOut {
		ds.timeouts.Add(1)
	}
	if p := ds.observer.Load(); p != nil {
		(*p)(wait, timedOut)
	}
}

// validIdle reports whether an idle connection is still usable. A remote
// datanode restart leaves defunct connections sitting idle in the pool;
// handing one out would surface a broken conn to the caller, so defunct
// idles are closed and their capacity slot returned for a replacement.
func (ds *DataSource) validIdle(c Conn) bool {
	if d, ok := c.(Defuncter); ok && d.Defunct() {
		c.Close()
		ds.slots <- struct{}{}
		ds.discarded.Add(1)
		return false
	}
	return true
}

// checkout wraps a validated connection for the caller.
func (ds *DataSource) checkout(c Conn) *PooledConn {
	ds.acquires.Add(1)
	ds.inUse.Add(1)
	pc := &PooledConn{Conn: c, raw: c, ds: ds}
	if f := ds.interceptor.Load(); f != nil {
		pc.Conn = (*f)(c)
	}
	return pc
}

// Acquire returns a pooled connection, creating one if the pool has spare
// capacity, or waiting until one is released.
func (ds *DataSource) Acquire() (*PooledConn, error) {
	return ds.AcquireCtx(context.Background())
}

// AcquireCtx is Acquire bounded by a context: the statement's deadline or
// a client that went away interrupts the wait. The pool's own
// AcquireTimeout still applies.
func (ds *DataSource) AcquireCtx(ctx context.Context) (*PooledConn, error) {
	// Fast path: an idle connection (validated; a defunct idle conn is
	// replaced rather than surfaced).
	for {
		select {
		case c := <-ds.idle:
			if !ds.validIdle(c) {
				continue
			}
			return ds.checkout(c), nil
		default:
		}
		break
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("resource: acquire %s: %w", ds.name, err)
	}
	waitStart := time.Now()
	ds.waiters.Add(1)
	defer ds.waiters.Add(-1)
	timer := time.NewTimer(ds.opts.AcquireTimeout)
	defer timer.Stop()
	for {
		select {
		case c := <-ds.idle:
			if !ds.validIdle(c) {
				continue
			}
			ds.observeWait(time.Since(waitStart), false)
			return ds.checkout(c), nil
		case <-ds.slots:
			ds.observeWait(time.Since(waitStart), false)
			c, err := ds.factory()
			if err != nil {
				ds.slots <- struct{}{}
				return nil, err
			}
			return ds.checkout(c), nil
		case <-timer.C:
			ds.observeWait(time.Since(waitStart), true)
			return nil, fmt.Errorf("%w: %s (pool %d)", ErrPoolExhausted, ds.name, ds.opts.PoolSize)
		case <-ctx.Done():
			ds.observeWait(time.Since(waitStart), false)
			return nil, fmt.Errorf("resource: acquire %s: %w", ds.name, ctx.Err())
		}
	}
}

// Close drains and closes idle connections, then closes the remote
// transport, if any, which fails the connections still in flight.
func (ds *DataSource) Close() {
	for {
		select {
		case c := <-ds.idle:
			c.Close()
		default:
			if ds.remote != nil {
				ds.remote.Close()
			}
			return
		}
	}
}

// PooledConn is a connection checked out of a DataSource pool. Conn may be
// an interceptor wrapper (chaos); raw is what returns to the pool. The
// embedded Conn provides Query/Exec; ExecBatch and QueryBatch pipeline
// through the wrapped connection when it supports batching.
type PooledConn struct {
	Conn
	raw      Conn
	ds       *DataSource
	released bool
	// Broken marks the connection unusable (protocol error); it is closed
	// instead of pooled on release.
	Broken bool
}

// Defuncter is implemented by connections that can report a transport
// failure; the pool discards them on release instead of pooling.
type Defuncter interface {
	Defunct() bool
}

// ExecBatch implements BatchConn by delegating to the wrapped connection,
// so interceptors (chaos) stay in the path and pipelining is preserved
// when the underlying transport supports it.
func (pc *PooledConn) ExecBatch(ctx context.Context, stmts []Statement) ([]ExecResult, error) {
	return ExecBatch(ctx, pc.Conn, stmts)
}

// QueryBatch implements BatchConn the same way.
func (pc *PooledConn) QueryBatch(ctx context.Context, stmts []Statement) ([]ResultSet, error) {
	return QueryBatch(ctx, pc.Conn, stmts)
}

// Defunct reports whether the connection is unusable: marked Broken, or
// failed in its transport. The wrapper sees transport failures first
// (chaos break faults report through it); the raw conn's own verdict is
// the fallback.
func (pc *PooledConn) Defunct() bool {
	if d, ok := pc.Conn.(Defuncter); ok && d.Defunct() {
		pc.Broken = true
	} else if d, ok := pc.raw.(Defuncter); ok && d.Defunct() {
		pc.Broken = true
	}
	return pc.Broken
}

// Release returns the connection to the pool.
func (pc *PooledConn) Release() {
	if pc.released {
		return
	}
	pc.released = true
	pc.ds.inUse.Add(-1)
	if pc.Defunct() {
		pc.raw.Close()
		pc.ds.slots <- struct{}{}
		return
	}
	select {
	case pc.ds.idle <- pc.raw:
	default:
		// Pool full (shouldn't happen given slot accounting); close.
		pc.raw.Close()
		pc.ds.slots <- struct{}{}
	}
}

// ConnLease ties a pooled connection's lifetime to a live cursor riding
// it: the streaming merge path holds shard cursors (and therefore their
// connections) open until the merged set closes, so the lease is what
// keeps connection checkout and cursor lifetime in lockstep. Close is
// idempotent; it closes the cursor first — for a remote cursor that is
// the early-stop cancel of an unfinished stream — and then releases the
// connection, which returns it to the pool or, when the cursor left the
// transport broken, defuncts it (Release consults the conn's Defuncter).
type ConnLease struct {
	rs   ResultSet
	conn *PooledConn
	done bool
	// sinks receive streamed row counts. Fixed slots rather than a
	// wrapper chain: the workload plane charges both a shard heat cell
	// and a statement digest entry on every streamed statement, and
	// wrapping the cursor twice per statement is measurable on a cached
	// point select. Counts accumulate in plain fields (the lease is
	// single-reader) and flush to the sinks once, at stream end or Close,
	// so a point select pays one sink call instead of one per batch.
	sinks        [2]RowSink
	pendingRows  int
	pendingBytes int64
}

// RowSink receives streamed row counts; the workload plane's digest
// entries and heat cells implement it.
type RowSink interface {
	AddStreamedRows(rows int, bytes int64)
}

// RowBytes approximates a row's wire size: the string payload plus a
// fixed 16 bytes per value for kind and numeric storage. Cheap and
// stable — good enough for ranking shards by bytes moved.
func RowBytes(row sqltypes.Row) int64 {
	b := int64(len(row)) * 16
	for i := range row {
		b += int64(len(row[i].S))
	}
	return b
}

// NewConnLease wraps an open cursor and the pooled connection it rides.
func NewConnLease(rs ResultSet, conn *PooledConn) *ConnLease {
	return &ConnLease{rs: rs, conn: conn}
}

// AddSink attaches a row sink (up to two; extras are dropped). Callers
// attach sinks before handing the lease out, never concurrently with
// reads.
func (l *ConnLease) AddSink(s RowSink) {
	for i := range l.sinks {
		if l.sinks[i] == nil {
			l.sinks[i] = s
			return
		}
	}
}

// flush charges the accumulated counts to every sink.
func (l *ConnLease) flush() {
	if l.pendingRows == 0 {
		return
	}
	rows, bytes := l.pendingRows, l.pendingBytes
	l.pendingRows, l.pendingBytes = 0, 0
	for _, s := range l.sinks {
		if s != nil {
			s.AddStreamedRows(rows, bytes)
		}
	}
}

// Columns implements ResultSet.
func (l *ConnLease) Columns() []string { return l.rs.Columns() }

// Remaining reports the rows left in the cursor the lease rides.
func (l *ConnLease) Remaining() (int, bool) { return Remaining(l.rs) }

// Next implements ResultSet.
func (l *ConnLease) Next() (sqltypes.Row, error) {
	row, err := l.rs.Next()
	if l.sinks[0] == nil && l.sinks[1] == nil {
		return row, err
	}
	if err == nil {
		l.pendingRows++
		l.pendingBytes += RowBytes(row)
	} else {
		l.flush()
	}
	return row, err
}

// NextBatch implements ResultSet.
func (l *ConnLease) NextBatch(buf []sqltypes.Row) (int, error) {
	n, err := l.rs.NextBatch(buf)
	if l.sinks[0] == nil && l.sinks[1] == nil {
		return n, err
	}
	for i := 0; i < n; i++ {
		l.pendingRows++
		l.pendingBytes += RowBytes(buf[i])
	}
	if err != nil || n == 0 {
		l.flush()
	}
	return n, err
}

// Close implements ResultSet: cursor first, then the connection goes
// back to (or out of) the pool exactly once.
func (l *ConnLease) Close() error {
	if l.done {
		return nil
	}
	l.done = true
	l.flush()
	err := l.rs.Close()
	l.conn.Release()
	return err
}
