// Package exec implements the automatic execution engine (paper Section
// VI-D). For each query it groups the rewritten SQL units by physical data
// source, computes θ = ⌈NumSQL/MaxCon⌉ per source, and picks the
// connection mode: θ > 1 forces CONNECTION_STRICTLY (each connection takes
// its share of the statements as one window and returns the results in
// memory, so it frees early — memory merger); θ ≤ 1 allows MEMORY_STRICTLY
// (one connection per statement, cursors stay open — stream merger).
// Connections for one query are acquired atomically per data source to
// avoid the two-query deadlock the paper describes, with the two
// lock-elision cases it lists (single connection, or memory mode).
package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shardingsphere/internal/digest"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/rewrite"
	"shardingsphere/internal/telemetry"
)

// UnitError wraps a per-unit execution failure with the shard context a
// client needs to locate it: which data source, which logical/actual
// table, and how long the unit ran before failing.
type UnitError struct {
	DataSource  string
	LogicTable  string
	ActualTable string
	SQL         string
	Elapsed     time.Duration
	Err         error
}

// Error formats as "data source ds1 (t_user → t_user_3, 1.2ms): <cause>",
// keeping the cause text intact for substring matching.
func (e *UnitError) Error() string {
	var b strings.Builder
	b.WriteString("data source ")
	b.WriteString(e.DataSource)
	b.WriteString(" (")
	if e.LogicTable != "" {
		b.WriteString(e.LogicTable)
		if e.ActualTable != "" && e.ActualTable != e.LogicTable {
			b.WriteString(" → ")
			b.WriteString(e.ActualTable)
		}
		b.WriteString(", ")
	}
	b.WriteString(e.Elapsed.Round(time.Microsecond).String())
	b.WriteString("): ")
	b.WriteString(e.Err.Error())
	return b.String()
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *UnitError) Unwrap() error { return e.Err }

func wrapUnitErr(u rewrite.SQLUnit, dur time.Duration, err error) error {
	if err == nil {
		return nil
	}
	return &UnitError{
		DataSource:  u.DataSource,
		LogicTable:  u.LogicTable,
		ActualTable: u.ActualTable,
		SQL:         u.SQL,
		Elapsed:     dur,
		Err:         err,
	}
}

// ConnectionMode is the per-data-source execution mode.
type ConnectionMode uint8

// Connection modes (paper Section VI-D).
const (
	MemoryStrictly     ConnectionMode = iota // stream merge, conn per SQL
	ConnectionStrictly                       // memory merge, ≤ MaxCon conns
)

func (m ConnectionMode) String() string {
	if m == ConnectionStrictly {
		return "CONNECTION_STRICTLY"
	}
	return "MEMORY_STRICTLY"
}

// Listener observes statement execution; the governor wires monitoring
// and circuit breaking through it (the paper's "event messages").
type Listener func(dataSource, sql string, dur time.Duration, err error)

// Executor runs rewritten SQL units against pooled data sources.
type Executor struct {
	// sources is fixed at New and only read afterwards, so it needs no lock.
	sources map[string]*resource.DataSource
	maxCon  int

	lockMu  sync.Mutex // guards dsLocks
	dsLocks map[string]*sync.Mutex

	listener Listener
	tel      *telemetry.Collector
	// heat is the (table, shard) workload heat map; nil until the kernel
	// installs one, and per-unit attribution costs one atomic load when
	// absent.
	heat atomic.Pointer[digest.Heat]
	// heatCache is a direct-mapped cache of resolved heat cells, indexed
	// by the actual table's shard number: repeated statements against the
	// same shards skip the striped map probe. A cell remembers the heat
	// map epoch it was created under, so RESET DIGESTS invalidates the
	// cache without the cache storing anything but the cell.
	heatCache [heatCacheSize]atomic.Pointer[digest.Cell]
	// stats holds the per-source telemetry buckets, built once by
	// SetTelemetry (before any statement runs) so the per-unit hot path
	// resolves its bucket with one plain map read.
	stats map[string]*telemetry.SourceStats

	// Dispatch counters: statements that ran on the caller's stack
	// (single data source) vs. fanned out across goroutines.
	queryInline  atomic.Uint64
	queryFanout  atomic.Uint64
	updateInline atomic.Uint64
	updateFanout atomic.Uint64

	// Resilience counters: transient-failure retries, retries that ended
	// in success, and fan-outs aborted early by fail-fast cancellation.
	retries        atomic.Uint64
	retrySuccess   atomic.Uint64
	failFastAborts atomic.Uint64

	retryPolicy atomic.Pointer[RetryPolicy]
}

// New builds an executor over the named data sources.
func New(sources map[string]*resource.DataSource, maxCon int) *Executor {
	if maxCon <= 0 {
		maxCon = 1
	}
	e := &Executor{
		sources: sources,
		maxCon:  maxCon,
		dsLocks: map[string]*sync.Mutex{},
	}
	e.retryPolicy.Store(DefaultRetryPolicy())
	return e
}

// SetListener installs an execution observer.
func (e *Executor) SetListener(l Listener) { e.listener = l }

// SetTelemetry wires the kernel's collector so every unit execution feeds
// the per-data-source histograms and error counters. Call it before the
// executor runs statements.
func (e *Executor) SetTelemetry(c *telemetry.Collector) {
	e.tel = c
	e.stats = make(map[string]*telemetry.SourceStats, len(e.sources))
	for name := range e.sources {
		e.stats[name] = c.Source(name)
	}
}

// SetHeat installs the shard heat map; every routed unit is attributed
// to its (logic table, data source, actual table) cell.
func (e *Executor) SetHeat(h *digest.Heat) { e.heat.Store(h) }

// heatCacheSize is a power of two at least as large as a typical rule's
// shard count, so a fan-out over one table occupies distinct slots.
const heatCacheSize = 64

// heatSlot maps an actual table name to its cache slot. Shards are named
// <logic>_<n>: the slot is n, offset by the name's prefix length so two
// tables' shards do not all collide. Names without a number fall back to
// their last byte and length.
func heatSlot(at string) uint {
	i, n, mul := len(at), uint(0), uint(1)
	for i > 0 && at[i-1] >= '0' && at[i-1] <= '9' {
		i--
		n += uint(at[i]-'0') * mul
		mul *= 10
	}
	if i == len(at) {
		n = uint(at[i-1])
	}
	return (n ^ uint(i)*7) & (heatCacheSize - 1)
}

// heatCell resolves a unit's heat cell, or nil when the heat map is off
// or the unit carries no table attribution (unsharded default routes,
// TCL broadcasts). The direct-mapped cache turns the steady-state cost
// into one atomic load and three string compares (usually pointer-equal:
// unit names come from the same rule metadata every execution); a miss
// probes the striped map and allocates nothing.
func (e *Executor) heatCell(u rewrite.SQLUnit) *digest.Cell {
	h := e.heat.Load()
	if h == nil || u.LogicTable == "" {
		return nil
	}
	at := u.ActualTable
	if at == "" {
		return h.Cell(u.LogicTable, u.DataSource, at)
	}
	slot := &e.heatCache[heatSlot(at)]
	if c := slot.Load(); c != nil && c.Epoch() == h.Epoch() &&
		c.ActualTable == at && c.DataSource == u.DataSource && c.LogicTable == u.LogicTable {
		return c
	}
	c := h.Cell(u.LogicTable, u.DataSource, at)
	if c != nil {
		slot.Store(c)
	}
	return c
}

// Metrics reports the inline-vs-goroutine dispatch and retry counters.
// The kernel's metrics snapshot reports them under "exec.", and the
// benchmark's layer walk reads the map.
func (e *Executor) Metrics() map[string]int64 {
	return map[string]int64{
		"query_inline":     int64(e.queryInline.Load()),
		"query_fanout":     int64(e.queryFanout.Load()),
		"update_inline":    int64(e.updateInline.Load()),
		"update_fanout":    int64(e.updateFanout.Load()),
		"retries":          int64(e.retries.Load()),
		"retry_success":    int64(e.retrySuccess.Load()),
		"fail_fast_aborts": int64(e.failFastAborts.Load()),
	}
}

// MaxCon reports the configured per-query connection budget.
func (e *Executor) MaxCon() int { return e.maxCon }

// Source returns a data source by name.
func (e *Executor) Source(name string) (*resource.DataSource, error) {
	ds, ok := e.sources[name]
	if !ok {
		return nil, fmt.Errorf("exec: unknown data source %q", name)
	}
	return ds, nil
}

// Sources lists the data source names.
func (e *Executor) Sources() []string {
	out := make([]string, 0, len(e.sources))
	for n := range e.sources {
		out = append(out, n)
	}
	return out
}

func (e *Executor) dsLock(name string) *sync.Mutex {
	e.lockMu.Lock()
	defer e.lockMu.Unlock()
	m, ok := e.dsLocks[name]
	if !ok {
		m = &sync.Mutex{}
		e.dsLocks[name] = m
	}
	return m
}

// observe reports one unit execution to the listener, the telemetry
// collector, and the statement trace (tagged with its 1-based attempt
// number, so retried units keep one span per try). It reuses the single
// time.Since the executor already pays, and returns the duration for
// error wrapping.
func (e *Executor) observe(tr *telemetry.Trace, ds, sql string, start time.Time, attempt int, err error) time.Duration {
	// Two fast exits that skip the clock read entirely: nothing consumes
	// the measurement (telemetry disabled, no listener), or the statement
	// is unsampled — its trace measures the total with one read at Finish,
	// and per-source latency is a sampled statistic (errors below stay
	// exact because a failed unit always takes the slow path).
	if err == nil && e.listener == nil {
		if tr != nil {
			if !tr.Sampled() {
				return 0
			}
		} else if !e.tel.Enabled() {
			return 0
		}
	}
	enabled := e.tel.Enabled()
	dur := time.Since(start)
	if e.listener != nil {
		e.listener(ds, sql, dur, err)
	}
	if enabled {
		if s := e.stats[ds]; s != nil {
			s.Execute.Observe(dur)
			if err != nil {
				s.Errors.Add(1)
			}
		} else {
			e.tel.ObserveExec(ds, dur, err)
		}
	}
	tr.AddExecAttempt(ds, start, dur, attempt, err)
	return dur
}

// QueryResult is the outcome of executing a query statement: one result
// set per SQL unit, in unit order.
type QueryResult struct {
	Sets []resource.ResultSet
}

// HeldConns pins one connection per data source for the life of a
// distributed transaction: every statement in the transaction for a given
// source must ride the same connection. A branch opened with a verb
// (BEGIN, XA BEGIN ?) sends nothing then: the next window to the source
// carries the verb ahead of its units.
type HeldConns struct {
	mu    sync.Mutex
	conns map[string]heldConn
}

// heldConn is a pinned connection and its opening verb, until it succeeds.
type heldConn struct {
	conn *resource.PooledConn
	open resource.Statement
}

// NewHeldConns returns an empty pinned-connection set.
func NewHeldConns() *HeldConns {
	return &HeldConns{conns: map[string]heldConn{}}
}

// Get returns the pinned connection for ds, acquiring and pinning one on
// first use.
func (h *HeldConns) Get(ctx context.Context, e *Executor, ds string) (*resource.PooledConn, error) {
	c, _, err := h.take(ctx, e, ds, resource.Statement{})
	return c, err
}

// Open pins a connection for ds, as Get does, with verb as the statement
// that opens its branch. A source already pinned keeps its branch.
func (h *HeldConns) Open(ctx context.Context, e *Executor, ds string, verb resource.Statement) error {
	verb.Verb = true
	_, _, err := h.take(ctx, e, ds, verb)
	return err
}

// take returns ds's pinned connection, pinning one opened by verb on first
// use, and the branch's opening verb while it has not succeeded.
func (h *HeldConns) take(ctx context.Context, e *Executor, ds string, verb resource.Statement) (*resource.PooledConn, resource.Statement, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if hc, ok := h.conns[ds]; ok {
		return hc.conn, hc.open, nil
	}
	src, err := e.Source(ds)
	if err != nil {
		return nil, resource.Statement{}, err
	}
	c, err := src.AcquireCtx(ctx)
	if err != nil {
		return nil, resource.Statement{}, err
	}
	h.conns[ds] = heldConn{conn: c, open: verb}
	return c, verb, nil
}

// ran records the outcome of a window that led with ds's opening verb: the
// branch is open unless the window failed on the verb itself.
func (h *HeldConns) ran(ds string, err error) {
	if be := (*resource.BatchError)(nil); err != nil && !(errors.As(err, &be) && be.Index > 0) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	hc := h.conns[ds]
	hc.open = resource.Statement{}
	h.conns[ds] = hc
}

// Peek returns ds's pinned connection once its branch is open: the verb it
// was opened with, if any, succeeded. A branch whose verb never succeeded
// has nothing to commit or undo.
func (h *HeldConns) Peek(ds string) (*resource.PooledConn, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	hc, ok := h.conns[ds]
	return hc.conn, ok && hc.open.SQL == ""
}

// Sources lists the data sources with pinned connections.
func (h *HeldConns) Sources() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.conns))
	for ds := range h.conns {
		out = append(out, ds)
	}
	return out
}

// ReleaseAll returns every pinned connection to its pool.
func (h *HeldConns) ReleaseAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for ds, hc := range h.conns {
		hc.conn.Release()
		delete(h.conns, ds)
	}
}

// group is the per-data-source execution plan.
type group struct {
	ds    string
	units []int // indexes into the unit slice
	mode  ConnectionMode
	conns int
}

// plan groups units by data source and decides each group's mode. A
// statement touches a handful of sources, so groups are found by scanning
// the ones seen so far, and every group's unit list is a window of one
// backing array sized by a counting pass.
func (e *Executor) plan(units []rewrite.SQLUnit, held *HeldConns) []group {
	var out []group
	groupOf := func(ds string) int {
		for gi := range out {
			if out[gi].ds == ds {
				return gi
			}
		}
		return -1
	}
	for _, u := range units {
		if gi := groupOf(u.DataSource); gi >= 0 {
			out[gi].conns++ // unit count, until the modes are decided below
		} else {
			out = append(out, group{ds: u.DataSource, conns: 1})
		}
	}
	idxs := make([]int, len(units))
	for gi, at := 0, 0; gi < len(out); gi++ {
		n := out[gi].conns
		out[gi].units = idxs[at : at : at+n]
		at += n
	}
	for i, u := range units {
		g := &out[groupOf(u.DataSource)]
		g.units = append(g.units, i)
	}
	for gi := range out {
		g := &out[gi]
		switch {
		case held != nil:
			// Transactions ride a single pinned connection: always
			// connection-strict with one connection.
			g.mode, g.conns = ConnectionStrictly, 1
		case (len(g.units)+e.maxCon-1)/e.maxCon > 1: // θ > 1
			g.mode, g.conns = ConnectionStrictly, e.maxCon
		default:
			g.mode, g.conns = MemoryStrictly, len(g.units)
		}
	}
	return out
}

// QueryCtx executes query units and returns one result set per unit. When
// held is non-nil the statements ride the transaction's pinned
// connections (a window per source, materialized: the connection must be
// reusable immediately). The context carries the statement deadline and
// fail-fast cancellation; retry opts idempotent reads outside transactions
// into transparent transient-failure retries with jittered backoff.
// Multi-group fan-outs cancel sibling groups on the first error instead
// of letting them run to completion.
func (e *Executor) QueryCtx(ctx context.Context, units []rewrite.SQLUnit, held *HeldConns, tr *telemetry.Trace, retry bool) (*QueryResult, error) {
	if tr.Sampled() {
		// Remote connections inject the trace into the wire protocol's
		// trace-context trailer; the context is the only channel that
		// reaches them. Unsampled statements skip the allocation.
		ctx = telemetry.WithTrace(ctx, tr)
	}
	groups := e.plan(units, held)
	res := &QueryResult{Sets: make([]resource.ResultSet, len(units))}
	var mu sync.Mutex
	var err error
	if len(groups) == 1 {
		// Single data source — no fan-out to overlap, so run on the
		// caller's stack instead of paying a goroutine spawn (and its
		// stack growth) per statement. Point queries live here.
		e.queryInline.Add(1)
		err = e.queryGroupRetry(ctx, units, groups[0], held, res, &mu, tr, retry)
	} else {
		e.queryFanout.Add(1)
		// Fail-fast fan-out: the first group error cancels the shared
		// context, interrupting sibling acquisitions and cancellable
		// conns instead of waiting for every shard to finish or time out.
		fanCtx, cancel := context.WithCancel(ctx)
		var wg sync.WaitGroup
		errs := make([]error, len(groups))
		for i, g := range groups {
			wg.Add(1)
			go func(i int, g group) {
				defer wg.Done()
				if gerr := e.queryGroupRetry(fanCtx, units, g, held, res, &mu, tr, retry); gerr != nil {
					errs[i] = gerr
					e.failFastAborts.Add(1)
					cancel()
				}
			}(i, g)
		}
		wg.Wait()
		err = firstError(errs)
		if err != nil {
			cancel()
		} else {
			// Streaming sets escape this function and keep reading
			// through fanCtx; cancelling here would kill their cursors
			// mid-stream once the prefetch window drains. Hold the
			// cancel until the last live set is closed.
			deferCancelToSets(res.Sets, cancel)
		}
	}
	if err != nil {
		for _, rs := range res.Sets {
			if rs != nil {
				rs.Close()
			}
		}
		return nil, err
	}
	return res, nil
}

// deferCancelToSets ties a fan-out cancel to the lifetime of the live
// cursors it guards: each is wrapped so the cancel fires when the last one
// closes. Materialized sets (a held or shared connection's window) read
// nothing through the context and stay unwrapped, so the merger sees them
// for what they are; with no live cursor the cancel runs immediately.
func deferCancelToSets(sets []resource.ResultSet, cancel context.CancelFunc) {
	isLive := func(rs resource.ResultSet) bool {
		_, materialized := rs.(*resource.SliceResultSet)
		return rs != nil && !materialized
	}
	n := int32(0)
	for _, rs := range sets {
		if isLive(rs) {
			n++
		}
	}
	if n == 0 {
		cancel()
		return
	}
	var live atomic.Int32
	live.Store(n)
	release := func() {
		if live.Add(-1) == 0 {
			cancel()
		}
	}
	for i, rs := range sets {
		if isLive(rs) {
			sets[i] = resource.WithCloseHook(rs, release)
		}
	}
}

// queryGroupRetry runs one group, retrying transient failures when the
// caller opted in (idempotent reads outside transactions only — held
// connections carry transaction state and are never retried).
func (e *Executor) queryGroupRetry(ctx context.Context, units []rewrite.SQLUnit, g group, held *HeldConns, res *QueryResult, mu *sync.Mutex, tr *telemetry.Trace, retry bool) error {
	err := e.runQueryGroup(ctx, units, g, held, res, mu, tr, 1)
	if err == nil || !retry || held != nil {
		return err
	}
	pol := e.retryPolicy.Load()
	for attempt := 1; attempt < pol.MaxAttempts; attempt++ {
		if !resource.IsTransient(err) || ctx.Err() != nil {
			return err
		}
		// A failed attempt may have parked partial results (including open
		// streaming cursors holding connections); drop them before rerunning.
		closeGroupSets(res, g, mu)
		if serr := sleepCtx(ctx, pol.backoff(attempt)); serr != nil {
			return err
		}
		e.retries.Add(1)
		if err = e.runQueryGroup(ctx, units, g, held, res, mu, tr, attempt+1); err == nil {
			e.retrySuccess.Add(1)
			return nil
		}
	}
	return err
}

// closeGroupSets releases any result sets a failed group attempt parked.
func closeGroupSets(res *QueryResult, g group, mu *sync.Mutex) {
	mu.Lock()
	defer mu.Unlock()
	for _, idx := range g.units {
		if rs := res.Sets[idx]; rs != nil {
			rs.Close()
			res.Sets[idx] = nil
		}
	}
}

func (e *Executor) runQueryGroup(ctx context.Context, units []rewrite.SQLUnit, g group, held *HeldConns, res *QueryResult, mu *sync.Mutex, tr *telemetry.Trace, attempt int) error {
	if held != nil {
		conn, open, err := held.take(ctx, e, g.ds, resource.Statement{})
		if err != nil {
			return err
		}
		err = e.runWindow(ctx, units, g.ds, conn, open, g.units, res, mu, tr, attempt)
		if open.SQL != "" {
			held.ran(g.ds, err)
		}
		return err
	}

	src, err := e.Source(g.ds)
	if err != nil {
		return err
	}
	// Deadlock avoidance (paper VI-D): acquire all connections for this
	// query atomically under the data source lock — except the two elision
	// cases: a single connection (no hold-and-wait cycle possible) and
	// connection-strict mode (connections release as soon as results are
	// drained).
	needLock := g.conns > 1 && g.mode == MemoryStrictly
	if needLock {
		l := e.dsLock(g.ds)
		l.Lock()
		defer l.Unlock()
	}
	// Detailed traces (TRACE <sql>) time pool acquisition separately from
	// query time; hot-path traces skip the extra clock reads.
	var acqStart time.Time
	if tr.Detailed() {
		acqStart = time.Now()
	}
	conns := make([]*resource.PooledConn, 0, g.conns)
	for i := 0; i < g.conns; i++ {
		c, err := src.AcquireCtx(ctx)
		if err != nil {
			for _, cc := range conns {
				cc.Release()
			}
			return err
		}
		conns = append(conns, c)
	}
	if tr.Detailed() {
		tr.AddSpan(telemetry.StageAcquire, g.ds, acqStart, time.Since(acqStart))
	}

	// Distribute the group's units over the connections round-robin; each
	// connection executes its share serially, connections run in parallel.
	// A single connection runs inline — nothing to overlap.
	if len(conns) == 1 {
		return e.runConnShare(ctx, units, g, conns[0], g.units, res, mu, tr, attempt)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, len(conns))
	for ci, conn := range conns {
		share := make([]int, 0, len(g.units)/len(conns)+1)
		for ui := ci; ui < len(g.units); ui += len(conns) {
			share = append(share, g.units[ui])
		}
		wg.Add(1)
		go func(conn *resource.PooledConn, share []int) {
			defer wg.Done()
			if err := e.runConnShare(ctx, units, g, conn, share, res, mu, tr, attempt); err != nil {
				errCh <- err
			}
		}(conn, share)
	}
	wg.Wait()
	close(errCh)
	return <-errCh
}

// runConnShare executes one connection's share of a group's units.
func (e *Executor) runConnShare(ctx context.Context, units []rewrite.SQLUnit, g group, conn *resource.PooledConn, share []int, res *QueryResult, mu *sync.Mutex, tr *telemetry.Trace, attempt int) error {
	if g.mode == ConnectionStrictly {
		defer conn.Release()
		return e.runWindow(ctx, units, g.ds, conn, resource.Statement{}, share, res, mu, tr, attempt)
	}
	// Memory-strict (θ ≤ 1: the share is one unit): the open cursor goes
	// to the merger under a conn lease, which keeps the connection checked
	// out until the merged set closes it (paper: stream merger keeps one
	// connection per data node) and counts rows into the heat cell.
	idx := share[0]
	u := units[idx]
	cell := e.heatCell(u)
	start := time.Now()
	rs, err := conn.Query(ctx, u.SQL, u.Args...)
	dur := e.observe(tr, g.ds, u.SQL, start, attempt, err)
	cell.ObserveQuery(start, dur, err)
	if err != nil {
		conn.Release()
		return wrapUnitErr(u, dur, err)
	}
	lease := resource.NewConnLease(rs, conn)
	if cell != nil {
		lease.AddSink(cell)
	}
	mu.Lock()
	res.Sets[idx] = lease
	mu.Unlock()
	return nil
}

// runWindow hands a connection that must be reusable at once (a held one,
// or one running several units under CONNECTION_STRICTLY) its whole share
// in one batch call: a remote connection pipelines it, one round trip for
// all units (behind a held branch's opening verb), and every result comes
// back materialized. The window is one timed execution; unit heat cells
// count calls and rows, not latency.
func (e *Executor) runWindow(ctx context.Context, units []rewrite.SQLUnit, ds string, conn *resource.PooledConn, open resource.Statement, share []int, res *QueryResult, mu *sync.Mutex, tr *telemetry.Trace, attempt int) error {
	sp, off := window(open, units, share)
	start := time.Now()
	sets, err := conn.QueryBatch(ctx, *sp)
	putWindow(sp)
	if err != nil {
		failed := batchFailure(units, share, off, err)
		dur := e.observe(tr, ds, failed.SQL, start, attempt, err)
		e.heatCell(failed).ObserveQuery(start, dur, err)
		return wrapUnitErr(failed, dur, err)
	}
	e.observe(tr, ds, units[share[0]].SQL, start, attempt, nil)
	sets = sets[off:]
	for i, idx := range share {
		mu.Lock()
		res.Sets[idx] = sets[i]
		mu.Unlock()
		cell := e.heatCell(units[idx])
		cell.ObserveQuery(start, 0, nil)
		// Rows in memory are charged by a walk; a live cursor's by its lease.
		if s, ok := sets[i].(*resource.SliceResultSet); ok && cell != nil {
			var b int64
			for _, r := range s.Data {
				b += digest.RowBytes(r)
			}
			cell.AddRead(len(s.Data), b)
		}
	}
	return nil
}

// window lays out a connection's statements, the opening verb (if any)
// then the units, and counts those ahead of the units. The slice is
// recycled (putWindow): a batch call does not keep it.
func window(open resource.Statement, units []rewrite.SQLUnit, share []int) (*[]resource.Statement, int) {
	sp := windowPool.Get().(*[]resource.Statement)
	stmts := (*sp)[:0]
	if open.SQL != "" {
		stmts = append(stmts, open)
	}
	for _, idx := range share {
		stmts = append(stmts, resource.Statement{SQL: units[idx].SQL, Args: units[idx].Args})
	}
	*sp = stmts
	return sp, len(stmts) - len(share)
}

func putWindow(sp *[]resource.Statement) {
	clear(*sp)
	windowPool.Put(sp)
}

var windowPool = sync.Pool{New: func() any { return new([]resource.Statement) }}

// batchFailure names the unit a batch error's index points at, else the
// first; the window's first off statements are not units.
func batchFailure(units []rewrite.SQLUnit, share []int, off int, err error) rewrite.SQLUnit {
	var be *resource.BatchError
	if errors.As(err, &be) && be.Index >= off && be.Index-off < len(share) {
		return units[share[be.Index-off]]
	}
	return units[share[0]]
}

// ExecuteUpdateCtx runs DML/DDL units and returns the summed affected
// count and the last insert id observed. Units ride held's connections;
// with held nil the statement pins its own for its duration. The context
// carries the statement deadline, and the first shard error cancels
// sibling groups. DML is never retried — a failed write's true outcome is
// unknown, and replaying it could double-apply.
func (e *Executor) ExecuteUpdateCtx(ctx context.Context, units []rewrite.SQLUnit, held *HeldConns, tr *telemetry.Trace) (resource.ExecResult, error) {
	if held == nil {
		// Passed on, not assigned to held: the fan-out's closures capture
		// held, and a reassigned parameter moves to the heap on every call.
		own := NewHeldConns()
		defer own.ReleaseAll()
		return e.ExecuteUpdateCtx(ctx, units, own, tr)
	}
	if tr.Sampled() {
		ctx = telemetry.WithTrace(ctx, tr)
	}
	groups := e.plan(units, held)
	var total resource.ExecResult
	var mu sync.Mutex
	if len(groups) == 1 {
		// Single data source: run inline (see QueryCtx).
		e.updateInline.Add(1)
		if err := e.runUpdateGroup(ctx, units, groups[0], held, &total, &mu, tr); err != nil {
			return resource.ExecResult{}, err
		}
		return total, nil
	}
	e.updateFanout.Add(1)
	fanCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	errs := make([]error, len(groups))
	for i, g := range groups {
		wg.Add(1)
		go func(i int, g group) {
			defer wg.Done()
			if err := e.runUpdateGroup(fanCtx, units, g, held, &total, &mu, tr); err != nil {
				errs[i] = err
				e.failFastAborts.Add(1)
				cancel()
			}
		}(i, g)
	}
	wg.Wait()
	cancel()
	if err := firstError(errs); err != nil {
		return resource.ExecResult{}, err
	}
	return total, nil
}

// runUpdateGroup executes one data source's DML units on its held
// connection.
func (e *Executor) runUpdateGroup(ctx context.Context, units []rewrite.SQLUnit, g group, held *HeldConns, total *resource.ExecResult, mu *sync.Mutex, tr *telemetry.Trace) error {
	conn, open, err := held.take(ctx, e, g.ds, resource.Statement{})
	if err != nil {
		return err
	}
	if open.SQL == "" && len(g.units) == 1 {
		u := units[g.units[0]]
		start := time.Now()
		r, err := conn.Exec(ctx, u.SQL, u.Args...)
		dur := e.observe(tr, g.ds, u.SQL, start, 1, err)
		e.heatCell(u).ObserveExec(start, dur, r.Affected, err)
		if err != nil {
			return wrapUnitErr(u, dur, err)
		}
		mu.Lock()
		total.Affected += r.Affected
		if r.LastInsertID != 0 {
			total.LastInsertID = r.LastInsertID
		}
		mu.Unlock()
		return nil
	}
	// A window pipelines through the connection: all statements ship
	// before the first response is read, so a remote shard costs one round
	// trip instead of one per statement. A BatchError pins the failure to
	// its unit.
	sp, off := window(open, units, g.units)
	start := time.Now()
	results, err := resource.ExecBatch(ctx, conn, *sp)
	putWindow(sp)
	if off > 0 {
		held.ran(g.ds, err)
	}
	if err != nil {
		failed := batchFailure(units, g.units, off, err)
		dur := e.observe(tr, g.ds, failed.SQL, start, 1, err)
		e.heatCell(failed).ObserveExec(start, dur, 0, err)
		return wrapUnitErr(failed, dur, err)
	}
	e.observe(tr, g.ds, units[g.units[0]].SQL, start, 1, nil)
	results = results[off:]
	mu.Lock()
	for _, r := range results {
		total.Affected += r.Affected
		if r.LastInsertID != 0 {
			total.LastInsertID = r.LastInsertID
		}
	}
	mu.Unlock()
	// Per-unit heat attribution: results line up with g.units. The batch
	// measured one duration for the whole window, so unit cells skip the
	// latency histogram and count calls/rows only.
	for i, idx := range g.units {
		e.heatCell(units[idx]).ObserveExec(start, 0, results[i].Affected, nil)
	}
	return nil
}
