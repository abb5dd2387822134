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
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shardingsphere/internal/digest"
	"shardingsphere/internal/governor"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/rewrite"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/telemetry"
)

// UnitError wraps a per-unit execution failure with the shard context a
// client needs to locate it: which data source, which logical/actual
// table, and how long the unit ran before failing.
type UnitError struct {
	DataSource  string
	LogicTable  string
	ActualTable string
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

// Executor runs rewritten SQL units against pooled data sources.
type Executor struct {
	// sources is fixed at New and only read afterwards, so it needs no lock.
	sources map[string]*resource.DataSource
	maxCon  int

	lockMu  sync.Mutex // guards dsLocks
	dsLocks map[string]*sync.Mutex

	// observers holds each source's telemetry buckets and breaker, fixed at
	// New, so a unit finds both with one plain map read.
	observers map[string]observer
	// gov's Calm lets an unsampled success skip the lookup: no breaker
	// would change.
	gov *governor.Governor
	// heat is the (table, shard) workload heat map; nil attributes nothing.
	heat *digest.Heat
	// heatCache is a direct-mapped cache of resolved heat cells, indexed
	// by the actual table's shard number: repeated statements against the
	// same shards skip the striped map probe. A cell remembers the heat
	// map epoch it was created under, so RESET DIGESTS invalidates the
	// cache without the cache storing anything but the cell.
	heatCache [heatCacheSize]atomic.Pointer[digest.Cell]

	// Dispatch counters: statements that ran on the caller's stack
	// (single data source) vs. fanned out across goroutines.
	queryInline  atomic.Uint64
	queryFanout  atomic.Uint64
	updateInline atomic.Uint64
	updateFanout atomic.Uint64

	// Resilience counters: transient-failure retries, and retries that
	// ended in success.
	retries      atomic.Uint64
	retrySuccess atomic.Uint64

	retryPolicy atomic.Pointer[RetryPolicy]
}

// observer is what a unit's execution on one source reports to.
type observer struct {
	stats   *telemetry.SourceStats
	breaker *governor.Breaker
}

// New builds an executor over the named data sources. Every unit's
// execution feeds its source's histograms in tel and its breaker in gov,
// and a routed unit is attributed to its cell of heat (nil: none).
func New(sources map[string]*resource.DataSource, maxCon int, gov *governor.Governor, tel *telemetry.Collector, heat *digest.Heat) *Executor {
	if maxCon <= 0 {
		maxCon = 1
	}
	e := &Executor{
		sources:   sources,
		maxCon:    maxCon,
		dsLocks:   map[string]*sync.Mutex{},
		observers: make(map[string]observer, len(sources)),
		gov:       gov,
		heat:      heat,
	}
	for name := range sources {
		e.observers[name] = observer{stats: tel.Source(name), breaker: gov.Breaker(name)}
	}
	e.retryPolicy.Store(DefaultRetryPolicy())
	return e
}

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
	h := e.heat
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
		"query_inline":  int64(e.queryInline.Load()),
		"query_fanout":  int64(e.queryFanout.Load()),
		"update_inline": int64(e.updateInline.Load()),
		"update_fanout": int64(e.updateFanout.Load()),
		"retries":       int64(e.retries.Load()),
		"retry_success": int64(e.retrySuccess.Load()),
	}
}

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

// observe reports one unit execution to its source's breaker, the
// telemetry collector and the statement trace (tagged with its 1-based
// attempt number, so retried units keep one span per try), and returns the
// duration for error wrapping. An unsampled statement's success skips the
// clock read: its trace measures the total with one read at Finish, and
// per-source latency is a sampled statistic (a failure is always timed).
// While every breaker is calm it skips the report too.
func (e *Executor) observe(tr *telemetry.Trace, ds string, start time.Time, attempt int, err error) time.Duration {
	unsampled := err == nil && tr != nil && !tr.Sampled()
	if unsampled && e.gov.Calm() {
		return 0
	}
	o := e.observers[ds]
	o.breaker.Report(err)
	if unsampled {
		return 0
	}
	dur := time.Since(start)
	o.stats.Execute.Observe(dur)
	if err != nil {
		o.stats.Errors.Add(1)
	}
	tr.AddExecAttempt(ds, start, dur, attempt, err)
	return dur
}

// QueryResult is the outcome of executing a query statement: one result
// set per statement sent (merge reads it), a data source's after the one
// before it, in the order the sources first appear among the units. A
// one-unit statement's set is held in the result itself. Groups running at
// once park their sets in their own slots, so they share no lock.
type QueryResult struct {
	Sets []resource.ResultSet
	sets [1]resource.ResultSet
}

// HeldConns pins one connection per data source for the life of a
// distributed transaction: every statement in the transaction for a given
// source must ride the same connection. A branch opened with a verb
// (BEGIN, XA BEGIN ?) sends nothing then: the next window to the source
// carries the verb ahead of its units. A write's windows may lead with one
// more verb (Lead), a savepoint the write can be undone to. A transaction
// touches a handful of sources, so they are found by a scan, and the first
// two are held in the set itself.
type HeldConns struct {
	mu     sync.Mutex
	conns  []heldConn
	inline [2]heldConn
	lead   *resource.Statement
}

// heldConn is a source's pinned connection; until it succeeds, the verb
// that opens its branch (the transaction's own, not a copy); and whether
// the lead verb has run on it since Lead was called.
type heldConn struct {
	ds   string
	conn *resource.PooledConn
	open *resource.Statement
	led  bool
}

// NewHeldConns returns an empty pinned-connection set.
func NewHeldConns() *HeldConns {
	h := &HeldConns{}
	h.conns = h.inline[:0]
	return h
}

// find returns ds's entry, or nil. The caller holds h.mu.
func (h *HeldConns) find(ds string) *heldConn {
	for i := range h.conns {
		if h.conns[i].ds == ds {
			return &h.conns[i]
		}
	}
	return nil
}

// Get returns the pinned connection for ds, acquiring and pinning one on
// first use.
func (h *HeldConns) Get(ctx context.Context, e *Executor, ds string) (*resource.PooledConn, error) {
	c, _, err := h.take(ctx, e, ds, nil)
	return c, err
}

// Open pins a connection for ds, as Get does, with verb as the statement
// that opens its branch; verb is kept, not copied, until it has run. A
// source already pinned keeps its branch.
func (h *HeldConns) Open(ctx context.Context, e *Executor, ds string, verb *resource.Statement) error {
	_, _, err := h.take(ctx, e, ds, verb)
	return err
}

// take returns ds's pinned connection, pinning one opened by verb on first
// use, and the branch's opening verb while it has not succeeded.
func (h *HeldConns) take(ctx context.Context, e *Executor, ds string, verb *resource.Statement) (*resource.PooledConn, *resource.Statement, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if hc := h.find(ds); hc != nil {
		return hc.conn, hc.open, nil
	}
	src, err := e.Source(ds)
	if err != nil {
		return nil, nil, err
	}
	c, err := src.AcquireCtx(ctx)
	if err != nil {
		return nil, nil, err
	}
	h.conns = append(h.conns, heldConn{ds: ds, conn: c, open: verb})
	return c, verb, nil
}

// ran records the outcome of a window that led with verbs: ds's opening
// verb when open, then the lead verb when lead. A verb ran if the window
// failed on no statement or on one after it.
func (h *HeldConns) ran(ds string, open, lead bool, err error) {
	n := math.MaxInt // statements that ran: all, or those before the failed one
	if be := (*resource.BatchError)(nil); errors.As(err, &be) {
		n = be.Index
	} else if err != nil {
		n = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if hc := h.find(ds); hc != nil {
		if open && n > 0 {
			hc.open, n = nil, n-1
		}
		hc.led = lead && n > 0
	}
}

// Lead makes each write window that runs on a held connection until the
// next call lead with verb, after the branch's opening verb (nil: with
// none), and forgets where the previous verb ran.
func (h *HeldConns) Lead(verb *resource.Statement) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.lead = verb
	for i := range h.conns {
		h.conns[i].led = false
	}
}

// Undo runs sql on every branch the lead verb ran on, all at once and
// detached from ctx's cancellation, under AbortTimeout, as cleanup that
// must reach the branches after a deadline. It returns the first failure.
func (h *HeldConns) Undo(ctx context.Context, sql string) error {
	h.mu.Lock()
	var conns []heldConn
	for _, hc := range h.conns {
		if hc.led {
			conns = append(conns, hc)
		}
	}
	h.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), AbortTimeout)
	defer cancel()
	return errors.Join(FanOut(ctx, conns, func(ctx context.Context, _ int, hc heldConn) error {
		if _, err := hc.conn.Exec(ctx, sql); err != nil {
			return fmt.Errorf("data source %s: %s: %w", hc.ds, sql, err)
		}
		return nil
	})...)
}

// FanOut calls fn once per item, all at once, and returns when every call
// has returned, with each call's error at its item's index; a lone item
// runs on the caller's goroutine. It is the one fan-out of statements,
// commit phases and cleanup: no call's failure cancels its siblings, so a
// failed fan-out leaves each branch in the state its own answer tells.
// Only ctx cancels a call: the statement's deadline, or a client that went
// away.
func FanOut[T any](ctx context.Context, items []T, fn func(ctx context.Context, i int, item T) error) []error {
	errs := make([]error, len(items))
	if len(items) == 1 {
		errs[0] = fn(ctx, 0, items[0])
		return errs
	}
	var wg sync.WaitGroup
	wg.Add(len(items))
	for i, item := range items {
		go func(ctx context.Context, i int, item T) {
			defer wg.Done()
			errs[i] = fn(ctx, i, item)
		}(ctx, i, item)
	}
	wg.Wait()
	return errs
}

// AbortTimeout bounds cleanup fan-outs that run detached from the
// (possibly already cancelled) statement context: Undo, and a
// transaction's abort.
const AbortTimeout = 10 * time.Second

// Defunct returns a data source whose pinned connection is defunct
// (resource.PooledConn.Defunct): what its branch holds is unknown.
func (h *HeldConns) Defunct() (string, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, hc := range h.conns {
		if hc.conn.Defunct() {
			return hc.ds, true
		}
	}
	return "", false
}

// Peek returns ds's pinned connection once its branch is open: the verb it
// was opened with, if any, succeeded. A branch whose verb never succeeded
// has nothing to commit or undo.
func (h *HeldConns) Peek(ds string) (*resource.PooledConn, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if hc := h.find(ds); hc != nil {
		return hc.conn, hc.open == nil
	}
	return nil, false
}

// ReleaseAll returns every pinned connection to its pool.
func (h *HeldConns) ReleaseAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, hc := range h.conns {
		hc.conn.Release()
	}
	clear(h.conns)
	h.conns = h.conns[:0]
}

// group is the per-data-source execution plan: its units are the
// statement's units on ds, in order (indexes). It holds no pointer into
// the plan, so a statement's groups live on its stack.
type group struct {
	ds    string
	n     int // units on ds
	mode  ConnectionMode
	conns int
	// union: every unit is a Union unit, so a window of several is one
	// statement. A query's sets are QueryResult.Sets[base:base+sets]: the
	// statements of connection ci's share land at base+ci, base+ci+conns…
	union      bool
	base, sets int
}

// indexes appends the positions of g's units among units to dst.
func (g group) indexes(units []rewrite.SQLUnit, dst []int) []int {
	for i := range units {
		if units[i].DataSource == g.ds {
			dst = append(dst, i)
		}
	}
	return dst
}

// plan groups units by data source, appending to out, and decides each
// group's mode and the result slots its statements take; sets is the
// number of statements sent. A statement touches a handful of sources, so
// groups are found by scanning the ones seen so far.
func (e *Executor) plan(units []rewrite.SQLUnit, held *HeldConns, out []group) (_ []group, sets int) {
next:
	for _, u := range units {
		for gi := range out {
			if out[gi].ds == u.DataSource {
				out[gi].n++
				out[gi].union = out[gi].union && u.Union
				continue next
			}
		}
		out = append(out, group{ds: u.DataSource, n: 1, union: u.Union})
	}
	for gi := range out {
		g := &out[gi]
		switch {
		case held != nil:
			// Transactions ride a single pinned connection: always
			// connection-strict with one connection.
			g.mode, g.conns = ConnectionStrictly, 1
		case (g.n+e.maxCon-1)/e.maxCon > 1: // θ > 1
			g.mode, g.conns = ConnectionStrictly, e.maxCon
		default:
			g.mode, g.conns = MemoryStrictly, g.n
		}
		// A connection-strict share of several Union units is one
		// statement; every other unit is its own.
		g.base, g.sets = sets, g.n
		if g.mode == ConnectionStrictly && g.union {
			g.sets = min(g.n, g.conns)
		}
		sets += g.sets
	}
	return out, sets
}

// QueryCtx executes query units and returns one result set per statement
// sent: one per unit, except that a window's Union units are one statement
// (runWindow). When held is non-nil the statements ride the transaction's
// pinned connections (a window per source, materialized: the connection
// must be reusable immediately). The context carries the statement
// deadline, and a streaming set keeps reading through it; retry opts
// idempotent reads outside transactions into transparent transient-failure
// retries with jittered backoff. A fan-out returns once every group has
// answered (FanOut): a failed group cancels none of its siblings.
func (e *Executor) QueryCtx(ctx context.Context, units []rewrite.SQLUnit, held *HeldConns, tr *telemetry.Trace, retry bool) (*QueryResult, error) {
	if tr.Sampled() {
		// Remote connections inject the trace into the wire protocol's
		// trace-context trailer; the context is the only channel that
		// reaches them. Unsampled statements skip the allocation.
		ctx = telemetry.WithTrace(ctx, tr)
	}
	var buf [8]group
	groups, sets := e.plan(units, held, buf[:0])
	res := &QueryResult{}
	res.Sets = slices.Grow(res.sets[:0], sets)[:sets]
	var err error
	if len(groups) == 1 {
		// Single data source — no fan-out to overlap, so run on the
		// caller's stack instead of paying a goroutine spawn (and its
		// stack growth) per statement. Point queries live here.
		e.queryInline.Add(1)
		err = e.queryGroupRetry(ctx, units, groups[0], held, res, tr, retry)
	} else {
		e.queryFanout.Add(1)
		err = firstError(FanOut(ctx, groups, func(ctx context.Context, _ int, g group) error {
			return e.queryGroupRetry(ctx, units, g, held, res, tr, retry)
		}))
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

// queryGroupRetry runs one group, retrying transient failures when the
// caller opted in (idempotent reads outside transactions only — held
// connections carry transaction state and are never retried).
func (e *Executor) queryGroupRetry(ctx context.Context, units []rewrite.SQLUnit, g group, held *HeldConns, res *QueryResult, tr *telemetry.Trace, retry bool) error {
	err := e.runQueryGroup(ctx, units, g, held, res, tr, 1)
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
		closeGroupSets(res, g)
		if serr := sleepCtx(ctx, pol.backoff(attempt)); serr != nil {
			return err
		}
		e.retries.Add(1)
		if err = e.runQueryGroup(ctx, units, g, held, res, tr, attempt+1); err == nil {
			e.retrySuccess.Add(1)
			return nil
		}
	}
	return err
}

// closeGroupSets releases any result sets a failed group attempt parked.
// It reads only g's slots: sibling groups are writing theirs.
func closeGroupSets(res *QueryResult, g group) {
	for i, rs := range res.Sets[g.base : g.base+g.sets] {
		if rs != nil {
			rs.Close()
			res.Sets[g.base+i] = nil
		}
	}
}

func (e *Executor) runQueryGroup(ctx context.Context, units []rewrite.SQLUnit, g group, held *HeldConns, res *QueryResult, tr *telemetry.Trace, attempt int) error {
	var buf [16]int
	idxs := g.indexes(units, slices.Grow(buf[:0], g.n))
	if held != nil {
		conn, open, err := held.take(ctx, e, g.ds, nil)
		if err != nil {
			return err
		}
		err = e.runWindow(ctx, units, g, conn, open, idxs, res.Sets[g.base:], tr, attempt)
		if open != nil {
			held.ran(g.ds, true, false, err)
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
	var one [1]*resource.PooledConn
	conns := slices.Grow(one[:0], g.conns)
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
		return e.runConnShare(ctx, units, g, conns[0], idxs, res.Sets[g.base:], tr, attempt)
	}
	shares := make([][]int, len(conns))
	for ci := range shares {
		shares[ci] = make([]int, 0, len(idxs)/len(conns)+1)
		for ui := ci; ui < len(idxs); ui += len(conns) {
			shares[ci] = append(shares[ci], idxs[ui])
		}
	}
	return firstError(FanOut(ctx, conns, func(ctx context.Context, ci int, conn *resource.PooledConn) error {
		return e.runConnShare(ctx, units, g, conn, shares[ci], res.Sets[g.base+ci:], tr, attempt)
	}))
}

// runConnShare executes one connection's share of a group's units; the
// i-th statement's set goes to slots[i*g.conns].
func (e *Executor) runConnShare(ctx context.Context, units []rewrite.SQLUnit, g group, conn *resource.PooledConn, share []int, slots []resource.ResultSet, tr *telemetry.Trace, attempt int) error {
	if g.mode == ConnectionStrictly {
		defer conn.Release()
		return e.runWindow(ctx, units, g, conn, nil, share, slots, tr, attempt)
	}
	// Memory-strict (θ ≤ 1: the share is one unit). A result that arrives
	// materialized (every embedded unit's) frees its connection at once
	// and is charged to its heat cell by a walk, as a window's are. A live
	// cursor goes to the merger under a conn lease, which keeps the
	// connection checked out until the merged set closes it (paper: stream
	// merger keeps one connection per data node) and counts rows into the
	// heat cell as they stream.
	idx := share[0]
	u := units[idx]
	cell := e.heatCell(u)
	start := time.Now()
	rs, err := conn.Query(ctx, u.SQL, u.Args...)
	dur := e.observe(tr, g.ds, start, attempt, err)
	cell.ObserveQuery(start, dur, err)
	if err != nil {
		conn.Release()
		return wrapUnitErr(u, dur, err)
	}
	if s, ok := rs.(*resource.SliceResultSet); ok {
		conn.Release()
		if cell != nil {
			cell.AddRead(len(s.Data), rowBytes(s.Data))
		}
	} else {
		lease := resource.NewConnLease(rs, conn)
		if cell != nil {
			lease.AddSink(cell)
		}
		rs = lease
	}
	slots[0] = rs
	return nil
}

// runWindow hands a connection that must be reusable at once (a held one,
// or one running several units under CONNECTION_STRICTLY) its whole share
// in one batch call: a remote connection pipelines it, one round trip for
// all units (behind a held branch's opening verb), and every result comes
// back materialized, Union units' as one set (window). The window is one
// timed execution; unit heat cells count calls and rows, not latency. The
// i-th statement's set goes to slots[i*g.conns].
func (e *Executor) runWindow(ctx context.Context, units []rewrite.SQLUnit, g group, conn *resource.PooledConn, open *resource.Statement, share []int, slots []resource.ResultSet, tr *telemetry.Trace, attempt int) error {
	ds := g.ds
	w, off, union := window(open, nil, units, share, g.union)
	start := time.Now()
	sets, err := conn.QueryBatch(ctx, w.stmts)
	putWindow(w)
	if err == nil && union {
		if s, ok := sets[off].(*resource.SliceResultSet); !ok || len(s.TableRows) != len(share) {
			err = fmt.Errorf("exec: a table-list result does not count the rows of its %d tables", len(share))
		}
	}
	if err != nil {
		failed := batchFailure(ds, open, nil, units, share, off, err)
		dur := e.observe(tr, ds, start, attempt, err)
		e.heatCell(failed).ObserveQuery(start, dur, err)
		return wrapUnitErr(failed, dur, err)
	}
	e.observe(tr, ds, start, attempt, nil)
	sets = sets[off:]
	for i, rs := range sets {
		slots[i*g.conns] = rs
	}
	// Rows in memory are charged by a walk (a union's per table, by the rows
	// its scan kept, bytes in proportion); a live cursor's by its lease.
	var b, matched int64
	if union {
		s := sets[0].(*resource.SliceResultSet)
		b = rowBytes(s.Data)
		for _, n := range s.TableRows {
			matched += int64(n)
		}
	}
	for i, idx := range share {
		cell := e.heatCell(units[idx])
		cell.ObserveQuery(start, 0, nil)
		switch s, _ := sets[min(i, len(sets)-1)].(*resource.SliceResultSet); {
		case s == nil || cell == nil:
		case !union:
			cell.AddRead(len(s.Data), rowBytes(s.Data))
		case matched > 0:
			cell.AddRead(s.TableRows[i], b*int64(s.TableRows[i])/matched)
		}
	}
	return nil
}

func rowBytes(rows []sqltypes.Row) int64 {
	var b int64
	for _, r := range rows {
		b += digest.RowBytes(r)
	}
	return b
}

// windowBuf is a connection's window: its statements and a union's table
// list, recycled (putWindow): a batch call keeps neither.
type windowBuf struct {
	stmts  []resource.Statement
	tables []string
}

// window lays out a connection's statements, the opening verb and the
// lead verb (each if any) then the units, and counts those ahead of the
// units; two or more units of a union group are one statement over all
// their tables.
func window(open, lead *resource.Statement, units []rewrite.SQLUnit, share []int, unionGroup bool) (w *windowBuf, off int, union bool) {
	w = windowPool.Get().(*windowBuf)
	stmts := w.stmts[:0]
	for _, v := range [2]*resource.Statement{open, lead} {
		if v != nil {
			verb := *v
			verb.Verb = true
			stmts = append(stmts, verb)
		}
	}
	off, union = len(stmts), len(share) > 1 && unionGroup
	var tables []string
	if union {
		tables = w.tables[:0]
		for _, idx := range share {
			tables = append(tables, units[idx].ActualTable)
		}
		w.tables = tables
		share = share[:1]
	}
	for _, idx := range share {
		stmts = append(stmts, resource.Statement{SQL: units[idx].SQL, Args: units[idx].Args, Tables: tables})
	}
	w.stmts = stmts
	return w, off, union
}

func putWindow(w *windowBuf) {
	clear(w.stmts)
	clear(w.tables)
	windowPool.Put(w)
}

var windowPool = sync.Pool{New: func() any { return new(windowBuf) }}

// batchFailure names what a batch error's index points at in a window
// led by the verbs open and lead (each if any): a verb (its data source
// and text, no table: no unit ran), or a unit (a union's statement is its
// first unit's text); else the first unit.
func batchFailure(ds string, open, lead *resource.Statement, units []rewrite.SQLUnit, share []int, off int, err error) rewrite.SQLUnit {
	var be *resource.BatchError
	if errors.As(err, &be) && be.Index < off {
		if open == nil || be.Index > 0 {
			open = lead
		}
		return rewrite.SQLUnit{DataSource: ds, SQL: open.SQL}
	}
	if be != nil && be.Index-off < len(share) {
		return units[share[be.Index-off]]
	}
	return units[share[0]]
}

// ExecuteUpdateCtx runs DML/DDL units and returns the summed affected
// count and the last insert id observed. Units ride held's connections;
// with held nil the statement pins its own for its duration. The context
// carries the statement deadline. A fan-out returns once every source's
// window has answered (FanOut).
// DML is never retried — a failed write's true outcome is unknown, and
// replaying it could double-apply.
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
	var buf [8]group
	groups, _ := e.plan(units, held, buf[:0])
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
	// fn takes ctx rather than capturing it: a captured parameter that is
	// reassigned moves to the heap on every call, the inline path's too.
	if err := firstError(FanOut(ctx, groups, func(ctx context.Context, _ int, g group) error {
		return e.runUpdateGroup(ctx, units, g, held, &total, &mu, tr)
	})); err != nil {
		return resource.ExecResult{}, err
	}
	return total, nil
}

// runUpdateGroup executes one data source's DML units on its held
// connection.
func (e *Executor) runUpdateGroup(ctx context.Context, units []rewrite.SQLUnit, g group, held *HeldConns, total *resource.ExecResult, mu *sync.Mutex, tr *telemetry.Trace) error {
	conn, open, err := held.take(ctx, e, g.ds, nil)
	if err != nil {
		return err
	}
	lead := held.lead // set before the fan-out started
	var buf [16]int
	idxs := g.indexes(units, slices.Grow(buf[:0], g.n))
	if open == nil && lead == nil && len(idxs) == 1 {
		u := units[idxs[0]]
		start := time.Now()
		r, err := conn.Exec(ctx, u.SQL, u.Args...)
		dur := e.observe(tr, g.ds, start, 1, err)
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
	// its unit, or to a verb.
	w, off, _ := window(open, lead, units, idxs, false)
	start := time.Now()
	results, err := resource.ExecBatch(ctx, conn, w.stmts)
	putWindow(w)
	if off > 0 {
		held.ran(g.ds, open != nil, lead != nil, err)
	}
	if err != nil {
		failed := batchFailure(g.ds, open, lead, units, idxs, off, err)
		dur := e.observe(tr, g.ds, start, 1, err)
		e.heatCell(failed).ObserveExec(start, dur, 0, err)
		return wrapUnitErr(failed, dur, err)
	}
	e.observe(tr, g.ds, start, 1, nil)
	results = results[off:]
	mu.Lock()
	for _, r := range results {
		total.Affected += r.Affected
		if r.LastInsertID != 0 {
			total.LastInsertID = r.LastInsertID
		}
	}
	mu.Unlock()
	// Per-unit heat attribution: results line up with idxs. The batch
	// measured one duration for the whole window, so unit cells skip the
	// latency histogram and count calls/rows only.
	for i, idx := range idxs {
		e.heatCell(units[idx]).ObserveExec(start, 0, results[i].Affected, nil)
	}
	return nil
}
