// Package telemetry is the kernel's always-on observability layer. Every
// statement carries a pooled Trace that records monotonic spans for each
// pipeline stage (parse → route → rewrite → execute → merge), per-data-
// source execution, and transaction phases (XA prepare/commit, BASE undo
// capture). Finished traces feed fixed-bucket latency histograms, per-
// source error/timeout counters, and a ring buffer of the slowest
// statements — all designed so the hot path costs a handful of clock
// reads and atomic adds, with no locks and no steady-state allocation.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"shardingsphere/internal/sqlparser"
)

// Stage identifies one pipeline phase of a statement's lifetime.
type Stage uint8

const (
	// StageParse covers SQL text → AST.
	StageParse Stage = iota
	// StagePlanCache covers normalize and the shape's plan-cache lookup —
	// on a miss, the parse and compile as well.
	StagePlanCache
	// StageRoute covers sharding-condition extraction and node routing.
	StageRoute
	// StageRewrite covers logical→actual SQL rewriting.
	StageRewrite
	// StageExecute covers the storage fan-out wall time. Per-unit spans
	// additionally carry the data source name.
	StageExecute
	// StageMerge covers result merging (sort/aggregate/limit decoration).
	StageMerge
	// StageAcquire covers connection-pool acquisition inside execute
	// (recorded per data source on detailed traces).
	StageAcquire
	// StageXAPrepare covers XA END + XA PREPARE across branches.
	StageXAPrepare
	// StageXACommit covers the XA second phase.
	StageXACommit
	// StageBaseUndo covers BASE before-image (undo log) capture.
	StageBaseUndo
	// StageWire covers the client-observed round trip to a remote data
	// source minus the server-reported processing time: network transit
	// plus socket/stream queueing on both ends.
	StageWire
	// Remote (datanode-side) stages, grafted from span blocks piggybacked
	// on wire-v2 replies. Offsets are mapped into the local trace clock
	// assuming a symmetric network (half the wire gap on each side).
	StageNodeQueue  // frame receive → stream-worker pickup on the node
	StageNodeParse  // datanode SQL parse (incl. its parse cache)
	StageNodeRead   // storage read (SELECT execution)
	StageNodeWrite  // storage write (DML execution)
	StageNodeLock   // lock wait (SELECT ... FOR UPDATE / DML row locks)
	StageNodeCommit // autocommit/commit durability on the node
	StageNodeOther  // remote stage this build does not know by name
	// StageAdmission covers time spent queued in the frontend admission
	// controller before the statement entered the kernel. Its span sits
	// at a negative offset: the wait happened before trace start.
	StageAdmission
	// StageTotal is the whole statement; also the slow-log trigger.
	StageTotal
	numStages
)

var stageNames = [numStages]string{
	StageParse:      "parse",
	StagePlanCache:  "plan_cache",
	StageRoute:      "route",
	StageRewrite:    "rewrite",
	StageExecute:    "execute",
	StageMerge:      "merge",
	StageAcquire:    "pool_acquire",
	StageXAPrepare:  "xa_prepare",
	StageXACommit:   "xa_commit",
	StageBaseUndo:   "base_undo",
	StageWire:       "wire",
	StageNodeQueue:  "node_queue",
	StageNodeParse:  "node_parse",
	StageNodeRead:   "node_read",
	StageNodeWrite:  "node_write",
	StageNodeLock:   "node_lock_wait",
	StageNodeCommit: "node_commit",
	StageNodeOther:  "node_other",
	StageAdmission:  "admission_wait",
	StageTotal:      "total",
}

// remoteStageByName maps the compact stage names datanodes put on the
// wire to local stages. Unknown names degrade to StageNodeOther rather
// than erroring, so a newer node can talk to an older proxy.
var remoteStageByName = map[string]Stage{
	"queue":     StageNodeQueue,
	"parse":     StageNodeParse,
	"read":      StageNodeRead,
	"write":     StageNodeWrite,
	"lock_wait": StageNodeLock,
	"commit":    StageNodeCommit,
}

// String returns the wire name of the stage ("parse", "route", ...).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Span is one timed interval within a trace. Offset is relative to the
// trace start so a span table reads as a waterfall.
type Span struct {
	Stage      Stage
	DataSource string // set on per-unit execute and acquire spans
	Offset     time.Duration
	Dur        time.Duration
	Attempt    int    // 1-based try number on retried/failed-over units; 0 = first and only
	Err        string // non-empty when the spanned work failed
}

// Trace records the span breakdown of a single statement. It is pooled
// and allocation-free in steady state. All methods are nil-receiver safe
// so call sites need no telemetry-enabled branches.
//
// Clocking: all points are monotonic offsets from the collector's base
// timestamp (taken once at NewCollector), so starting a trace costs one
// time.Since — the monotonic-only fast path — rather than a full
// time.Now. Mark pays one more time.Since per stage boundary (sampled
// traces only) and AddExec/AddSpan re-derive offsets from timestamps
// their callers already took, with no clock reads at all.
//
// Sampling: per-stage marks and per-unit measurements run on every Nth
// statement (Collector.SetStageSampling) — an unsampled error-free
// statement costs exactly two clock reads, one at StartInto and one at
// Finish. Statement totals, error counters and slow-query capture are
// always on and exact; per-source execute latency is sampled (its
// percentiles are unbiased, its counts reflect sampled units only).
// Detailed traces always mark.
//
// Concurrency: Mark/Finish run on the session goroutine. AddExec/AddSpan
// run on executor goroutines and take mu; the session only resumes after
// the executor's WaitGroup, which establishes the happens-before edge
// that makes the unlocked session-side appends safe.
type Trace struct {
	col      *Collector
	sql      string
	startOff time.Duration // statement start, relative to col.base
	lastOff  time.Duration // offset of the previous mark
	tick     int64         // owner-local stage-sampling counter
	id       uint64        // nonzero on sampled traces; propagated to remote nodes
	sampled  bool          // stage marks active for this trace
	detailed bool
	retained bool
	owned    bool          // caller-owned storage: Finish skips the pool
	total    time.Duration // set by Finish
	digest   string        // statement digest id, set by the session when known
	redacted string        // normalized (literal-free) SQL, set with digest

	// endOff is the furthest known work end (exec / tx spans), advanced
	// by executor goroutines with a CAS max loop.
	endOff atomic.Int64

	mu    sync.Mutex
	spans []Span
	// Attempt numbering for retried/failed-over statements: maxAttempt is
	// the highest attempt number recorded so far, attemptBase what the next
	// execution round's local attempt numbers are offset by. Both under mu.
	attemptBase int
	maxAttempt  int
}

// advanceEnd lifts endOff to at least end (monotonic max).
func (t *Trace) advanceEnd(end time.Duration) {
	for {
		cur := t.endOff.Load()
		if int64(end) <= cur || t.endOff.CompareAndSwap(cur, int64(end)) {
			return
		}
	}
}

// Mark closes the interval since the previous mark (or trace start) as a
// span of the given stage. One monotonic clock read per stage boundary,
// and only on sampled traces.
func (t *Trace) Mark(stage Stage) {
	if t == nil || !t.sampled {
		return
	}
	off := time.Since(t.col.base) - t.startOff
	t.spans = append(t.spans, Span{
		Stage:  stage,
		Offset: t.lastOff,
		Dur:    off - t.lastOff,
	})
	t.col.observeStage(stage, off-t.lastOff)
	t.lastOff = off
}

// Skip advances the span clock without recording, excluding the elapsed
// interval from the next Mark.
func (t *Trace) Skip() {
	if t == nil || !t.sampled {
		return
	}
	t.lastOff = time.Since(t.col.base) - t.startOff
}

// Sampled reports whether this trace records per-stage and per-unit
// detail; the executor uses it to skip per-unit clock reads entirely on
// unsampled statements.
func (t *Trace) Sampled() bool { return t != nil && t.sampled }

// ID returns the trace's collector-local identifier (nonzero only on
// sampled traces); it travels to remote data nodes in the wire-v2
// trace-context trailer.
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// AddExec records one per-data-source execute span using timings the
// executor already measured — no extra clock reads. Unsampled traces
// only advance the work-end watermark unless the unit failed (their
// slow-log entries carry SQL and total, not spans). Safe to call from
// concurrent executor goroutines.
func (t *Trace) AddExec(dataSource string, start time.Time, dur time.Duration, err error) {
	t.AddExecAttempt(dataSource, start, dur, 0, err)
}

// AddExecAttempt is AddExec for retried/failed-over units: each try gets
// its own appended span tagged with a 1-based attempt number, so a
// failed first attempt's timing survives next to the retry that
// replaced it. Local attempt numbers compose with BeginFailover's base,
// so session-level failover rounds continue the sequence instead of
// restarting at 1.
func (t *Trace) AddExecAttempt(dataSource string, start time.Time, dur time.Duration, attempt int, err error) {
	if t == nil {
		return
	}
	off := start.Sub(t.col.base) - t.startOff
	t.advanceEnd(off + dur)
	if !t.sampled && err == nil {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	t.mu.Lock()
	if attempt > 0 {
		attempt += t.attemptBase
		if attempt > t.maxAttempt {
			t.maxAttempt = attempt
		}
	}
	t.spans = append(t.spans, Span{
		Stage:      StageExecute,
		DataSource: dataSource,
		Offset:     off,
		Dur:        dur,
		Attempt:    attempt,
		Err:        msg,
	})
	t.mu.Unlock()
}

// BeginFailover marks the start of a session-level failover round: the
// next execution's local attempt numbers (1, 2, …) continue after the
// highest attempt already recorded, keeping the statement's attempt
// sequence globally monotonic across both retry layers.
func (t *Trace) BeginFailover() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.maxAttempt == 0 {
		// Nothing recorded (unsampled trace or spans elided): still bump
		// the base so the retry is distinguishable from a first attempt.
		t.maxAttempt = 1
	}
	t.attemptBase = t.maxAttempt
	t.mu.Unlock()
}

// AddSpan records an externally timed span (transaction phases, pool
// acquisition) and advances the span clock past its end so the interval
// is not double-counted by the next Mark. Safe to call from concurrent
// executor goroutines.
func (t *Trace) AddSpan(stage Stage, dataSource string, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	off := start.Sub(t.col.base) - t.startOff
	t.advanceEnd(off + dur)
	t.mu.Lock()
	t.spans = append(t.spans, Span{
		Stage:      stage,
		DataSource: dataSource,
		Offset:     off,
		Dur:        dur,
	})
	if end := off + dur; t.sampled && end > t.lastOff {
		t.lastOff = end
	}
	t.mu.Unlock()
	t.col.observeStage(stage, dur)
}

// AddQueueWait records time the statement spent queued in frontend
// admission before this trace began. The span lands at a negative
// offset — the wait preceded trace start — so the waterfall shows it
// ahead of parse without shifting any other span. Recorded only on
// sampled traces (the admission controller keeps its own exact
// histogram); the statement total is not extended, matching how
// statement_timeout budgets treat queue wait as already spent.
func (t *Trace) AddQueueWait(d time.Duration) {
	if t == nil || !t.sampled || d <= 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Stage: StageAdmission, Offset: -d, Dur: d})
	t.mu.Unlock()
	t.col.observeStage(StageAdmission, d)
}

// Detailed reports whether the trace wants fine-grained spans (TRACE
// statements); hot-path traces keep coarse spans to stay cheap.
func (t *Trace) Detailed() bool { return t != nil && t.detailed }

// SetDigest attaches the statement's digest id and normalized shape so
// a slow-log capture can carry the digest column and redact literals
// without re-normalizing. Two string stores — no clock, no allocation.
func (t *Trace) SetDigest(id, normalizedKey string) {
	if t == nil {
		return
	}
	t.digest = id
	t.redacted = normalizedKey
}

// Finish closes the trace: records the total, counts errors, feeds the
// slow log, and returns the trace to the pool unless it is retained.
// Sampled traces already know their extent (last mark or furthest
// recorded work end) and pay no clock read; unsampled traces measure the
// full statement with the single read here — which also captures drain
// and merge time their skipped unit spans would miss.
func (t *Trace) Finish(err error) {
	if t == nil {
		return
	}
	total := t.lastOff
	if end := time.Duration(t.endOff.Load()); end > total {
		total = end
	}
	if total == 0 {
		total = time.Since(t.col.base) - t.startOff
	}
	t.total = total
	t.col.observeStage(StageTotal, total)
	if err != nil {
		t.col.errors.Add(1)
	}
	if total >= time.Duration(t.col.slowThresholdNs.Load()) {
		spans := make([]Span, len(t.spans))
		copy(spans, t.spans)
		sqlText := t.sql
		if !t.col.rawSlowSQL.Load() {
			if t.redacted != "" {
				sqlText = t.redacted
			} else {
				sqlText = RedactSQL(t.sql)
			}
		}
		t.col.slow.add(SlowEntry{SQL: sqlText, Digest: t.digest, Total: total, At: t.col.base.Add(t.startOff), Spans: spans})
	}
	if t.retained {
		t.sortSpans()
		return
	}
	if t.owned {
		return
	}
	t.col.release(t)
}

// Total returns the statement wall time (valid after Finish).
func (t *Trace) Total() time.Duration {
	if t == nil {
		return 0
	}
	return t.total
}

// Spans returns the recorded spans (valid after Finish on a retained
// trace; the slice is owned by the trace).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Release returns a retained trace to the pool.
func (t *Trace) Release() {
	if t == nil {
		return
	}
	t.col.release(t)
}

func (t *Trace) sortSpans() {
	sort.SliceStable(t.spans, func(i, j int) bool {
		return t.spans[i].Offset < t.spans[j].Offset
	})
}

// SourceStats aggregates per-data-source health: execute latency,
// acquire-wait latency (only waits that actually blocked), and error /
// acquire-timeout counters.
type SourceStats struct {
	Execute     Histogram
	AcquireWait Histogram
	// Wire and Remote split a remote source's execute latency: Wire is
	// the client-observed round trip minus the node-reported processing
	// time, Remote is the node-reported processing time itself. Both are
	// fed by span grafting, i.e. sampled statements only.
	Wire     Histogram
	Remote   Histogram
	Errors   atomic.Uint64
	Timeouts atomic.Uint64
}

// Collector owns the aggregate state traces feed into. A nil Collector is
// valid and inert.
type Collector struct {
	enabled         atomic.Bool
	slowThresholdNs atomic.Int64
	errors          atomic.Uint64
	sampleEvery     atomic.Int64
	sampleTick      atomic.Int64
	traceSeq        atomic.Uint64

	stage [numStages]Histogram

	// rawSlowSQL switches slow-log / trace surfaces back to raw SQL
	// capture (SET VARIABLE slow_query_raw_sql); the default redacts
	// literals so captured statements carry no user data.
	rawSlowSQL atomic.Bool

	// sources is a sync.Map[string]*SourceStats: lock-free reads once a
	// data source has been seen.
	sources sync.Map

	// base anchors all trace offsets: one wall+monotonic read at
	// construction, so per-statement clocking stays on the cheaper
	// monotonic-only path.
	base time.Time

	slow *slowLog
	pool sync.Pool
}

// DefaultSlowThreshold is the initial slow-query capture threshold.
const DefaultSlowThreshold = 100 * time.Millisecond

// DefaultStageSampling is the default per-stage mark sampling interval:
// one statement in N records stage-boundary spans. Totals, per-source
// stats, errors and the slow log are never sampled.
const DefaultStageSampling = 16

// NewCollector returns an enabled collector with the default slow-query
// threshold and a 64-entry slow log.
func NewCollector() *Collector {
	c := &Collector{slow: newSlowLog(64), base: time.Now()}
	c.slowThresholdNs.Store(int64(DefaultSlowThreshold))
	c.sampleEvery.Store(DefaultStageSampling)
	c.enabled.Store(true)
	c.pool.New = func() any {
		return &Trace{spans: make([]Span, 0, 16)}
	}
	return c
}

// SetEnabled toggles hot-path trace collection. TRACE statements work
// regardless.
func (c *Collector) SetEnabled(on bool) {
	if c != nil {
		c.enabled.Store(on)
	}
}

// Enabled reports whether hot-path collection is on.
func (c *Collector) Enabled() bool { return c != nil && c.enabled.Load() }

// SetStageSampling makes one statement in every records stage-boundary
// marks (1 = every statement). Values below 1 are treated as 1.
func (c *Collector) SetStageSampling(every int) {
	if c == nil {
		return
	}
	if every < 1 {
		every = 1
	}
	c.sampleEvery.Store(int64(every))
}

// StageSampling returns the stage-mark sampling period.
func (c *Collector) StageSampling() int { return int(c.sampleEvery.Load()) }

// SetSlowThreshold sets the minimum statement total that enters the slow
// log.
func (c *Collector) SetSlowThreshold(d time.Duration) {
	if c != nil {
		c.slowThresholdNs.Store(int64(d))
	}
}

// SlowThreshold returns the current slow-log capture threshold.
func (c *Collector) SlowThreshold() time.Duration {
	if c == nil {
		return 0
	}
	return time.Duration(c.slowThresholdNs.Load())
}

// SetRawSlowSQL switches slow-log capture between redacted (default)
// and raw SQL.
func (c *Collector) SetRawSlowSQL(on bool) {
	if c != nil {
		c.rawSlowSQL.Store(on)
	}
}

// RawSlowSQL reports whether raw-SQL capture is on.
func (c *Collector) RawSlowSQL() bool { return c != nil && c.rawSlowSQL.Load() }

// SetSlowLogCapacity rebounds the slow-query ring at runtime, keeping
// the most recent entries.
func (c *Collector) SetSlowLogCapacity(n int) {
	if c != nil {
		c.slow.setCapacity(n)
	}
}

// SlowLogCapacity returns the slow-query ring's bound.
func (c *Collector) SlowLogCapacity() int {
	c.slow.mu.Lock()
	defer c.slow.mu.Unlock()
	return c.slow.capacity
}

// Redact applies the collector's capture policy to a statement: the
// normalized literal-free shape unless raw capture is on. Surfaces that
// echo SQL they did not capture through Finish (TRACE) share the policy
// through this method.
func (c *Collector) Redact(sql string) string {
	if c != nil && c.rawSlowSQL.Load() {
		return sql
	}
	return RedactSQL(sql)
}

// RedactSQL returns the literal-free normalized form of sql, or sql
// unchanged when it has no normalizable shape (DistSQL, DDL — shapes
// that carry no bound user values).
func RedactSQL(sql string) string {
	if n, ok := sqlparser.Normalize(sql); ok {
		return n.Key
	}
	return sql
}

// DigestID returns the stable digest id of a normalized statement
// shape: fnv-1a/64 in fixed-width hex. It lives here (rather than the
// digest package, which imports telemetry) so slow-log entries and the
// digest registry derive identical ids.
func DigestID(key string) string {
	const (
		offset64  = 14695981039346656037
		prime64   = 1099511628211
		hexdigits = "0123456789abcdef"
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[h&0xf]
		h >>= 4
	}
	return string(b[:])
}

// Start begins a trace for one statement, or returns nil (a valid inert
// trace) when collection is disabled.
func (c *Collector) Start(sql string) *Trace {
	if c == nil || !c.enabled.Load() {
		return nil
	}
	return c.begin(sql, false)
}

// StartInto begins a trace in caller-owned storage (typically embedded
// in a session), skipping the pool round-trip on the hot path. Finish
// leaves the buffer with the caller; it is reused by the next StartInto.
func (c *Collector) StartInto(buf *Trace, sql string) *Trace {
	if c == nil || !c.enabled.Load() {
		return nil
	}
	buf.col = c
	buf.sql = sql
	buf.startOff = time.Since(c.base)
	buf.lastOff = 0
	buf.endOff.Store(0)
	buf.total = 0
	// Owner-local sampling tick: no shared counter, no cache-line bounce
	// between sessions.
	buf.tick--
	if buf.tick <= 0 {
		buf.tick = c.sampleEvery.Load()
		buf.sampled = true
	} else if every := c.sampleEvery.Load(); buf.tick >= every {
		// The interval was lowered at runtime (SET VARIABLE
		// stage_sampling): resample now instead of draining the old,
		// longer cycle.
		buf.tick = every
		buf.sampled = true
	} else {
		buf.sampled = false
	}
	buf.id = 0
	if buf.sampled {
		buf.id = c.traceSeq.Add(1)
	}
	buf.detailed = false
	buf.retained = false
	buf.owned = true
	buf.digest, buf.redacted = "", ""
	buf.spans = buf.spans[:0]
	buf.attemptBase, buf.maxAttempt = 0, 0
	return buf
}

// StartDetailed begins a retained, fine-grained trace (used by TRACE
// statements); it works even when hot-path collection is disabled.
func (c *Collector) StartDetailed(sql string) *Trace {
	if c == nil {
		return nil
	}
	t := c.begin(sql, true)
	t.detailed = true
	t.retained = true
	return t
}

func (c *Collector) begin(sql string, detailed bool) *Trace {
	t := c.pool.Get().(*Trace)
	t.col = c
	t.sql = sql
	t.startOff = time.Since(c.base)
	t.lastOff = 0
	t.endOff.Store(0)
	t.total = 0
	t.sampled = detailed || (c.sampleTick.Add(1)-1)%c.sampleEvery.Load() == 0
	t.id = 0
	if t.sampled {
		t.id = c.traceSeq.Add(1)
	}
	t.detailed = detailed
	t.retained = false
	t.owned = false
	t.digest, t.redacted = "", ""
	t.spans = t.spans[:0]
	t.attemptBase, t.maxAttempt = 0, 0
	return t
}

func (c *Collector) release(t *Trace) {
	t.sql = ""
	c.pool.Put(t)
}

func (c *Collector) observeStage(stage Stage, d time.Duration) {
	if c == nil {
		return
	}
	c.stage[stage].Observe(d)
}

// Source returns (creating if needed) the stats bucket for a data source.
func (c *Collector) Source(name string) *SourceStats {
	if c == nil {
		return nil
	}
	if s, ok := c.sources.Load(name); ok {
		return s.(*SourceStats)
	}
	s, _ := c.sources.LoadOrStore(name, &SourceStats{})
	return s.(*SourceStats)
}

// ObserveExec records one per-source unit execution.
func (c *Collector) ObserveExec(dataSource string, dur time.Duration, err error) {
	if c == nil {
		return
	}
	s := c.Source(dataSource)
	s.Execute.Observe(dur)
	if err != nil {
		s.Errors.Add(1)
	}
}

// ObserveAcquire records a blocking pool acquisition (or timeout) for a
// data source.
func (c *Collector) ObserveAcquire(dataSource string, wait time.Duration, timedOut bool) {
	if c == nil {
		return
	}
	s := c.Source(dataSource)
	s.AcquireWait.Observe(wait)
	if timedOut {
		s.Timeouts.Add(1)
	}
}

// Slow returns captured slow statements, most recent first.
func (c *Collector) Slow() []SlowEntry {
	if c == nil {
		return nil
	}
	return c.slow.entries()
}
