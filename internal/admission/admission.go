// Package admission is the proxy frontend's overload-protection layer:
// an admission controller sitting between the accept path and the kernel
// that keeps the server in its good operating region when offered load
// exceeds capacity.
//
// The model: at most MaxConcurrent statements execute at once; excess
// arrivals wait in a bounded per-tenant queue scheduled by weighted fair
// queueing (stride scheduling), so one hot tenant/schema cannot starve
// the rest. A request is shed *immediately* — with a typed, retryable
// OverloadedError carrying a retry-after hint — when the predicted queue
// wait cannot fit its remaining statement-timeout budget, when the queue
// is full, or when sustained sojourn above the CoDel-style target says
// the server is past saturation. Shedding at the door costs the client
// one round trip instead of a deep timeout inside the kernel, which is
// what keeps the p99 of *admitted* requests flat while goodput stays at
// capacity.
//
// Connection-level protection rides alongside: a max-connections cap
// enforced at accept time (AdmitConn) and a draining mode (BeginDrain)
// under which in-flight work completes while new work is refused.
package admission

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shardingsphere/internal/telemetry"
)

// wireMarker prefixes the wire form of an OverloadedError so clients can
// re-type it after a FrameError round trip.
const wireMarker = "SS_OVERLOADED"

// Shed reasons.
const (
	ReasonQueueFull = "queue_full" // admission queue at capacity
	ReasonDeadline  = "deadline"   // predicted wait exceeds the statement's remaining budget
	ReasonQueueWait = "queue_wait" // predicted wait exceeds the queue-wait bound (CoDel overload state tightens it)
	ReasonTimeout   = "timeout"    // the request's own sojourn exceeded its bound while queued
	ReasonDraining  = "draining"   // server is draining for shutdown
	ReasonConnLimit = "conn_limit" // max-connections cap hit at accept time
)

// OverloadedError is the typed "server overloaded, retry later" rejection.
// It is transient (resource.IsTransient classifies it as retryable) and
// survives a wire round trip: the proxy sends Error() in a FrameError and
// ParseOverloaded re-types it on the client, preserving Reason and
// RetryAfter so callers can back off instead of hammering an overloaded
// server.
type OverloadedError struct {
	Reason     string
	RetryAfter time.Duration
}

// Error implements error; the format doubles as the wire encoding.
func (e *OverloadedError) Error() string {
	return fmt.Sprintf("%s reason=%s retry_after_ms=%d: server overloaded, retry later",
		wireMarker, e.Reason, e.RetryAfter.Milliseconds())
}

// Transient implements resource.TransientError: overload is retryable —
// after RetryAfter, ideally.
func (e *OverloadedError) Transient() bool { return true }

// ParseOverloaded re-types a wire error message produced by
// (*OverloadedError).Error, tolerating prefixes added along the way.
func ParseOverloaded(msg string) (*OverloadedError, bool) {
	i := strings.Index(msg, wireMarker)
	if i < 0 {
		return nil, false
	}
	rest := msg[i+len(wireMarker):]
	e := &OverloadedError{Reason: "unknown"}
	for _, field := range strings.Fields(rest) {
		if v, ok := strings.CutPrefix(field, "reason="); ok {
			e.Reason = strings.TrimSuffix(v, ":")
		}
		if v, ok := strings.CutPrefix(field, "retry_after_ms="); ok {
			if ms, err := strconv.ParseInt(strings.TrimSuffix(v, ":"), 10, 64); err == nil {
				e.RetryAfter = time.Duration(ms) * time.Millisecond
			}
		}
	}
	return e, true
}

// Config sizes a Controller. Zero values choose sane defaults.
type Config struct {
	// MaxConcurrent bounds statements executing at once (default
	// 4×GOMAXPROCS — enough to cover fan-out I/O waits).
	MaxConcurrent int
	// QueueDepth bounds queued statements across all tenants (default
	// 8×MaxConcurrent).
	QueueDepth int
	// MaxQueueWait bounds the predicted queue wait for statements with no
	// timeout budget, and every waiter's actual sojourn (default 100ms).
	MaxQueueWait time.Duration
	// Target is the CoDel-style sojourn target: dequeue waits persistently
	// above it flip the controller into its overloaded state, where the
	// admission bound tightens from MaxQueueWait to Target (default
	// MaxQueueWait/8).
	Target time.Duration
	// Interval is how long sojourn must stay above Target before the
	// overloaded state engages (default 100ms).
	Interval time.Duration
	// MaxConns caps concurrent frontend connections; 0 means unlimited.
	MaxConns int
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8 * c.MaxConcurrent
	}
	if c.MaxQueueWait <= 0 {
		c.MaxQueueWait = 100 * time.Millisecond
	}
	if c.Target <= 0 {
		c.Target = c.MaxQueueWait / 8
	}
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	return c
}

// waiter is one queued request. state arbitrates the dequeue/timeout
// race: whoever CASes pending→theirs owns the slot decision.
type waiter struct {
	ready chan struct{} // closed by the dispatcher on admission
	at    time.Time
	state atomic.Int32 // 0 pending, 1 admitted, 2 abandoned
}

const (
	wPending int32 = iota
	wAdmitted
	wAbandoned
)

// tenant is one fair-queueing class (a tenant or schema).
type tenant struct {
	name     string
	weight   float64
	pass     float64 // stride-scheduling virtual time
	q        []*waiter
	admitted int64
	shed     int64
}

// Controller is the admission state machine. All statement admission
// funnels through Acquire; connections through AdmitConn.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	running  int
	queued   int
	tenants  map[string]*tenant
	weights  map[string]float64 // configured quotas (survive idle tenants)
	draining bool

	// Prediction and CoDel state (under mu).
	svcEWMA     float64 // per-statement service time estimate, ns
	sojournEWMA float64 // recent dequeue sojourn, ns
	aboveSince  time.Time
	overloaded  bool

	// Counters (atomics: read lock-free by metrics surfaces).
	admitted      atomic.Int64
	queuedTotal   atomic.Int64
	shedQueueFull atomic.Int64
	shedDeadline  atomic.Int64
	shedQueueWait atomic.Int64
	shedTimeout   atomic.Int64
	shedDraining  atomic.Int64
	shedConnLimit atomic.Int64
	overloadFlips atomic.Int64

	conns     atomic.Int64
	connsPeak atomic.Int64

	queueWait telemetry.Histogram
}

// NewController builds a controller from the config.
func NewController(cfg Config) *Controller {
	return &Controller{
		cfg:     cfg.withDefaults(),
		tenants: map[string]*tenant{},
		weights: map[string]float64{},
	}
}

// SetWeight configures a tenant's fair-queueing weight (its quota
// relative to other tenants; default 1). Weight must be positive.
func (c *Controller) SetWeight(tenantName string, w float64) error {
	if w <= 0 {
		return fmt.Errorf("admission: weight must be > 0, got %g", w)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.weights[tenantName] = w
	c.tenantLocked(tenantName).weight = w
	return nil
}

// BeginDrain switches the controller into draining mode: queued and
// running statements complete normally, new arrivals are shed with
// ReasonDraining. Idempotent.
func (c *Controller) BeginDrain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
}

// WaitIdle blocks until no statement is running or queued, or the timeout
// elapses; it reports whether the controller went idle. Used by graceful
// shutdown after BeginDrain.
func (c *Controller) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		idle := c.running == 0 && c.queued == 0
		c.mu.Unlock()
		if idle {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// AdmitConn accounts one frontend connection against the cap, returning
// a typed overload error when the cap is hit (the accept path rejects
// and closes). The caller must pair a nil return with ReleaseConn.
func (c *Controller) AdmitConn() error {
	n := c.conns.Add(1)
	if c.cfg.MaxConns > 0 && n > int64(c.cfg.MaxConns) {
		c.conns.Add(-1)
		c.shedConnLimit.Add(1)
		return &OverloadedError{Reason: ReasonConnLimit, RetryAfter: 100 * time.Millisecond}
	}
	for {
		peak := c.connsPeak.Load()
		if n <= peak || c.connsPeak.CompareAndSwap(peak, n) {
			return nil
		}
	}
}

// ReleaseConn returns one connection slot.
func (c *Controller) ReleaseConn() { c.conns.Add(-1) }

// predictLocked estimates the queue wait a new arrival would see: the
// work ahead of it divided by the drain rate. With no service-time
// samples yet the estimate is optimistically zero.
func (c *Controller) predictLocked() time.Duration {
	if c.svcEWMA <= 0 {
		return 0
	}
	return time.Duration(float64(c.queued+1) * c.svcEWMA / float64(c.cfg.MaxConcurrent))
}

// ewma folds a sample into an exponentially weighted moving average with
// α=1/8 (same constant TCP RTT estimation uses).
func ewma(prev, sample float64) float64 {
	if prev == 0 {
		return sample
	}
	return prev + (sample-prev)/8
}

// observeSojournLocked updates the CoDel state with one dequeue sojourn.
func (c *Controller) observeSojournLocked(sojourn time.Duration, now time.Time) {
	c.sojournEWMA = ewma(c.sojournEWMA, float64(sojourn))
	if sojourn <= c.cfg.Target {
		c.aboveSince = time.Time{}
		if c.overloaded {
			c.overloaded = false
		}
		return
	}
	if c.aboveSince.IsZero() {
		c.aboveSince = now
		return
	}
	if !c.overloaded && now.Sub(c.aboveSince) >= c.cfg.Interval {
		c.overloaded = true
		c.overloadFlips.Add(1)
	}
}

// tenantLocked returns the named tenant class, creating it with the
// configured (or default) weight and a non-starving stride pass.
func (c *Controller) tenantLocked(name string) *tenant {
	t, ok := c.tenants[name]
	if ok {
		return t
	}
	w := c.weights[name]
	if w <= 0 {
		w = 1
	}
	t = &tenant{name: name, weight: w}
	// A joining tenant starts at the minimum active pass so it neither
	// starves nor gets credit for its idle past.
	minPass := 0.0
	first := true
	for _, o := range c.tenants {
		if len(o.q) > 0 && (first || o.pass < minPass) {
			minPass, first = o.pass, false
		}
	}
	t.pass = minPass
	c.tenants[name] = t
	return t
}

// Acquire admits one statement for the tenant, blocking in the fair
// queue when the server is busy. budget is the statement's remaining
// timeout budget (0 = unbounded). On admission it returns the release
// function (call exactly once, after the statement finishes) and the
// time spent queued; on shedding it returns a typed *OverloadedError.
func (c *Controller) Acquire(tenantName string, budget time.Duration) (release func(), wait time.Duration, err error) {
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		c.shedDraining.Add(1)
		return nil, 0, &OverloadedError{Reason: ReasonDraining, RetryAfter: time.Second}
	}
	if c.running < c.cfg.MaxConcurrent && c.queued == 0 {
		c.running++
		c.tenantLocked(tenantName).admitted++
		c.mu.Unlock()
		c.admitted.Add(1)
		return c.releaseFunc(time.Now()), 0, nil
	}
	// Queue or shed. bound is the sojourn this request can afford: its
	// own budget, the global queue-wait cap, and — in the CoDel
	// overloaded state — the sojourn target, whichever is tightest.
	est := c.predictLocked()
	bound := c.cfg.MaxQueueWait
	reason := ReasonQueueWait
	if budget > 0 && budget < bound {
		bound = budget
		reason = ReasonDeadline
	}
	if c.overloaded && c.cfg.Target < bound {
		bound = c.cfg.Target
		reason = ReasonQueueWait
	}
	retry := est
	if retry < time.Millisecond {
		retry = time.Millisecond
	}
	if c.queued >= c.cfg.QueueDepth {
		c.tenantLocked(tenantName).shed++
		c.mu.Unlock()
		c.shedQueueFull.Add(1)
		return nil, 0, &OverloadedError{Reason: ReasonQueueFull, RetryAfter: retry}
	}
	if est > bound {
		t := c.tenantLocked(tenantName)
		t.shed++
		c.mu.Unlock()
		if reason == ReasonDeadline {
			c.shedDeadline.Add(1)
		} else {
			c.shedQueueWait.Add(1)
		}
		return nil, 0, &OverloadedError{Reason: reason, RetryAfter: retry}
	}
	w := &waiter{ready: make(chan struct{}), at: time.Now()}
	t := c.tenantLocked(tenantName)
	t.q = append(t.q, w)
	c.queued++
	c.mu.Unlock()
	c.queuedTotal.Add(1)

	timer := time.NewTimer(bound)
	defer timer.Stop()
	select {
	case <-w.ready:
		// Admitted by a dispatcher; it already moved the slot to us.
		now := time.Now()
		sojourn := now.Sub(w.at)
		c.queueWait.Observe(sojourn)
		c.mu.Lock()
		c.observeSojournLocked(sojourn, now)
		c.mu.Unlock()
		c.admitted.Add(1)
		return c.releaseFunc(now), sojourn, nil
	case <-timer.C:
		if !w.state.CompareAndSwap(wPending, wAbandoned) {
			// Lost the race: a dispatcher admitted us concurrently.
			<-w.ready
			now := time.Now()
			c.admitted.Add(1)
			return c.releaseFunc(now), now.Sub(w.at), nil
		}
		c.mu.Lock()
		c.queued--
		now := time.Now()
		c.observeSojournLocked(now.Sub(w.at), now)
		c.mu.Unlock()
		c.shedTimeout.Add(1)
		r := ReasonTimeout
		if reason == ReasonDeadline {
			r = ReasonDeadline
			c.shedDeadline.Add(1)
		}
		return nil, 0, &OverloadedError{Reason: r, RetryAfter: bound}
	}
}

// releaseFunc builds the once-only release closure for an admitted
// statement; startedAt feeds the service-time estimate.
func (c *Controller) releaseFunc(startedAt time.Time) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			svc := time.Since(startedAt)
			c.mu.Lock()
			c.svcEWMA = ewma(c.svcEWMA, float64(svc))
			c.dispatchLocked()
			c.mu.Unlock()
		})
	}
}

// dispatchLocked hands the freed slot to the next waiter by weighted
// fair queueing: among tenants with queued work, pick the minimum stride
// pass, pop its head, and advance its pass by 1/weight. Abandoned
// waiters (sojourn timeout) are skipped. With no waiters the slot is
// returned to the pool.
func (c *Controller) dispatchLocked() {
	for {
		var best *tenant
		for _, t := range c.tenants {
			if len(t.q) == 0 {
				continue
			}
			if best == nil || t.pass < best.pass {
				best = t
			}
		}
		if best == nil {
			c.running--
			return
		}
		w := best.q[0]
		best.q = best.q[1:]
		best.pass += 1 / best.weight
		if !w.state.CompareAndSwap(wPending, wAdmitted) {
			continue // timed out while queued; try the next waiter
		}
		c.queued--
		best.admitted++
		close(w.ready) // slot transfers: running stays constant
		return
	}
}

// TenantStatus is one tenant's live fair-queueing state.
type TenantStatus struct {
	Name     string
	Weight   float64
	Queued   int
	Admitted int64
	Shed     int64
}

// Status is a point-in-time controller snapshot for SHOW ADMISSION
// STATUS.
type Status struct {
	Cfg          Config
	Running      int
	Queued       int
	Conns        int64
	ConnsPeak    int64
	Overloaded   bool
	Draining     bool
	SvcEstimate  time.Duration
	QueueWaitP50 time.Duration
	QueueWaitP99 time.Duration
	Tenants      []TenantStatus
}

// Status snapshots the controller.
func (c *Controller) Status() Status {
	c.mu.Lock()
	st := Status{
		Cfg:         c.cfg,
		Running:     c.running,
		Queued:      c.queued,
		Overloaded:  c.overloaded,
		Draining:    c.draining,
		SvcEstimate: time.Duration(c.svcEWMA),
	}
	names := make([]string, 0, len(c.tenants))
	for n := range c.tenants {
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	for _, n := range names {
		t := c.tenants[n]
		st.Tenants = append(st.Tenants, TenantStatus{
			Name: t.name, Weight: t.weight, Queued: len(t.q),
			Admitted: t.admitted, Shed: t.shed,
		})
	}
	c.mu.Unlock()
	st.Conns = c.conns.Load()
	st.ConnsPeak = c.connsPeak.Load()
	st.QueueWaitP50 = c.queueWait.Quantile(0.50)
	st.QueueWaitP99 = c.queueWait.Quantile(0.99)
	return st
}

// ShedTotal is every shed counter summed — the statements turned away.
func (c *Controller) ShedTotal() int64 {
	return c.shedQueueFull.Load() + c.shedDeadline.Load() + c.shedQueueWait.Load() +
		c.shedTimeout.Load() + c.shedDraining.Load()
}

// Metrics reports admission counters and gauges, which the kernel's
// metrics snapshot reports under "admission.".
func (c *Controller) Metrics() map[string]int64 {
	c.mu.Lock()
	running, queued := c.running, c.queued
	overloaded := int64(0)
	if c.overloaded {
		overloaded = 1
	}
	c.mu.Unlock()
	return map[string]int64{
		"admitted":          c.admitted.Load(),
		"queued_total":      c.queuedTotal.Load(),
		"shed_total":        c.ShedTotal(),
		"shed_queue_full":   c.shedQueueFull.Load(),
		"shed_deadline":     c.shedDeadline.Load(),
		"shed_queue_wait":   c.shedQueueWait.Load(),
		"shed_timeout":      c.shedTimeout.Load(),
		"shed_draining":     c.shedDraining.Load(),
		"shed_conn_limit":   c.shedConnLimit.Load(),
		"overload_flips":    c.overloadFlips.Load(),
		"overloaded":        overloaded,
		"running":           int64(running),
		"queued":            int64(queued),
		"conns_active":      c.conns.Load(),
		"conns_peak":        c.connsPeak.Load(),
		"queue_wait_p50_us": int64(c.queueWait.Quantile(0.50) / time.Microsecond),
		"queue_wait_p99_us": int64(c.queueWait.Quantile(0.99) / time.Microsecond),
	}
}
