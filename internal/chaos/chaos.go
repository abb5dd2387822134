// Package chaos is the fault-injection layer that proves the kernel's
// fault tolerance: an Injector wraps a data source's connections at
// checkout time and perturbs every call according to a per-source Fault —
// probabilistic errors, added latency, blackhole hangs, and connections
// that break after N calls. Faults are driven at runtime through DistSQL
// (INJECT FAULT / REMOVE FAULT / SHOW FAULTS) and are deterministic under
// a fixed seed, so chaos tests are reproducible.
//
// Injected errors implement resource.TransientError, which places them in
// the retry/failover class: the executor retries them with backoff, the
// governor's breaker counts them, and read-write splitting routes around
// a source that keeps producing them.
package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shardingsphere/internal/resource"
	"shardingsphere/internal/sqltypes"
)

// MaxHang bounds a blackhole fault for callers without a context (plain
// blocking Query/Exec): the hang releases after this long instead of
// wedging the connection forever.
const MaxHang = 30 * time.Second

// Fault describes the perturbation applied to every call on one source.
type Fault struct {
	// ErrorRate is the probability ∈ [0,1] that a call fails with an
	// injected transient error.
	ErrorRate float64
	// Latency is added to every call before it reaches the real conn.
	Latency time.Duration
	// Hang blackholes every call: it blocks until the caller's context is
	// cancelled (or MaxHang without one), then fails.
	Hang bool
	// BreakAfter breaks the source after N total calls: every later call
	// fails and marks its connection defunct, so the pool discards it
	// (models a datanode dying mid-traffic). 0 disables.
	BreakAfter int64
	// Seed makes the error-rate dice deterministic; 0 seeds from entropy.
	Seed int64
}

// InjectedError is the failure produced by an active fault. It is
// transient: retry and failover machinery treats it like an
// infrastructure outage, not a SQL error.
type InjectedError struct {
	Source string
	Reason string
}

// Error implements error.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("chaos: injected %s fault on %s", e.Reason, e.Source)
}

// Transient implements resource.TransientError.
func (e *InjectedError) Transient() bool { return true }

// Status is one active fault with its live counters (SHOW FAULTS).
type Status struct {
	Source   string
	Fault    Fault
	Calls    int64
	Injected int64
}

// Describe renders the fault configuration as a compact k=v list.
func (s Status) Describe() string {
	var parts []string
	if s.Fault.ErrorRate > 0 {
		parts = append(parts, fmt.Sprintf("error_rate=%g", s.Fault.ErrorRate))
	}
	if s.Fault.Latency > 0 {
		parts = append(parts, fmt.Sprintf("latency=%s", s.Fault.Latency))
	}
	if s.Fault.Hang {
		parts = append(parts, "hang=true")
	}
	if s.Fault.BreakAfter > 0 {
		parts = append(parts, fmt.Sprintf("break_after=%d", s.Fault.BreakAfter))
	}
	if s.Fault.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", s.Fault.Seed))
	}
	if len(parts) == 0 {
		return "noop"
	}
	return strings.Join(parts, " ")
}

// FrontendFault perturbs the proxy's client-facing side — the storm and
// slow-client scenarios the admission layer exists to survive. Unlike
// backend faults it wraps no connection: the proxy server consults the
// injector at its accept and session loops.
type FrontendFault struct {
	// AcceptDelay stalls every accepted connection before its session
	// loop starts (models an accept queue backing up).
	AcceptDelay time.Duration
	// ConnResetRate is the probability ∈ [0,1] that a freshly accepted
	// connection is reset immediately (models flaky clients / LB resets).
	ConnResetRate float64
	// ClientStall inserts a server-side pause before each statement is
	// served, holding the session goroutine the way a stalled client
	// holds it mid-frame (models slow-loris senders).
	ClientStall time.Duration
	// Seed makes the reset dice deterministic; 0 seeds from entropy.
	Seed int64
}

// Describe renders the frontend fault as a compact k=v list.
func (f FrontendFault) Describe() string {
	var parts []string
	if f.AcceptDelay > 0 {
		parts = append(parts, fmt.Sprintf("accept_delay=%s", f.AcceptDelay))
	}
	if f.ConnResetRate > 0 {
		parts = append(parts, fmt.Sprintf("conn_reset=%g", f.ConnResetRate))
	}
	if f.ClientStall > 0 {
		parts = append(parts, fmt.Sprintf("client_stall=%s", f.ClientStall))
	}
	if f.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", f.Seed))
	}
	if len(parts) == 0 {
		return "noop"
	}
	return strings.Join(parts, " ")
}

// FrontendStatus is the active frontend fault with live counters.
type FrontendStatus struct {
	Fault    FrontendFault
	Conns    int64 // connections that ran the gauntlet
	Injected int64 // resets actually injected
}

// CoordinatorFault kills the 2PC coordinator at a protocol point: the
// transaction manager consults the injector between commit steps and
// abandons the commit there, as if the coordinator process died. Like the
// frontend fault it wraps no connection — it is a pseudo-source named
// "coordinator" in INJECT FAULT.
type CoordinatorFault struct {
	// CrashPoint names where the coordinator dies:
	// "after_prepare" (branches prepared, decision not logged → presumed
	// abort on recovery) or "after_log_write" (decision logged, phase 2
	// never runs → Recover completes the commit).
	CrashPoint string
}

// Describe renders the coordinator fault as a compact k=v list.
func (f CoordinatorFault) Describe() string {
	if f.CrashPoint == "" {
		return "noop"
	}
	return fmt.Sprintf("crash_point=%s", f.CrashPoint)
}

// CoordinatorStatus is the active coordinator fault with live counters.
type CoordinatorStatus struct {
	Fault    CoordinatorFault
	Checks   int64 // crash points consulted
	Injected int64 // crashes actually injected
}

// coordinatorFault is the live state of the coordinator fault.
type coordinatorFault struct {
	fault    CoordinatorFault
	checks   atomic.Int64
	injected atomic.Int64
}

// frontendFault is the live state of the frontend fault.
type frontendFault struct {
	fault FrontendFault

	mu  sync.Mutex
	rng *rand.Rand

	conns    atomic.Int64
	injected atomic.Int64
}

// sourceFault is the live state of one source's fault.
type sourceFault struct {
	fault Fault

	mu  sync.Mutex
	rng *rand.Rand

	calls    atomic.Int64
	injected atomic.Int64
}

func (sf *sourceFault) roll() bool {
	if sf.fault.ErrorRate <= 0 {
		return false
	}
	if sf.fault.ErrorRate >= 1 {
		return true
	}
	sf.mu.Lock()
	v := sf.rng.Float64()
	sf.mu.Unlock()
	return v < sf.fault.ErrorRate
}

// Injector owns the fault table and wraps data sources. One injector
// serves a whole kernel; sources without an entry pass through untouched.
type Injector struct {
	mu          sync.Mutex
	faults      map[string]*sourceFault
	wired       map[string]bool
	frontend    *frontendFault
	coordinator *coordinatorFault
}

// NewInjector returns an empty injector.
func NewInjector() *Injector {
	return &Injector{faults: map[string]*sourceFault{}, wired: map[string]bool{}}
}

// Apply installs (or replaces) the fault for a data source and wires the
// injector's interceptor onto it. Counters reset on replacement.
func (in *Injector) Apply(src *resource.DataSource, f Fault) {
	seed := f.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	name := src.Name()
	in.mu.Lock()
	in.faults[name] = &sourceFault{fault: f, rng: rand.New(rand.NewSource(seed))}
	if !in.wired[name] {
		in.wired[name] = true
		in.mu.Unlock()
		src.SetConnInterceptor(func(c resource.Conn) resource.Conn {
			return &faultConn{inner: c, injector: in, source: name}
		})
		return
	}
	in.mu.Unlock()
}

// Remove clears a source's fault, reporting whether one was active. The
// interceptor stays wired but passes through with no fault entry.
func (in *Injector) Remove(source string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if _, ok := in.faults[source]; !ok {
		return false
	}
	delete(in.faults, source)
	return true
}

// ApplyFrontend installs (or replaces) the frontend fault. Counters
// reset on replacement.
func (in *Injector) ApplyFrontend(f FrontendFault) {
	seed := f.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	in.mu.Lock()
	in.frontend = &frontendFault{fault: f, rng: rand.New(rand.NewSource(seed))}
	in.mu.Unlock()
}

// RemoveFrontend clears the frontend fault, reporting whether one was
// active.
func (in *Injector) RemoveFrontend() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	active := in.frontend != nil
	in.frontend = nil
	return active
}

// FrontendStatus snapshots the active frontend fault.
func (in *Injector) FrontendStatus() (FrontendStatus, bool) {
	in.mu.Lock()
	ff := in.frontend
	in.mu.Unlock()
	if ff == nil {
		return FrontendStatus{}, false
	}
	return FrontendStatus{Fault: ff.fault, Conns: ff.conns.Load(), Injected: ff.injected.Load()}, true
}

func (in *Injector) lookupFrontend() *frontendFault {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.frontend
}

// ApplyCoordinator installs (or replaces) the coordinator fault. Counters
// reset on replacement.
func (in *Injector) ApplyCoordinator(f CoordinatorFault) {
	in.mu.Lock()
	in.coordinator = &coordinatorFault{fault: f}
	in.mu.Unlock()
}

// RemoveCoordinator clears the coordinator fault, reporting whether one
// was active.
func (in *Injector) RemoveCoordinator() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	active := in.coordinator != nil
	in.coordinator = nil
	return active
}

// CoordinatorStatus snapshots the active coordinator fault.
func (in *Injector) CoordinatorStatus() (CoordinatorStatus, bool) {
	in.mu.Lock()
	cf := in.coordinator
	in.mu.Unlock()
	if cf == nil {
		return CoordinatorStatus{}, false
	}
	return CoordinatorStatus{Fault: cf.fault, Checks: cf.checks.Load(), Injected: cf.injected.Load()}, true
}

// CoordinatorCrash is the transaction manager's crash hook: it reports
// whether the coordinator should die at the named 2PC point.
func (in *Injector) CoordinatorCrash(point string) bool {
	in.mu.Lock()
	cf := in.coordinator
	in.mu.Unlock()
	if cf == nil {
		return false
	}
	cf.checks.Add(1)
	if cf.fault.CrashPoint != point {
		return false
	}
	cf.injected.Add(1)
	return true
}

// FrontendAcceptDelay runs the accept-side gauntlet for one incoming
// connection: it counts the connection and returns how long the accept
// path should stall before serving it (0 = no fault).
func (in *Injector) FrontendAcceptDelay() time.Duration {
	ff := in.lookupFrontend()
	if ff == nil {
		return 0
	}
	ff.conns.Add(1)
	return ff.fault.AcceptDelay
}

// FrontendConnReset rolls the reset dice for a freshly accepted
// connection; true means the proxy should drop it on the floor.
func (in *Injector) FrontendConnReset() bool {
	ff := in.lookupFrontend()
	if ff == nil || ff.fault.ConnResetRate <= 0 {
		return false
	}
	hit := ff.fault.ConnResetRate >= 1
	if !hit {
		ff.mu.Lock()
		hit = ff.rng.Float64() < ff.fault.ConnResetRate
		ff.mu.Unlock()
	}
	if hit {
		ff.injected.Add(1)
	}
	return hit
}

// FrontendClientStall returns the per-statement stall to inject before
// serving (0 = no fault).
func (in *Injector) FrontendClientStall() time.Duration {
	ff := in.lookupFrontend()
	if ff == nil {
		return 0
	}
	return ff.fault.ClientStall
}

// lookup returns the live fault state for a source (nil when none).
func (in *Injector) lookup(source string) *sourceFault {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.faults[source]
}

// Statuses snapshots the active faults sorted by source name.
func (in *Injector) Statuses() []Status {
	in.mu.Lock()
	out := make([]Status, 0, len(in.faults))
	for name, sf := range in.faults {
		out = append(out, Status{
			Source:   name,
			Fault:    sf.fault,
			Calls:    sf.calls.Load(),
			Injected: sf.injected.Load(),
		})
	}
	in.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}

// Metrics reports per-source injected-call counters, the kernel's chaos.*
// family.
func (in *Injector) Metrics() map[string]int64 {
	out := map[string]int64{}
	for _, s := range in.Statuses() {
		out[s.Source+".calls"] = s.Calls
		out[s.Source+".injected"] = s.Injected
	}
	if fs, ok := in.FrontendStatus(); ok {
		out["frontend.conns"] = fs.Conns
		out["frontend.injected"] = fs.Injected
	}
	if cs, ok := in.CoordinatorStatus(); ok {
		out["coordinator.checks"] = cs.Checks
		out["coordinator.injected"] = cs.Injected
	}
	return out
}

// faultConn perturbs every call according to the source's live fault. It
// resolves the fault on each call (not at wrap time) so INJECT/REMOVE
// FAULT applies to already-checked-out connections immediately.
type faultConn struct {
	inner    resource.Conn
	injector *Injector
	source   string
	defunct  atomic.Bool
}

// apply runs the fault gauntlet before a real call; a non-nil error means
// the call fails without reaching the inner conn.
func (c *faultConn) apply(ctx context.Context) error {
	sf := c.injector.lookup(c.source)
	if sf == nil {
		return nil
	}
	sf.calls.Add(1)
	if d := sf.fault.Latency; d > 0 {
		if err := sleepCtx(ctx, d); err != nil {
			return err
		}
	}
	if sf.fault.Hang {
		sf.injected.Add(1)
		if err := sleepCtx(ctx, MaxHang); err != nil {
			return err
		}
		return &InjectedError{Source: c.source, Reason: "hang"}
	}
	if n := sf.fault.BreakAfter; n > 0 && sf.calls.Load() > n {
		sf.injected.Add(1)
		c.defunct.Store(true)
		return &InjectedError{Source: c.source, Reason: "broken-conn"}
	}
	if sf.roll() {
		sf.injected.Add(1)
		return &InjectedError{Source: c.source, Reason: "error-rate"}
	}
	return nil
}

// sleepCtx sleeps d or until the context is done, returning its error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Query implements resource.Conn: hang and latency faults unblock when
// the caller's deadline or fail-fast cancellation fires.
func (c *faultConn) Query(ctx context.Context, sql string, args ...sqltypes.Value) (resource.ResultSet, error) {
	if err := c.apply(ctx); err != nil {
		return nil, err
	}
	return c.inner.Query(ctx, sql, args...)
}

// Exec implements resource.Conn.
func (c *faultConn) Exec(ctx context.Context, sql string, args ...sqltypes.Value) (resource.ExecResult, error) {
	if err := c.apply(ctx); err != nil {
		return resource.ExecResult{}, err
	}
	return c.inner.Exec(ctx, sql, args...)
}

// ExecBatch implements resource.BatchConn: the fault gauntlet runs once
// per batch (one acquire-sized unit of work), then the inner connection
// pipelines it if it can.
func (c *faultConn) ExecBatch(ctx context.Context, stmts []resource.Statement) ([]resource.ExecResult, error) {
	if err := c.apply(ctx); err != nil {
		return nil, &resource.BatchError{Index: 0, Err: err}
	}
	return resource.ExecBatch(ctx, c.inner, stmts)
}

// QueryBatch implements resource.BatchConn the same way.
func (c *faultConn) QueryBatch(ctx context.Context, stmts []resource.Statement) ([]resource.ResultSet, error) {
	if err := c.apply(ctx); err != nil {
		return nil, &resource.BatchError{Index: 0, Err: err}
	}
	return resource.QueryBatch(ctx, c.inner, stmts)
}

// Close implements resource.Conn.
func (c *faultConn) Close() error { return c.inner.Close() }

// Defunct implements resource.Defuncter: a break fault poisons the
// connection so the pool replaces it, and an inner transport failure
// propagates through.
func (c *faultConn) Defunct() bool {
	if c.defunct.Load() {
		return true
	}
	if d, ok := c.inner.(resource.Defuncter); ok {
		return d.Defunct()
	}
	return false
}
