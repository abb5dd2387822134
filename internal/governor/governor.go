// Package governor implements the Governor (paper Section V):
// configuration management — persisting data-source metadata and sharding
// rules in the coordination registry so every instance shares one
// configuration — and health detection — registering instances as
// ephemeral nodes, probing data sources periodically, and flipping
// circuit breakers so the cluster keeps working when a source dies.
package governor

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shardingsphere/internal/exec"
	"shardingsphere/internal/registry"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sharding"
)

// Paths in the registry.
const (
	rulesPath     = "/config/rules"
	bindingsPath  = "/config/bindings"
	broadcastPath = "/config/broadcast"
	defaultDSPath = "/config/default_datasource"
	configPath    = "/config"
	instancesPath = "/instances"
	statusPath    = "/status/sources"
)

// Governor manages configuration and health for one cluster.
type Governor struct {
	reg  *registry.Registry
	exec *exec.Executor

	mu        sync.Mutex
	breakers  map[string]*Breaker
	lastState map[string]bool
	listeners []func(ds string, up bool)
	stopCh    chan struct{}
	stopOnce  sync.Once

	probes        atomic.Int64
	probeFailures atomic.Int64

	// BreakThreshold consecutive probe failures open a source's breaker;
	// CoolDown is how long it stays open before a half-open retry.
	BreakThreshold int
	CoolDown       time.Duration
	// ProbeTimeout bounds one health probe, so a hung source cannot wedge
	// the health-check loop.
	ProbeTimeout time.Duration
}

// New builds a governor over the registry and executor.
func New(reg *registry.Registry, e *exec.Executor) *Governor {
	return &Governor{
		reg:            reg,
		exec:           e,
		breakers:       map[string]*Breaker{},
		lastState:      map[string]bool{},
		stopCh:         make(chan struct{}),
		BreakThreshold: 3,
		CoolDown:       5 * time.Second,
		ProbeTimeout:   time.Second,
	}
}

// --- configuration management (paper Section V-A) ---

// ruleConfig is the persisted form of an AutoTable rule.
type ruleConfig struct {
	Spec  sharding.AutoTableSpec `json:"spec"`
	Nodes []sharding.DataNode    `json:"nodes"`
}

// PersistRules stores the rule set in the registry. Only AutoTable rules
// (the DistSQL-managed kind) carry enough configuration to round-trip;
// programmatically built standard rules must be rebuilt by the embedding
// application.
func (g *Governor) PersistRules(rs *sharding.RuleSet) error {
	for name, rule := range rs.Tables {
		if rule.AutoSpec == nil {
			continue
		}
		data, err := json.Marshal(ruleConfig{Spec: *rule.AutoSpec, Nodes: rule.DataNodes})
		if err != nil {
			return err
		}
		g.reg.Put(rulesPath+"/"+name, string(data))
	}
	bindings, err := json.Marshal(rs.BindingGroups)
	if err != nil {
		return err
	}
	g.reg.Put(bindingsPath, string(bindings))
	var broadcast []string
	for t := range rs.Broadcast {
		broadcast = append(broadcast, t)
	}
	sort.Strings(broadcast)
	bc, err := json.Marshal(broadcast)
	if err != nil {
		return err
	}
	g.reg.Put(broadcastPath, string(bc))
	g.reg.Put(defaultDSPath, rs.DefaultDataSource)
	return nil
}

// DropRule removes one persisted rule.
func (g *Governor) DropRule(table string) {
	g.reg.Delete(rulesPath + "/" + strings.ToLower(table))
}

// LoadRules rebuilds a rule set from the registry.
func (g *Governor) LoadRules() (*sharding.RuleSet, error) {
	return LoadRules(g.reg)
}

// LoadRules rebuilds a rule set from a registry; instances use it at
// startup to adopt the cluster's shared configuration before their own
// governor exists.
func LoadRules(reg *registry.Registry) (*sharding.RuleSet, error) {
	rs := sharding.NewRuleSet()
	for path, raw := range reg.List(rulesPath) {
		var cfg ruleConfig
		if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
			return nil, fmt.Errorf("governor: bad rule at %s: %w", path, err)
		}
		rule, err := loadRule(cfg)
		if err != nil {
			return nil, fmt.Errorf("governor: bad rule at %s: %w", path, err)
		}
		rs.AddRule(rule)
	}
	if raw, _, err := reg.Get(bindingsPath); err == nil && raw != "" {
		var groups [][]string
		if err := json.Unmarshal([]byte(raw), &groups); err != nil {
			return nil, err
		}
		for _, grp := range groups {
			if len(grp) >= 2 {
				if err := rs.AddBindingGroup(grp...); err != nil {
					return nil, err
				}
			}
		}
	}
	if raw, _, err := reg.Get(broadcastPath); err == nil && raw != "" {
		var tables []string
		if err := json.Unmarshal([]byte(raw), &tables); err != nil {
			return nil, err
		}
		for _, t := range tables {
			rs.Broadcast[strings.ToLower(t)] = true
		}
	}
	if raw, _, err := reg.Get(defaultDSPath); err == nil {
		rs.DefaultDataSource = raw
	}
	return rs, nil
}

// loadRule rebuilds one persisted rule. Its data nodes are the persisted
// ones when present: a RESHARD lays a rule out on tables BuildAutoRule
// does not name.
func loadRule(cfg ruleConfig) (*sharding.TableRule, error) {
	rule, err := sharding.BuildAutoRule(cfg.Spec)
	if err != nil || len(cfg.Nodes) == 0 {
		return rule, err
	}
	if len(cfg.Nodes) != len(rule.DataNodes) {
		return nil, fmt.Errorf("%d data nodes for a sharding count of %d", len(cfg.Nodes), len(rule.DataNodes))
	}
	for _, n := range cfg.Nodes {
		if !slices.Contains(cfg.Spec.Resources, n.DataSource) {
			return nil, fmt.Errorf("data node %s is not on one of the rule's resources %v", n, cfg.Spec.Resources)
		}
	}
	rule.DataNodes = cfg.Nodes
	return rule, nil
}

// --- configuration watch (paper Section V-A, "dynamic configuration") ---

// WatchConfig invokes fn whenever any configuration key under /config
// changes — another instance altering rules, bindings or resources through
// the shared registry. The kernel hooks its plan-cache invalidation here so
// cluster-pushed changes drop stale plans on every instance, not just the
// one that ran the DistSQL. The returned cancel releases the watch.
func (g *Governor) WatchConfig(fn func()) (cancel func()) {
	ch, stop := g.reg.Watch(configPath)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range ch {
			fn()
		}
	}()
	return func() {
		stop()
		<-done
	}
}

// --- instance registration & health detection (paper Section V-B) ---

// RegisterInstance advertises a running instance (proxy or embedded
// driver) as an ephemeral node; it disappears when the session closes.
func (g *Governor) RegisterInstance(sess *registry.Session, id, kind string) error {
	_, err := g.reg.PutEphemeral(sess, instancesPath+"/"+id, kind)
	return err
}

// Instances lists the live instance ids.
func (g *Governor) Instances() []string {
	return g.reg.Children(instancesPath)
}

// breaker returns the per-source breaker, creating it lazily.
func (g *Governor) breaker(ds string) *Breaker {
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.breakers[ds]
	if !ok {
		b = &Breaker{threshold: g.BreakThreshold, coolDown: g.CoolDown}
		g.breakers[ds] = b
	}
	return b
}

// Allow implements the kernel's SourceGate: a statement may run on the
// source only while its breaker is closed.
func (g *Governor) Allow(ds string) bool {
	return g.breaker(ds).Allow()
}

// BreakSource manually opens (true) or closes (false) a source's circuit
// — the RAL circuit-breaking command.
func (g *Governor) BreakSource(ds string, open bool) {
	b := g.breaker(ds)
	b.Force(open)
	g.publishStatus(ds, !open)
}

// BreakerState reports one source's breaker position.
func (g *Governor) BreakerState(ds string) BreakerState {
	return g.breaker(ds).State()
}

// BreakerStates snapshots every source's breaker position, keyed by
// source name (SHOW STATUS rows). Dynamically created breakers — e.g.
// the "frontend" admission brake, which gates no data source — are
// included alongside the executor's sources.
func (g *Governor) BreakerStates() map[string]BreakerState {
	out := map[string]BreakerState{}
	for _, ds := range g.exec.Sources() {
		out[ds] = g.breaker(ds).State()
	}
	g.mu.Lock()
	for name, b := range g.breakers {
		if _, ok := out[name]; !ok {
			out[name] = b.State()
		}
	}
	g.mu.Unlock()
	return out
}

// AttachExecOutcomes feeds real execution outcomes into the breakers, so
// a source dying mid-traffic opens its circuit without waiting for the
// background prober. Classification: transient (infrastructure) failures
// count against the breaker; SQL errors prove the source is reachable
// and count as successes; context cancellation and deadline expiry say
// nothing about the source and are ignored. A breaker state flip
// publishes the health change synchronously, so subscribers (read-write
// splitting) re-route before the failing statement's retry loop runs.
func (g *Governor) AttachExecOutcomes() {
	g.exec.SetListener(func(ds, sql string, dur time.Duration, err error) {
		b := g.breaker(ds)
		before := b.State()
		switch {
		case err == nil:
			b.Observe(nil)
		case resource.IsTransient(err):
			b.Observe(err)
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return
		default:
			b.Observe(nil)
		}
		after := b.State()
		if before != after {
			g.publishStatus(ds, after == BreakerClosed)
		}
	})
}

// ResilienceMetrics reports the governor's fault-tolerance counters
// (DistSQL registers them with the kernel as "governor."): probes
// run/failed and per-source breaker
// transitions plus current state (0 closed, 1 open, 2 half-open).
func (g *Governor) ResilienceMetrics() map[string]int64 {
	out := map[string]int64{
		"probes":         g.probes.Load(),
		"probe_failures": g.probeFailures.Load(),
	}
	g.mu.Lock()
	names := make([]string, 0, len(g.breakers))
	bs := make([]*Breaker, 0, len(g.breakers))
	for ds, b := range g.breakers {
		names = append(names, ds)
		bs = append(bs, b)
	}
	g.mu.Unlock()
	for i, ds := range names {
		opens, closes := bs[i].transitions()
		out["breaker."+ds+".opens"] = opens
		out["breaker."+ds+".closes"] = closes
		out["breaker."+ds+".state"] = int64(bs[i].State())
	}
	return out
}

// probe checks one source with a trivial query, bounded by ProbeTimeout
// so a blackholed source cannot wedge the health-check loop.
func (g *Governor) probe(ds string) error {
	g.probes.Add(1)
	err := g.probeOnce(ds)
	if err != nil {
		g.probeFailures.Add(1)
	}
	return err
}

func (g *Governor) probeOnce(ds string) error {
	src, err := g.exec.Source(ds)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), g.ProbeTimeout)
	defer cancel()
	conn, err := src.AcquireCtx(ctx)
	if err != nil {
		return err
	}
	defer conn.Release()
	rs, err := conn.Query(ctx, "SELECT 1")
	if err != nil {
		return err
	}
	return rs.Close()
}

// Subscribe registers a callback invoked whenever a source's health flips
// (the paper's "Governor would change the configurations automatically" —
// e.g. the read-write splitting feature pulls dead replicas out of
// rotation through it).
func (g *Governor) Subscribe(fn func(ds string, up bool)) {
	g.mu.Lock()
	g.listeners = append(g.listeners, fn)
	g.mu.Unlock()
}

func (g *Governor) publishStatus(ds string, up bool) {
	status := "up"
	if !up {
		status = "down"
	}
	g.reg.Put(statusPath+"/"+ds, status)
	g.mu.Lock()
	prev, seen := g.lastState[ds]
	g.lastState[ds] = up
	listeners := append([]func(string, bool){}, g.listeners...)
	g.mu.Unlock()
	if !seen || prev != up {
		for _, fn := range listeners {
			fn(ds, up)
		}
	}
}

// CheckOnce probes every source once, updating breakers and published
// status; it returns the sources currently down. Reading State (not
// Allow) avoids consuming a half-open breaker's single probe slot —
// the health probe's own outcome already went through Observe.
func (g *Governor) CheckOnce() []string {
	var down []string
	for _, ds := range g.exec.Sources() {
		b := g.breaker(ds)
		err := g.probe(ds)
		b.Observe(err)
		up := b.State() == BreakerClosed && err == nil
		g.publishStatus(ds, up)
		if !up {
			down = append(down, ds)
		}
	}
	sort.Strings(down)
	return down
}

// StartHealthCheck launches the periodic health-detection loop.
func (g *Governor) StartHealthCheck(interval time.Duration) {
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				g.CheckOnce()
			case <-g.stopCh:
				return
			}
		}
	}()
}

// Stop terminates the health-check loop.
func (g *Governor) Stop() { g.stopOnce.Do(func() { close(g.stopCh) }) }

// SourceStatus reads the published status of a source.
func (g *Governor) SourceStatus(ds string) string {
	v, _, err := g.reg.Get(statusPath + "/" + ds)
	if err != nil {
		return "unknown"
	}
	return v
}

// --- circuit breaker ---

// BreakerState is a circuit breaker's position in the three-state
// machine.
type BreakerState int

const (
	// BreakerClosed passes all traffic (healthy source).
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects all traffic until the cool-down elapses.
	BreakerOpen
	// BreakerHalfOpen admits exactly one probe; its outcome decides
	// between closing and re-opening.
	BreakerHalfOpen
)

// String renders the state for status surfaces.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is a per-source circuit breaker: threshold consecutive
// transient failures open it; after coolDown it half-opens and admits
// exactly one probe — success closes it, failure re-opens it
// immediately. Admitting only one probe avoids the thundering herd where
// every queued statement stampedes a source the instant the cool-down
// elapses.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	coolDown  time.Duration
	failures  int
	openedAt  time.Time
	state     BreakerState
	probing   bool      // a half-open probe is in flight
	probeAt   time.Time // when it was admitted (stuck-probe escape)
	forced    bool
	opens     int64
	closes    int64
}

// Allow reports whether traffic may pass, claiming the single half-open
// probe slot when the cool-down has elapsed. The caller that wins the
// slot must report its outcome via Observe or the slot stays claimed for
// one cool-down period (the stuck-probe escape).
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.forced {
		return false
	}
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if time.Since(b.openedAt) < b.coolDown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		b.probeAt = time.Now()
		return true
	default: // half-open
		if b.probing && time.Since(b.probeAt) < b.coolDown {
			return false
		}
		b.probing = true
		b.probeAt = time.Now()
		return true
	}
}

// Observe records a probe or execution outcome.
func (b *Breaker) Observe(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		b.failures = 0
		b.probing = false
		if b.state != BreakerClosed {
			b.closes++
		}
		b.state = BreakerClosed
		return
	}
	if b.state == BreakerHalfOpen {
		// The probe failed: straight back to open, full cool-down.
		b.state = BreakerOpen
		b.openedAt = time.Now()
		b.probing = false
		b.failures = b.threshold
		b.opens++
		return
	}
	b.failures++
	if b.failures >= b.threshold && b.state == BreakerClosed {
		b.state = BreakerOpen
		b.openedAt = time.Now()
		b.opens++
	}
}

// Force opens (true) or releases (false) the breaker manually.
func (b *Breaker) Force(open bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.forced = open
	if !open {
		b.failures = 0
		b.state = BreakerClosed
		b.probing = false
	}
}

// State returns the breaker's position; a forced breaker reads as open.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.forced {
		return BreakerOpen
	}
	return b.state
}

// transitions returns the lifetime open/close counts.
func (b *Breaker) transitions() (opens, closes int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens, b.closes
}

// --- throttling ---

// RateLimiter is a token-bucket limiter; the proxy throttles inbound
// statements with it (paper Section IV-C, "Throttling").
type RateLimiter struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

// NewRateLimiter builds a limiter admitting rate ops/second with the
// given burst.
func NewRateLimiter(rate float64, burst int) *RateLimiter {
	return &RateLimiter{rate: rate, burst: float64(burst), tokens: float64(burst), last: time.Now()}
}

// Acquire takes one token, reporting whether the call is admitted.
func (l *RateLimiter) Acquire() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := time.Now()
	l.tokens += now.Sub(l.last).Seconds() * l.rate
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	l.last = now
	if l.tokens < 1 {
		return false
	}
	l.tokens--
	return true
}
