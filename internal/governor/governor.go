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

	"shardingsphere/internal/registry"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sharding"
)

// Paths in the registry.
const (
	rulesDocPath  = "/config/rules"
	instancesPath = "/instances"
)

// Governor manages configuration and health for one cluster. A source's
// health is its breaker, and nothing else: the kernel asks it before a
// statement runs (Admit), the executor reports every unit's outcome to it
// (Breaker.Report), and the health-check loop's probes are one more
// outcome.
type Governor struct {
	reg     *registry.Registry
	sources map[string]*resource.DataSource
	// breakers holds one breaker per source. It is fixed at New and only
	// read afterwards, so it needs no lock.
	breakers map[string]*Breaker
	// disturbed counts the breakers whose disturbed flag is set (Calm).
	disturbed atomic.Int32

	// stopped, cancelled by Stop, ends the health-check loop and its probe
	// in flight; loop counts the running loops Stop waits for.
	stopped context.Context
	stop    context.CancelFunc
	loop    sync.WaitGroup

	probes        atomic.Int64
	probeFailures atomic.Int64

	// BreakThreshold consecutive failures open a source's breaker;
	// CoolDown is how long it stays open before a half-open retry.
	BreakThreshold int
	CoolDown       time.Duration
	// ProbeTimeout bounds one health probe, so a hung source cannot wedge
	// the health-check loop.
	ProbeTimeout time.Duration
}

// New builds a governor over the registry and the data sources, with one
// closed breaker per source.
func New(reg *registry.Registry, sources map[string]*resource.DataSource) *Governor {
	g := &Governor{
		reg:            reg,
		sources:        sources,
		breakers:       make(map[string]*Breaker, len(sources)),
		BreakThreshold: 3,
		CoolDown:       5 * time.Second,
		ProbeTimeout:   time.Second,
	}
	for ds := range sources {
		g.breakers[ds] = &Breaker{g: g}
	}
	g.stopped, g.stop = context.WithCancel(context.Background())
	return g
}

// --- configuration management (paper Section V-A) ---

// rulesDoc is the one persisted configuration document: the rule
// snapshot's persistable part. Only AutoTable rules carry enough
// configuration to round-trip; programmatically built standard rules stay
// with the instance that built them.
type rulesDoc struct {
	Rules     []ruleConfig                  `json:"rules"`
	Bindings  [][]string                    `json:"bindings"`
	Broadcast []string                      `json:"broadcast"`
	Default   string                        `json:"default_datasource"`
	Defs      map[string]*sharding.TableDef `json:"definitions"`
}

// ruleConfig is the persisted form of an AutoTable rule.
type ruleConfig struct {
	Spec  sharding.AutoTableSpec `json:"spec"`
	Nodes []sharding.DataNode    `json:"nodes"`
}

// SaveRules writes the rule set as the configuration document's next
// version, on the version the set was read at (rs.Version), and returns
// the new version; it fails with registry.ErrVersionConflict when another
// instance wrote first.
func (g *Governor) SaveRules(rs *sharding.RuleSet) (int64, error) {
	doc := rulesDoc{Bindings: rs.BindingGroups, Default: rs.DefaultDataSource, Defs: rs.Defs}
	for _, rule := range rs.Tables {
		if rule.AutoSpec != nil {
			doc.Rules = append(doc.Rules, ruleConfig{Spec: *rule.AutoSpec, Nodes: rule.DataNodes})
		}
	}
	slices.SortFunc(doc.Rules, func(a, b ruleConfig) int { return strings.Compare(a.Spec.LogicTable, b.Spec.LogicTable) })
	for t := range rs.Broadcast {
		doc.Broadcast = append(doc.Broadcast, t)
	}
	slices.Sort(doc.Broadcast)
	data, err := json.Marshal(doc)
	if err != nil {
		return 0, err
	}
	return g.reg.CompareAndPut(rulesDocPath, string(data), rs.Version)
}

// LoadRules rebuilds the rule set of the stored configuration document,
// at its version: an empty set at version 0 when there is none.
func (g *Governor) LoadRules() (*sharding.RuleSet, error) {
	rs := sharding.NewRuleSet()
	raw, version, err := g.reg.Get(rulesDocPath)
	if errors.Is(err, registry.ErrNotFound) {
		return rs, nil
	}
	var doc rulesDoc
	if err == nil {
		err = json.Unmarshal([]byte(raw), &doc)
	}
	if err != nil {
		return nil, fmt.Errorf("governor: bad configuration at %s: %w", rulesDocPath, err)
	}
	for _, cfg := range doc.Rules {
		rule, err := loadRule(cfg)
		if err != nil {
			return nil, fmt.Errorf("governor: bad rule %s: %w", cfg.Spec.LogicTable, err)
		}
		rs.AddRule(rule)
	}
	rs.BindingGroups = doc.Bindings
	for _, t := range doc.Broadcast {
		rs.Broadcast[t] = true
	}
	rs.DefaultDataSource = doc.Default
	if doc.Defs != nil {
		rs.Defs = doc.Defs
	}
	rs.Version = version
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

// WatchConfig invokes fn after each write of the configuration document,
// in write order: an instance's own writes and every other instance's. A
// kernel adopts the document when it is newer than its snapshot (core's
// Adopt). The returned cancel releases the watch.
func (g *Governor) WatchConfig(fn func()) (cancel func()) {
	ch, stop := g.reg.Watch(rulesDocPath)
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
func (g *Governor) RegisterInstance(sess *registry.Session, id string) error {
	_, err := g.reg.PutEphemeral(sess, instancesPath+"/"+id, "")
	return err
}

// Instances lists the live instance ids.
func (g *Governor) Instances() []string {
	return g.reg.Children(instancesPath)
}

// Calm reports whether every breaker is closed, unforced and counting no
// failure: then every statement passes and a success changes nothing, so
// the kernel's check and the executor's report of a success are this one
// atomic load.
func (g *Governor) Calm() bool { return g.disturbed.Load() == 0 }

// Breaker returns ds's breaker, or nil when ds is not a source.
func (g *Governor) Breaker(ds string) *Breaker { return g.breakers[ds] }

// Ready reports whether ds's breaker would admit a statement now, without
// claiming its probe slot: read-write splitting asks it to pick a replica,
// and Admit claims the slot when the resolved statement runs. A name that
// is not a source reads ready, as Admit lets it pass.
func (g *Governor) Ready(ds string) bool {
	b := g.breakers[ds]
	if b == nil || !b.disturbed.Load() {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ready()
}

// Admit asks the breaker of each named source once whether a statement
// may run there, and returns the first that refuses. A refused statement
// gives back the probe slots it claimed on the others, so it leaves every
// breaker as it found it. A name that is not a source passes: the
// executor refuses it.
func (g *Governor) Admit(sources []string) (refused string, ok bool) {
	var buf [8]*Breaker
	claimed := buf[:0]
	for _, ds := range sources {
		b := g.breakers[ds]
		if b == nil {
			continue
		}
		ok, claim := b.allow()
		if !ok {
			for _, c := range claimed {
				c.release()
			}
			return ds, false
		}
		if claim {
			claimed = append(claimed, b)
		}
	}
	return "", true
}

// BreakSource manually opens (true) or closes (false) a source's circuit:
// the RAL circuit-breaking command. A name that is not a source is
// refused with the names that are.
func (g *Governor) BreakSource(ds string, open bool) error {
	b := g.breakers[ds]
	if b == nil {
		names := make([]string, 0, len(g.breakers))
		for n := range g.breakers {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("governor: %q is not a data source; the data sources are %s", ds, strings.Join(names, ", "))
	}
	b.force(open)
	return nil
}

// BreakerStates snapshots every source's breaker position, keyed by
// source name (SHOW STATUS rows).
func (g *Governor) BreakerStates() map[string]BreakerState {
	out := make(map[string]BreakerState, len(g.breakers))
	for ds, b := range g.breakers {
		out[ds] = b.State()
	}
	return out
}

// ResilienceMetrics reports the governor's fault-tolerance counters (the
// kernel's metrics snapshot reports them under "governor."): probes
// run/failed and per-source breaker transitions plus current state (0
// closed, 1 open, 2 half-open).
func (g *Governor) ResilienceMetrics() map[string]int64 {
	out := map[string]int64{
		"probes":         g.probes.Load(),
		"probe_failures": g.probeFailures.Load(),
	}
	for ds, b := range g.breakers {
		opens, closes := b.transitions()
		out["breaker."+ds+".opens"] = opens
		out["breaker."+ds+".closes"] = closes
		out["breaker."+ds+".state"] = int64(b.State())
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
	ctx, cancel := context.WithTimeout(g.stopped, g.ProbeTimeout)
	defer cancel()
	conn, err := g.sources[ds].AcquireCtx(ctx)
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

// CheckOnce probes every source once and reports each probe's outcome to
// the source's breaker. A probe's failure always counts, a timeout
// included. A stopped governor checks nothing: a probe Stop cancelled says
// nothing of its source.
func (g *Governor) CheckOnce() {
	for ds, b := range g.breakers {
		err := g.probe(ds)
		if g.stopped.Err() != nil {
			return
		}
		b.observe(err)
	}
}

// StartHealthCheck launches the periodic health-detection loop, which
// Stop ends.
func (g *Governor) StartHealthCheck(interval time.Duration) {
	g.loop.Add(1)
	go func() {
		defer g.loop.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				g.CheckOnce()
			case <-g.stopped.Done():
				return
			}
		}
	}()
}

// Stop ends the health-check loop, cancelling its probe in flight, and
// returns once the loop has returned, so no probe outlives it.
func (g *Governor) Stop() {
	g.stop()
	g.loop.Wait()
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

// Breaker is a source's circuit breaker: its governor's BreakThreshold
// consecutive failures open it; after the CoolDown it half-opens and
// admits exactly one probe statement: success closes it, failure re-opens
// it at once. Admitting only one probe avoids the thundering herd where
// every queued statement stampedes a source the instant the cool-down
// elapses. Read-write splitting reads it to pick a replica (Ready).
type Breaker struct {
	g *Governor
	// disturbed is false exactly while the breaker is closed, not forced
	// and counts no failure: then a statement passes and a success changes
	// nothing, so both read this alone. Every other path takes mu and
	// stores it again.
	disturbed atomic.Bool

	mu       sync.Mutex
	failures int
	open     bool
	openedAt time.Time
	probing  bool      // the half-open probe slot is claimed
	probeAt  time.Time // when it was claimed (stuck-probe escape)
	forced   bool
	opens    int64
	closes   int64
}

// ready reports whether a statement may run on the source: the breaker is
// closed and not forced, or open with its cool-down passed and its probe
// slot free or claimed longer than a cool-down ago (the stuck-probe
// escape). The caller holds mu.
func (b *Breaker) ready() bool {
	switch {
	case b.forced:
		return false
	case !b.open:
		return true
	case b.probing:
		return time.Since(b.probeAt) >= b.g.CoolDown
	}
	return time.Since(b.openedAt) >= b.g.CoolDown
}

// allow reports whether a statement may run on the source (ready), and
// whether it claimed the half-open probe slot to do so. Past an open
// breaker's cool-down exactly one caller claims the slot; it must report
// an outcome or release the slot, or the slot stays claimed for one
// cool-down.
func (b *Breaker) allow() (ok, claimed bool) {
	if !b.disturbed.Load() {
		return true, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.ready() {
		return false, false
	}
	if !b.open {
		return true, false
	}
	b.probing, b.probeAt = true, time.Now()
	return true, true
}

// release gives back a probe slot allow claimed for a statement that did
// not run.
func (b *Breaker) release() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// Report records one unit's outcome. A transient (infrastructure) failure
// counts against the breaker; an SQL error proves the source reachable and
// counts as a success; a cancellation or deadline says nothing of the
// source and is ignored.
func (b *Breaker) Report(err error) {
	switch {
	case err == nil:
		if b.disturbed.Load() {
			b.observe(nil)
		}
	case resource.IsTransient(err):
		b.observe(err)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
	default:
		b.observe(nil)
	}
}

// observe records an outcome as it is: a probe's, or a unit's Report
// classified.
func (b *Breaker) observe(err error) {
	b.change(func() {
		switch {
		case err == nil:
			if b.open {
				b.closes++
			}
			b.failures, b.open, b.probing = 0, false, false
		case b.open && b.probing:
			// The probe failed: straight back to open, full cool-down.
			b.openedAt, b.probing = time.Now(), false
			b.opens++
		case !b.open:
			b.failures++
			if b.failures >= b.g.BreakThreshold {
				b.open, b.openedAt = true, time.Now()
				b.opens++
			}
		}
	})
}

// force opens (true) or releases (false) the breaker manually; a released
// breaker is closed. The move counts as a failure's or a probe's does:
// forcing a breaker that read closed or half-open is an open, releasing
// one that read open or half-open a close.
func (b *Breaker) force(open bool) {
	b.change(func() {
		switch st := b.state(); {
		case open && st != BreakerOpen:
			b.opens++
		case !open && st != BreakerClosed:
			b.closes++
		}
		b.forced = open
		if !open {
			b.failures, b.open, b.probing = 0, false, false
		}
	})
}

// change applies f under the breaker's lock and keeps disturbed and the
// governor's count of it current.
func (b *Breaker) change(f func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	f()
	if d := b.forced || b.open || b.failures > 0; d != b.disturbed.Load() {
		b.disturbed.Store(d)
		if d {
			b.g.disturbed.Add(1)
		} else {
			b.g.disturbed.Add(-1)
		}
	}
}

// State returns the breaker's position; a forced breaker reads as open.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state()
}

// state is State for a caller holding b.mu.
func (b *Breaker) state() BreakerState {
	switch {
	case b.forced || b.open && !b.probing:
		return BreakerOpen
	case b.open:
		return BreakerHalfOpen
	}
	return BreakerClosed
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
