// Package core is the kernel of the platform (paper Section III): it wires
// the SQL engine's five stages — parse, route, rewrite, execute, merge —
// into one pipeline, threads the three distributed-transaction types
// through it, and exposes the pluggable feature hooks (read-write
// splitting, encryption, shadow, …) that decorate each stage. Both
// adaptors — the embedded driver ("ShardingSphere-JDBC") and the network
// proxy ("ShardingSphere-Proxy") — are thin shells around this package.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shardingsphere/internal/admission"
	"shardingsphere/internal/chaos"
	"shardingsphere/internal/digest"
	"shardingsphere/internal/exec"
	"shardingsphere/internal/plancache"
	"shardingsphere/internal/registry"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/rewrite"
	"shardingsphere/internal/route"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/telemetry"
	"shardingsphere/internal/transaction"
)

// Errors returned by the kernel.
var (
	ErrInTransaction    = errors.New("core: already in a transaction")
	ErrNotQuery         = errors.New("core: statement returns no rows")
	ErrSourceDown       = errors.New("core: data source disabled by circuit breaker")
	ErrStatementTimeout = errors.New("core: statement timeout")
)

// Feature is the base of the pluggable feature SPI. Concrete features
// additionally implement one or more of StatementTransformer,
// SourceResolver and ResultDecorator; the kernel calls whichever hooks a
// feature provides, in registration order.
type Feature interface {
	Name() string
}

// StatementTransformer rewrites a statement before routing (e.g. the
// encrypt feature replaces plaintext literals with ciphertext).
type StatementTransformer interface {
	TransformStatement(stmt sqlparser.Statement, args []sqltypes.Value) (sqlparser.Statement, []sqltypes.Value, error)
}

// SourceResolver remaps a routed data source before execution (read-write
// splitting picks a replica for reads; shadow diverts test traffic).
type SourceResolver interface {
	ResolveSource(ds string, readOnly, inTx bool, stmt sqlparser.Statement) string
}

// ResultDecorator wraps the merged result before it reaches the client
// (encrypt decrypts selected columns).
type ResultDecorator interface {
	DecorateResult(stmt sqlparser.Statement, rs resource.ResultSet) (resource.ResultSet, error)
}

// SourceGate vetoes execution on a data source (circuit breaking).
type SourceGate interface {
	Allow(ds string) bool
}

// Config assembles a kernel.
type Config struct {
	Rules   *sharding.RuleSet
	Sources map[string]*resource.DataSource
	// MaxCon is the per-query connection budget per data source (paper
	// Section VI-D). Default 1.
	MaxCon int
	// Registry is the Governor's coordination store; nil for a private
	// in-memory one.
	Registry *registry.Registry
	// TxLog overrides the XA transaction log (default: registry-backed).
	TxLog transaction.LogStore
	// Features are the pluggable features, applied in order.
	Features []Feature
	// DefaultTxType is the initial distributed transaction type.
	DefaultTxType transaction.Type
}

// Kernel is one runtime instance shared by all sessions.
type Kernel struct {
	// rules is the published rule snapshot. A statement loads it once, when
	// it compiles; a published RuleSet is never edited. Publish is its one
	// writer, serialized by publishMu.
	rules     atomic.Pointer[sharding.RuleSet]
	publishMu sync.Mutex
	// persist, when set, saves each snapshot a change publishes (the
	// governor's registry).
	persist func(*sharding.RuleSet)

	router   *route.Router
	executor *exec.Executor
	txMgr    *transaction.Manager
	registry *registry.Registry
	features []Feature
	// gates is copy-on-write: AddGate swaps in a new slice while
	// concurrent statements iterate the old one lock-free.
	gates atomic.Pointer[[]SourceGate]

	// chaosInj is the kernel's fault-injection table (DistSQL INJECT
	// FAULT); it wires interceptors onto data sources on demand.
	chaosInj *chaos.Injector

	// admissionCtl is the frontend admission controller when a proxy
	// installed one (SHOW ADMISSION STATUS, admission quotas); nil for
	// embedded deployments with no frontend.
	admissionCtl atomic.Pointer[admission.Controller]

	// Fault-tolerance counters (Metrics' resilience.* family).
	failovers         atomic.Uint64
	failoverSuccess   atomic.Uint64
	statementTimeouts atomic.Uint64

	metaMu    sync.RWMutex
	metaCache map[string]tableMeta

	defaultTxType transaction.Type
	distSQL       DistSQLHandler

	// planCache is the shared shape table: each entry holds a shape's
	// statement digest and its compiled plan. With hasTransformers a plan
	// keeps only the parse: a statement-transforming feature's output is
	// compiled per execution.
	planCache       *plancache.Cache
	hasTransformers bool

	// tel is the always-on telemetry collector every statement feeds.
	tel *telemetry.Collector

	// workload is the heat/hot-key plane: the executor feeds heat, the
	// router feeds hot keys.
	workload *digest.Workload

	// metricSrcs are the counter families Metrics appends to the
	// collector's snapshot, by prefix (RegisterMetrics).
	metricsMu  sync.Mutex
	metricSrcs map[string]func() map[string]int64
}

type tableMeta struct {
	pk   []string
	cols []string
}

// New builds a kernel from the config. The kernel publishes its own clone
// of cfg.Rules: later edits to the caller's set do not reach it.
func New(cfg Config) (*Kernel, error) {
	rules := sharding.NewRuleSet()
	if cfg.Rules != nil {
		rules = cfg.Rules.Clone()
	}
	if len(cfg.Sources) == 0 {
		return nil, fmt.Errorf("core: at least one data source is required")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = registry.New()
	}
	var names []string
	for n := range cfg.Sources {
		names = append(names, n)
	}
	if rules.DefaultDataSource == "" {
		// Deterministic default: lexically smallest source.
		min := names[0]
		for _, n := range names[1:] {
			if n < min {
				min = n
			}
		}
		rules.DefaultDataSource = min
	}
	executor := exec.New(cfg.Sources, cfg.MaxCon)
	tel := telemetry.NewCollector()
	executor.SetTelemetry(tel)
	for name, src := range cfg.Sources {
		name := name
		src.SetAcquireObserver(func(wait time.Duration, timedOut bool) {
			tel.ObserveAcquire(name, wait, timedOut)
		})
	}
	k := &Kernel{
		executor:      executor,
		registry:      reg,
		features:      cfg.Features,
		chaosInj:      chaos.NewInjector(),
		metaCache:     map[string]tableMeta{},
		defaultTxType: cfg.DefaultTxType,
		tel:           tel,
	}
	k.rules.Store(rules)
	k.router = route.New(&k.rules, sortedNames(names))
	k.router.Columns = func(rule *sharding.TableRule) ([]string, error) {
		if len(rule.DataNodes) == 0 {
			return nil, fmt.Errorf("core: no data nodes for %s", rule.LogicTable)
		}
		first := rule.DataNodes[0]
		_, cols, err := k.TableMeta(first.DataSource, first.Table)
		return cols, err
	}
	k.planCache = plancache.New(0)
	for _, f := range cfg.Features {
		if _, ok := f.(StatementTransformer); ok {
			k.hasTransformers = true
		}
	}
	txLog := cfg.TxLog
	if txLog == nil {
		txLog = transaction.NewRegistryLog(reg, "/transactions")
	}
	k.txMgr = transaction.NewManager(executor, txLog, k)
	k.txMgr.SetTelemetry(tel)
	// Chaos can kill the 2PC coordinator at protocol points (INJECT FAULT
	// coordinator); with no fault applied the hook is a cheap no.
	k.txMgr.SetCrashHook(k.chaosInj.CoordinatorCrash)
	var gates []SourceGate
	for _, f := range cfg.Features {
		if g, ok := f.(SourceGate); ok {
			gates = append(gates, g)
		}
	}
	k.gates.Store(&gates)
	k.workload = digest.NewWorkload()
	executor.SetHeat(k.workload.Heat)
	k.metricSrcs = map[string]func() map[string]int64{
		"plan_cache": k.planCache.Metrics,
		"exec":       executor.Metrics,
		"txn":        k.txMgr.Metrics,
		"digest":     k.planCache.DigestMetrics,
		"heat":       k.workload.HeatMetrics,
		"chaos":      k.chaosInj.Metrics,
		"resilience": k.ResilienceMetrics,
		// A proxy installs its admission controller after New.
		"admission": func() map[string]int64 {
			if c := k.Admission(); c != nil {
				return c.Metrics()
			}
			return nil
		},
	}
	// Remote transports (mux sockets, streams, pipelined batches, row
	// batches); an embedded source reports none.
	for name, src := range cfg.Sources {
		k.metricSrcs["remote."+name] = src.AuxMetrics
	}
	return k, nil
}

func sortedNames(names []string) []string {
	out := append([]string(nil), names...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Rules returns the current rule snapshot. It is read-only: a change is
// made through Publish.
func (k *Kernel) Rules() *sharding.RuleSet { return k.rules.Load() }

// Publish is the one writer of the rule snapshot. Under one mutex it
// clones the current snapshot, applies change to the clone, stores it and
// invalidates every cached plan; a change that fails publishes nothing.
// change runs under that mutex, so it must not call Publish.
// With a nil change the same rules are published again, which makes every
// plan compiled before the call stale (DDL, a configuration push). A
// published change is persisted (SetRulePersister).
//
// The pointer is stored before the plan epoch moves, and a plan build
// reads the epoch before it loads the snapshot, so a build that races a
// publication is stamped stale.
func (k *Kernel) Publish(change func(*sharding.RuleSet) error) error {
	k.publishMu.Lock()
	defer k.publishMu.Unlock()
	next := k.rules.Load()
	if change != nil {
		next = next.Clone()
		if err := change(next); err != nil {
			return err
		}
	}
	k.rules.Store(next)
	k.planCache.Invalidate()
	if change != nil && k.persist != nil {
		k.persist(next)
	}
	return nil
}

// SetRulePersister installs the function that saves each snapshot a
// change publishes, in publication order. Call it before serving traffic.
func (k *Kernel) SetRulePersister(fn func(*sharding.RuleSet)) {
	k.publishMu.Lock()
	k.persist = fn
	k.publishMu.Unlock()
}

// Executor exposes the execution engine (used by features and DistSQL).
func (k *Kernel) Executor() *exec.Executor { return k.executor }

// Registry exposes the Governor's coordination store.
func (k *Kernel) Registry() *registry.Registry { return k.registry }

// TxManager exposes the distributed transaction manager.
func (k *Kernel) TxManager() *transaction.Manager { return k.txMgr }

// Router exposes the router.
func (k *Kernel) Router() *route.Router { return k.router }

// InvalidateMeta clears the table-metadata cache (after DDL). Cached plans
// depend on the same schema, so the same rules are published again.
func (k *Kernel) InvalidateMeta() {
	k.metaMu.Lock()
	k.metaCache = map[string]tableMeta{}
	k.metaMu.Unlock()
	k.Publish(nil)
}

// PlanCache exposes the shared shape table; DistSQL's SHOW STATEMENT
// DIGESTS and RESET DIGESTS use it.
func (k *Kernel) PlanCache() *plancache.Cache { return k.planCache }

// Telemetry exposes the statement telemetry collector (never nil).
func (k *Kernel) Telemetry() *telemetry.Collector { return k.tel }

// Workload exposes the heat/hot-key plane (never nil).
func (k *Kernel) Workload() *digest.Workload { return k.workload }

// SetHotKeyTracking switches the hot-key sketch on or off (SET VARIABLE
// hotkey_tracking). The router observer is installed only while
// tracking is on, so the disabled cost at route time is one atomic nil
// load.
func (k *Kernel) SetHotKeyTracking(on bool) {
	k.workload.SetHotKeyTracking(on)
	if on {
		t := k.workload.HotKeys()
		k.router.SetKeyObserver(func(table, column string, v sqltypes.Value) {
			t.Note(table, column, v.AsString())
		})
	} else {
		k.router.SetKeyObserver(nil)
	}
}

// dialectOf resolves a data source's SQL dialect (MySQL for unknown
// sources, matching the rewriter's historical default).
func (k *Kernel) dialectOf(ds string) sqlparser.Dialect {
	if src, err := k.executor.Source(ds); err == nil {
		return src.Dialect()
	}
	return sqlparser.DialectMySQL
}

// TableMeta implements transaction.MetaProvider: it resolves the primary
// key and columns of an actual table by asking the data source (DESCRIBE)
// and caches the answer — the kernel-side metadata service the Governor's
// configuration management keeps in real deployments.
func (k *Kernel) TableMeta(ds, table string) ([]string, []string, error) {
	key := ds + "." + table
	k.metaMu.RLock()
	m, ok := k.metaCache[key]
	k.metaMu.RUnlock()
	if ok {
		return m.pk, m.cols, nil
	}
	src, err := k.executor.Source(ds)
	if err != nil {
		return nil, nil, err
	}
	conn, err := src.Acquire()
	if err != nil {
		return nil, nil, err
	}
	defer conn.Release()
	rs, err := conn.Query(context.Background(), "DESCRIBE "+table)
	if err != nil {
		return nil, nil, err
	}
	rows, err := resource.ReadAll(rs)
	if err != nil {
		return nil, nil, err
	}
	// The names are cloned: a remote source's strings view the frame they
	// arrived in, and the cache keeps them as long as the table lives.
	var meta tableMeta
	for _, r := range rows {
		col := strings.Clone(r[0].AsString())
		meta.cols = append(meta.cols, col)
		if r[2].AsString() == "PRI" {
			meta.pk = append(meta.pk, col)
		}
	}
	k.metaMu.Lock()
	k.metaCache[key] = meta
	k.metaMu.Unlock()
	return meta.pk, meta.cols, nil
}

// AddGate installs a source gate at runtime; the governor registers its
// circuit breakers this way. Copy-on-write: concurrent statements keep
// iterating the previous gate slice unharmed.
func (k *Kernel) AddGate(g SourceGate) {
	for {
		old := k.gates.Load()
		next := make([]SourceGate, len(*old)+1)
		copy(next, *old)
		next[len(*old)] = g
		if k.gates.CompareAndSwap(old, &next) {
			return
		}
	}
}

// checkGates rejects units aimed at circuit-broken sources.
func (k *Kernel) checkGates(units []rewrite.SQLUnit) error {
	for _, g := range *k.gates.Load() {
		for _, u := range units {
			if !g.Allow(u.DataSource) {
				return fmt.Errorf("%w: %s", ErrSourceDown, u.DataSource)
			}
		}
	}
	return nil
}

// Features returns the registered pluggable features (DistSQL wiring
// walks it to find the read-write splitting feature for health events).
func (k *Kernel) Features() []Feature { return k.features }

// Chaos exposes the kernel's fault-injection table.
func (k *Kernel) Chaos() *chaos.Injector { return k.chaosInj }

// SetAdmission installs the proxy frontend's admission controller so
// DistSQL surfaces (SHOW ADMISSION STATUS, SET VARIABLE admission_quota)
// can reach it.
func (k *Kernel) SetAdmission(c *admission.Controller) { k.admissionCtl.Store(c) }

// Admission returns the installed admission controller, or nil.
func (k *Kernel) Admission() *admission.Controller { return k.admissionCtl.Load() }

// RegisterMetrics adds a counter family to Metrics: each counter src
// reports appears as "<prefix>.<name>". Registering a prefix again
// replaces its source.
func (k *Kernel) RegisterMetrics(prefix string, src func() map[string]int64) {
	k.metricsMu.Lock()
	k.metricSrcs[prefix] = src
	k.metricsMu.Unlock()
}

// Metrics is the process's one metrics snapshot: the telemetry
// collector's histograms and counters, then every registered counter
// family under its prefix, sorted by name. /metrics, SHOW METRICS and a
// proxy's FrameMetricsPull all render it.
func (k *Kernel) Metrics() *telemetry.MetricsSnapshot {
	snap := k.tel.MetricsSnapshot()
	k.metricsMu.Lock()
	for prefix, src := range k.metricSrcs {
		for name, v := range src() {
			snap.Counters = append(snap.Counters, telemetry.NamedCounter{Name: prefix + "." + name, Value: v})
		}
	}
	k.metricsMu.Unlock()
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	return snap
}

// ResilienceMetrics counts the kernel's failovers and statement
// timeouts; Metrics reports them under "resilience.".
func (k *Kernel) ResilienceMetrics() map[string]int64 {
	return map[string]int64{
		"failovers":          int64(k.failovers.Load()),
		"failover_success":   int64(k.failoverSuccess.Load()),
		"statement_timeouts": int64(k.statementTimeouts.Load()),
	}
}

// resolveSources applies SourceResolver features to every unit.
func (k *Kernel) resolveSources(units []rewrite.SQLUnit, readOnly, inTx bool, stmt sqlparser.Statement) {
	for _, f := range k.features {
		r, ok := f.(SourceResolver)
		if !ok {
			continue
		}
		for i := range units {
			units[i].DataSource = r.ResolveSource(units[i].DataSource, readOnly, inTx, stmt)
		}
	}
}
