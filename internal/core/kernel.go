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
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shardingsphere/internal/admission"
	"shardingsphere/internal/chaos"
	"shardingsphere/internal/digest"
	"shardingsphere/internal/exec"
	"shardingsphere/internal/governor"
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
	// ErrTxAborted answers every statement but ROLLBACK, COMMIT included,
	// in a transaction a failed statement left rollback-only: one of its
	// branches could not be undone to the statement's start, or is lost.
	ErrTxAborted = errors.New("core: transaction is rollback-only; only ROLLBACK is accepted")
	// ErrSavepointUnsupported refuses a client's SAVEPOINT and ROLLBACK TO
	// before anything is sent.
	ErrSavepointUnsupported = errors.New("core: SAVEPOINT and ROLLBACK TO are not supported")
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
// splitting picks a replica whose breaker is ready in gov for reads;
// shadow diverts test traffic).
type SourceResolver interface {
	ResolveSource(ds string, readOnly, inTx bool, stmt sqlparser.Statement, gov *governor.Governor) string
}

// ResultDecorator wraps the merged result before it reaches the client
// (encrypt decrypts selected columns).
type ResultDecorator interface {
	DecorateResult(stmt sqlparser.Statement, rs resource.ResultSet) (resource.ResultSet, error)
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
	// Features are the pluggable features, applied in order.
	Features []Feature
	// DefaultTxType is the initial distributed transaction type.
	DefaultTxType transaction.Type
}

// RuleStore keeps the persistable part of the rule snapshot as one
// versioned document (the governor's registry).
type RuleStore interface {
	// SaveRules writes rs as the document's next version on rs.Version, the
	// version rs was read at, and returns the new version. It fails with
	// registry.ErrVersionConflict when another instance wrote first.
	SaveRules(rs *sharding.RuleSet) (int64, error)
	// LoadRules reads the stored document at its version: an empty set at
	// version 0 when there is none.
	LoadRules() (*sharding.RuleSet, error)
}

// Kernel is one runtime instance shared by all sessions.
type Kernel struct {
	// rules is the published rule snapshot, catalog included. A statement
	// loads it once, compiles against it and finds a kept plan current only
	// if it was stamped with it; a published RuleSet is never edited.
	// Publish is its one writer, serialized by publishMu.
	rules     atomic.Pointer[sharding.RuleSet]
	publishMu sync.Mutex
	// store, when set, is the snapshot's source of truth: a change is
	// written there before it is published (SetRuleStore).
	store RuleStore

	router   *route.Router
	executor *exec.Executor
	txMgr    *transaction.Manager
	registry *registry.Registry
	features []Feature
	// gov holds each source's breaker: every statement asks it before a
	// unit is sent (checkGates), and the executor reports every unit to it.
	gov *governor.Governor

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

	defaultTxType transaction.Type
	distSQL       DistSQLHandler

	// planCache is the shared shape table: each entry holds a shape's
	// statement digest and its compiled plan. With hasTransformers a plan
	// keeps only the parse: a statement-transforming feature's output is
	// compiled per execution.
	planCache       *plancache.Cache
	hasTransformers bool
	// hasResolvers: a feature may move units off their routed sources
	// (SourceResolver), so a failover must first put them back.
	hasResolvers bool

	// tel is the always-on telemetry collector every statement feeds.
	tel *telemetry.Collector

	// workload is the heat/hot-key plane: the executor feeds heat, the
	// router feeds hot keys.
	workload *digest.Workload

	// metricSrcs are the counter families Metrics appends to the
	// collector's snapshot, by prefix. It is fixed at New.
	metricSrcs map[string]func() map[string]int64
}

// New builds a kernel from the config. The kernel publishes its own clone
// of cfg.Rules: later edits to the caller's set do not reach it. Its
// governor keeps one breaker per source over cfg.Registry; a
// SourceResolver reads those breakers on every resolve.
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
	names := make([]string, 0, len(cfg.Sources))
	for n := range cfg.Sources {
		names = append(names, n)
	}
	slices.Sort(names)
	if rules.DefaultDataSource == "" {
		// Deterministic default: lexically smallest source.
		rules.DefaultDataSource = names[0]
	}
	gov := governor.New(reg, cfg.Sources)
	tel := telemetry.NewCollector()
	workload := digest.NewWorkload()
	executor := exec.New(cfg.Sources, cfg.MaxCon, gov, tel, workload.Heat)
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
		gov:           gov,
		chaosInj:      chaos.NewInjector(),
		defaultTxType: cfg.DefaultTxType,
		tel:           tel,
		workload:      workload,
	}
	k.rules.Store(rules)
	k.router = route.New(&k.rules, names)
	k.planCache = plancache.New(0)
	for _, f := range cfg.Features {
		if _, ok := f.(StatementTransformer); ok {
			k.hasTransformers = true
		}
		if _, ok := f.(SourceResolver); ok {
			k.hasResolvers = true
		}
	}
	k.txMgr = transaction.NewManager(executor, transaction.NewRegistryLog(reg, "/transactions"), k)
	// Chaos can kill the 2PC coordinator at protocol points (INJECT FAULT
	// coordinator); with no fault applied the hook is a cheap no.
	k.txMgr.SetCrashHook(k.chaosInj.CoordinatorCrash)
	k.metricSrcs = map[string]func() map[string]int64{
		"plan_cache": k.planCache.Metrics,
		"exec":       executor.Metrics,
		"txn":        k.txMgr.Metrics,
		"digest":     k.planCache.DigestMetrics,
		"heat":       k.workload.HeatMetrics,
		"chaos":      k.chaosInj.Metrics,
		"resilience": k.ResilienceMetrics,
		"governor":   gov.ResilienceMetrics,
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

// Rules returns the current rule snapshot. It is read-only: a change is
// made through Publish.
func (k *Kernel) Rules() *sharding.RuleSet { return k.rules.Load() }

// Publish is the one writer of the rule snapshot. Under one mutex it
// clones the current snapshot, applies change to the clone and stores it;
// a change that fails publishes nothing. change runs under that mutex, so
// it must not call Publish. Every kept plan is stamped with the snapshot it
// was compiled against, so each publication makes all of them stale. With
// a nil change the clone is published as it is and nothing is written to
// the rule store.
//
// With a rule store the changed clone is written there first, on the
// version the snapshot was read at. When another instance wrote first, the
// kernel adopts the newer version and applies change to it again, so
// change may run more than once.
func (k *Kernel) Publish(change func(*sharding.RuleSet) error) error {
	k.publishMu.Lock()
	defer k.publishMu.Unlock()
	for {
		next := k.rules.Load().Clone()
		if change != nil {
			if err := change(next); err != nil {
				return err
			}
			if k.store != nil {
				v, err := k.store.SaveRules(next)
				if errors.Is(err, registry.ErrVersionConflict) {
					if _, err = k.adoptLocked(); err != nil {
						return err
					}
					continue
				}
				if err != nil {
					return err
				}
				next.Version = v
			}
		}
		k.rules.Store(next)
		return nil
	}
}

// SetRuleStore makes store the rule snapshot's source of truth: the kernel
// adopts the stored document, or writes its own snapshot as the first
// version when there is none. Call it before serving traffic.
func (k *Kernel) SetRuleStore(store RuleStore) error {
	k.publishMu.Lock()
	k.store = store
	adopted, err := k.adoptLocked()
	k.publishMu.Unlock()
	if adopted || err != nil {
		return err
	}
	return k.Publish(func(*sharding.RuleSet) error { return nil })
}

// Adopt publishes the rule store's document when its version is newer than
// the snapshot's; the store's change watch calls it, and a kernel's own
// writes are not newer.
func (k *Kernel) Adopt() error {
	k.publishMu.Lock()
	defer k.publishMu.Unlock()
	if k.store == nil {
		return nil
	}
	_, err := k.adoptLocked()
	return err
}

// adoptLocked publishes the store's document if it is newer than the
// snapshot, reporting whether it was. A rule whose persisted form, its
// AutoTable spec and data nodes, did not change stays the same
// *TableRule, so a pointer comparison across the adoption holds (RESHARD's
// switch); a rule with no spec is this kernel's own and stays.
func (k *Kernel) adoptLocked() (bool, error) {
	doc, err := k.store.LoadRules()
	if err != nil {
		return false, err
	}
	cur := k.rules.Load()
	if doc.Version <= cur.Version {
		return false, nil
	}
	for name, r := range cur.Tables {
		d, ok := doc.Tables[name]
		if !ok && r.AutoSpec == nil || ok && r.AutoSpec != nil && d.AutoSpec != nil &&
			r.AutoSpec.Equal(d.AutoSpec) && slices.Equal(r.DataNodes, d.DataNodes) {
			doc.Tables[name] = r
		}
	}
	k.rules.Store(doc)
	return true, nil
}

// Executor exposes the execution engine (used by features and DistSQL).
func (k *Kernel) Executor() *exec.Executor { return k.executor }

// Governor exposes the kernel's governor: the sources' breakers, the
// health-check loop and the registry's configuration document.
func (k *Kernel) Governor() *governor.Governor { return k.gov }

// Registry exposes the Governor's coordination store.
func (k *Kernel) Registry() *registry.Registry { return k.registry }

// TxManager exposes the distributed transaction manager.
func (k *Kernel) TxManager() *transaction.Manager { return k.txMgr }

// Router exposes the router.
func (k *Kernel) Router() *route.Router { return k.router }

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

// TableMeta implements transaction.MetaProvider: the primary key and
// columns of an actual table, from the catalog's definition of the logic
// table that owns it.
func (k *Kernel) TableMeta(ds, table string) ([]string, []string, error) {
	def, err := k.Definition(k.Rules().LogicOf(sharding.DataNode{DataSource: ds, Table: table}))
	if err != nil {
		return nil, nil, err
	}
	return def.PrimaryKey, def.Columns.Names(), nil
}

// Definition returns a logic table's definition from the catalog. One the
// catalog lacks is learned, the one way it is: DESCRIBEd on the table's
// first data node and published.
func (k *Kernel) Definition(table string) (*sharding.TableDef, error) {
	if def := k.Rules().Def(table); def != nil {
		return def, nil
	}
	def, err := k.describe(k.Rules().FirstNode(table))
	if err != nil {
		return nil, err
	}
	return def, k.Publish(func(rs *sharding.RuleSet) error { rs.Define(table, def); return nil })
}

// describe reads one data node's table definition with DESCRIBE, each
// column's kind as the node names it (KindNull for a name sqltypes.KindOf
// does not read). The names are cloned: a remote source's strings view the
// frame they arrived in, and the catalog keeps them.
func (k *Kernel) describe(node sharding.DataNode) (*sharding.TableDef, error) {
	_, rows, err := k.QueryNode(node.DataSource, "DESCRIBE "+node.Table)
	if err != nil {
		return nil, err
	}
	def := &sharding.TableDef{}
	for _, r := range rows {
		col := strings.Clone(r[0].AsString())
		def.Columns = append(def.Columns, sqltypes.Column{Name: col, Type: sqltypes.KindOf(r[1].AsString())})
		if r[2].AsString() == "PRI" {
			def.PrimaryKey = append(def.PrimaryKey, col)
		}
	}
	return def, nil
}

// QueryNode runs one statement on a data source, outside any session and
// transaction, and reads its whole answer: its columns and rows.
func (k *Kernel) QueryNode(ds, sql string, args ...sqltypes.Value) ([]string, []sqltypes.Row, error) {
	src, err := k.executor.Source(ds)
	if err != nil {
		return nil, nil, err
	}
	conn, err := src.Acquire()
	if err != nil {
		return nil, nil, err
	}
	defer conn.Release()
	rs, err := conn.Query(context.Background(), sql, args...)
	if err != nil {
		return nil, nil, err
	}
	rows, err := resource.ReadAll(rs)
	return rs.Columns(), rows, err
}

// catalogDDL keeps the catalog current after a DDL this kernel routed, in
// one publication: CREATE TABLE records what DESCRIBE reads on the table's
// first data node (so IF NOT EXISTS records what exists), DROP TABLE
// removes the definition. Other DDL changes no definition.
func (k *Kernel) catalogDDL(stmt sqlparser.Statement) error {
	var table string
	var def *sharding.TableDef
	switch t := stmt.(type) {
	case *sqlparser.CreateTableStmt:
		// A table DESCRIBE cannot read is learned at its next compile.
		table = t.Table
		def, _ = k.describe(k.Rules().FirstNode(table))
	case *sqlparser.DropTableStmt:
		table = t.Table
	default:
		return nil
	}
	return k.Publish(func(rs *sharding.RuleSet) error { rs.Define(table, def); return nil })
}

// checkGates asks the breaker of each source the units touch, once per
// source, whether the statement may run (Governor.Admit).
func (k *Kernel) checkGates(units []rewrite.SQLUnit) error {
	if k.gov.Calm() {
		return nil
	}
	var buf [8]string
	sources := buf[:0]
next:
	for i := range units {
		for _, ds := range sources {
			if ds == units[i].DataSource {
				continue next
			}
		}
		sources = append(sources, units[i].DataSource)
	}
	if ds, ok := k.gov.Admit(sources); !ok {
		return fmt.Errorf("%w: %s", ErrSourceDown, ds)
	}
	return nil
}

// Chaos exposes the kernel's fault-injection table.
func (k *Kernel) Chaos() *chaos.Injector { return k.chaosInj }

// SetAdmission installs the proxy frontend's admission controller so
// DistSQL surfaces (SHOW ADMISSION STATUS, SET VARIABLE admission_quota)
// can reach it.
func (k *Kernel) SetAdmission(c *admission.Controller) { k.admissionCtl.Store(c) }

// Admission returns the installed admission controller, or nil.
func (k *Kernel) Admission() *admission.Controller { return k.admissionCtl.Load() }

// Metrics is the process's one metrics snapshot: the telemetry
// collector's histograms and counters, then every registered counter
// family under its prefix, sorted by name. /metrics, SHOW METRICS and a
// proxy's FrameMetricsPull all render it.
func (k *Kernel) Metrics() *telemetry.MetricsSnapshot {
	snap := k.tel.MetricsSnapshot()
	for prefix, src := range k.metricSrcs {
		for name, v := range src() {
			snap.Counters = append(snap.Counters, telemetry.NamedCounter{Name: prefix + "." + name, Value: v})
		}
	}
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

// resolveSources applies SourceResolver features to every unit, over the
// kernel's breakers.
func (k *Kernel) resolveSources(units []rewrite.SQLUnit, readOnly, inTx bool, stmt sqlparser.Statement) {
	for _, f := range k.features {
		r, ok := f.(SourceResolver)
		if !ok {
			continue
		}
		for i := range units {
			units[i].DataSource = r.ResolveSource(units[i].DataSource, readOnly, inTx, stmt, k.gov)
		}
	}
}
