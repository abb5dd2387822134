// Package transaction implements the three distributed transaction types
// of paper Section IV-B:
//
// LOCAL — 1PC: COMMIT/ROLLBACK fans out to every touched source and
// failures on individual sources are ignored, trading consistency for
// speed exactly as the paper describes.
//
// XA — 2PC over the data sources' XA verbs, with a transaction log kept
// in the Governor's registry: the commit decision is logged before phase
// 2, and Recover completes in-doubt branches after a coordinator restart.
// The commit path is built for concurrency: phase 1 and phase 2 fan out
// across branches in parallel, concurrent transactions' log writes batch
// through a group committer, and a transaction that only ever touched one
// data source commits as plain 1PC with no XA verbs and no log record
// (the STAR observation: single-partition transactions dominate OLTP
// mixes and should skip coordination entirely).
//
// BASE — a Seata-AT-style flow (paper Fig. 6): each statement commits
// locally right away inside its own branch transaction while the manager
// records compensation ("undo") SQL built from before/after row images;
// global rollback replays the compensations in reverse order through the
// Transaction Coordinator.
package transaction

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"shardingsphere/internal/exec"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/rewrite"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/telemetry"
)

// Type selects the distributed transaction behaviour; switchable at
// runtime via DistSQL ("SET VARIABLE transaction_type = ...").
type Type uint8

// Transaction types.
const (
	Local Type = iota
	XA
	Base
)

func (t Type) String() string {
	switch t {
	case XA:
		return "XA"
	case Base:
		return "BASE"
	default:
		return "LOCAL"
	}
}

// ParseType parses a transaction type name.
func ParseType(s string) (Type, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "LOCAL":
		return Local, nil
	case "XA":
		return XA, nil
	case "BASE":
		return Base, nil
	default:
		return Local, fmt.Errorf("transaction: unknown type %q", s)
	}
}

// ErrTxClosed reports use of a finished transaction.
var ErrTxClosed = errors.New("transaction: already finished")

// Tx is one distributed transaction. The kernel calls BeforeStatement
// before executing a statement's units and AfterStatement once they ran;
// transactions pin one connection per data source via Held.
//
// Every method that talks to data sources takes the statement context:
// statement_timeout_ms deadlines and client cancellation propagate into
// BEGIN/undo capture and the 2PC verbs. Cleanup after a failure detaches
// from the (possibly already expired) cause via context.WithoutCancel so
// abort verbs still reach the branches.
type Tx interface {
	// Held returns the pinned connections the executor must use.
	Held() *exec.HeldConns
	// BeforeStatement prepares the touched data sources for the units
	// about to execute: it pins their connections and records each new
	// branch's opening verb (BEGIN / XA BEGIN ?), which the statement's
	// window to that source sends first. BASE also captures undo.
	BeforeStatement(ctx context.Context, units []rewrite.SQLUnit) error
	// AfterStatement finalizes per-statement work (BASE local commit and
	// after-image capture). execErr is the execution outcome.
	AfterStatement(ctx context.Context, units []rewrite.SQLUnit, execErr error) error
	Commit(ctx context.Context) error
	Rollback(ctx context.Context) error
	// AttachTrace routes transaction-phase spans (XA prepare/commit, BASE
	// undo capture) into the current statement's trace. The session calls
	// it before each statement and before Commit/Rollback; nil detaches.
	AttachTrace(tr *telemetry.Trace)
}

// Manager creates distributed transactions over an executor.
type Manager struct {
	exec  *exec.Executor
	log   LogStore
	group *groupCommitter
	tc    *Coordinator
	meta  MetaProvider
	seq   atomic.Int64

	crashHook atomic.Value // func(point string) bool

	metrics txnCounters
}

// Crash points the coordinator consults between 2PC steps; a chaos hook
// returning true at one of them simulates the coordinator dying there.
const (
	CrashAfterPrepare  = "after_prepare"   // branches prepared, decision not yet logged
	CrashAfterLogWrite = "after_log_write" // decision logged, phase 2 not started
)

// txnCounters backs Metrics.
type txnCounters struct {
	begun           atomic.Int64
	fastPathCommits atomic.Int64
	xaCommits       atomic.Int64
	xaRollbacks     atomic.Int64
	upgrades        atomic.Int64
	prepareFailures atomic.Int64
	inDoubt         atomic.Int64
	recoverResolved atomic.Int64
}

// SetCrashHook installs a chaos hook consulted at the 2PC crash points;
// returning true makes the coordinator abandon the commit at that point
// as if the process died. nil-safe: no hook means no crashes.
func (m *Manager) SetCrashHook(hook func(point string) bool) {
	if hook != nil {
		m.crashHook.Store(hook)
	}
}

func (m *Manager) crash(point string) bool {
	if h, ok := m.crashHook.Load().(func(string) bool); ok && h != nil {
		return h(point)
	}
	return false
}

// Metrics reports transaction counters, which the kernel's metrics
// snapshot reports under "txn.". The fastpath_commits counter is the
// observable proof that single-shard transactions skip XA entirely.
func (m *Manager) Metrics() map[string]int64 {
	out := map[string]int64{
		"begun":            m.metrics.begun.Load(),
		"fastpath_commits": m.metrics.fastPathCommits.Load(),
		"xa_commits":       m.metrics.xaCommits.Load(),
		"xa_rollbacks":     m.metrics.xaRollbacks.Load(),
		"upgrades":         m.metrics.upgrades.Load(),
		"prepare_failures": m.metrics.prepareFailures.Load(),
		"in_doubt":         m.metrics.inDoubt.Load(),
		"recover_resolved": m.metrics.recoverResolved.Load(),
	}
	for k, v := range m.group.metrics() {
		out[k] = v
	}
	return out
}

// MetaProvider resolves table metadata (primary key and column names) of
// actual tables on a data source; BASE undo generation needs it.
type MetaProvider interface {
	TableMeta(dataSource, table string) (pk []string, cols []string, err error)
}

// NewManager builds a transaction manager. log may be nil (in-memory XA
// log); meta is required only for BASE transactions.
func NewManager(e *exec.Executor, log LogStore, meta MetaProvider) *Manager {
	if log == nil {
		log = NewMemoryLog()
	}
	return &Manager{exec: e, log: log, group: newGroupCommitter(log), tc: NewCoordinator(), meta: meta}
}

// Begin opens a distributed transaction of the given type.
func (m *Manager) Begin(t Type) (Tx, error) {
	xid := fmt.Sprintf("gtx-%d", m.seq.Add(1))
	m.metrics.begun.Add(1)
	switch t {
	case XA:
		tx := &xaTx{mgr: m, xid: xid, xidArg: []sqltypes.Value{sqltypes.NewString(xid)},
			held: exec.NewHeldConns(), state: map[string]branchState{}}
		tx.xaBegin = tx.verb("XA BEGIN ?")
		return tx, nil
	case Base:
		if m.meta == nil {
			return nil, fmt.Errorf("transaction: BASE needs a metadata provider")
		}
		m.tc.BeginGlobal(xid)
		return &baseTx{mgr: m, xid: xid, held: exec.NewHeldConns()}, nil
	default:
		return &localTx{mgr: m, held: exec.NewHeldConns()}, nil
	}
}

// begin opens a plain local branch.
var begin = resource.Statement{SQL: "BEGIN"}

// --- LOCAL (1PC) ---

type localTx struct {
	mgr      *Manager
	held     *exec.HeldConns
	branches []string // sources with a branch: a statement touches a few
	closed   bool
}

func (t *localTx) Held() *exec.HeldConns { return t.held }

// AttachTrace implements Tx: a local transaction has no phase of its own
// to time.
func (t *localTx) AttachTrace(*telemetry.Trace) {}

func (t *localTx) BeforeStatement(ctx context.Context, units []rewrite.SQLUnit) error {
	if t.closed {
		return ErrTxClosed
	}
	for _, u := range units {
		if slices.Contains(t.branches, u.DataSource) {
			continue
		}
		if err := t.held.Open(ctx, t.mgr.exec, u.DataSource, &begin); err != nil {
			return err
		}
		t.branches = append(t.branches, u.DataSource)
	}
	return nil
}

func (t *localTx) AfterStatement(context.Context, []rewrite.SQLUnit, error) error { return nil }

// Commit is 1PC: the command fans out and per-source failures are
// ignored (paper Fig. 5(d)).
func (t *localTx) Commit(ctx context.Context) error { return t.finish(ctx, "COMMIT") }

func (t *localTx) Rollback(ctx context.Context) error { return t.finish(ctx, "ROLLBACK") }

func (t *localTx) finish(ctx context.Context, cmd string) error {
	if t.closed {
		return ErrTxClosed
	}
	t.closed = true
	defer t.held.ReleaseAll()
	// 1PC: fan the command out over the pinned connections; individual
	// failures are ignored (paper: "Even if some data source commits
	// fail, ShardingSphere will ignore it"). The fan-out must still run
	// when the statement deadline already fired — an unfinished branch
	// would otherwise leak its locks back into the pool. A branch whose
	// BEGIN never succeeded has nothing to end.
	ctx = context.WithoutCancel(ctx)
	for _, ds := range t.branches {
		if c, ok := t.held.Peek(ds); ok {
			if _, err := c.Exec(ctx, cmd); err != nil {
				c.Broken = true
			}
		}
	}
	return nil
}
