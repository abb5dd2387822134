package transaction

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"shardingsphere/internal/exec"
	"shardingsphere/internal/registry"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/rewrite"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/telemetry"
)

// LogRecord is one XA transaction-log entry: the set of branches and
// whether the commit decision was taken. Its presence without Decided
// means "roll the branches back"; with Decided it means "commit them" —
// the standard presumed-abort protocol.
type LogRecord struct {
	XID      string   `json:"xid"`
	Branches []string `json:"branches"` // data source names
	Decided  bool     `json:"decided"`  // commit decision logged
}

// LogStore persists XA transaction logs; the registry-backed
// implementation survives a coordinator restart (the paper's recovery
// after "the server is down or the network jitters"). The batch variants
// let the group committer retire many concurrent transactions' records in
// one store operation.
type LogStore interface {
	WriteBatch(recs []LogRecord) error
	Delete(xid string) error
	DeleteBatch(xids []string) error
	List() ([]LogRecord, error)
}

// memoryLog is the default in-process log store.
type memoryLog struct {
	mu   sync.Mutex
	recs map[string]LogRecord
}

// NewMemoryLog returns an in-memory XA log store.
func NewMemoryLog() LogStore { return &memoryLog{recs: map[string]LogRecord{}} }

func (l *memoryLog) WriteBatch(recs []LogRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, rec := range recs {
		l.recs[rec.XID] = rec
	}
	return nil
}

func (l *memoryLog) Delete(xid string) error { return l.DeleteBatch([]string{xid}) }

func (l *memoryLog) DeleteBatch(xids []string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, xid := range xids {
		delete(l.recs, xid)
	}
	return nil
}

func (l *memoryLog) List() ([]LogRecord, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]LogRecord, 0, len(l.recs))
	for _, r := range l.recs {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].XID < out[j].XID })
	return out, nil
}

// registryLog stores XA logs in the Governor's registry.
type registryLog struct {
	reg    *registry.Registry
	prefix string
}

// NewRegistryLog returns a LogStore persisting under prefix (e.g.
// "/transactions") in the coordination registry.
func NewRegistryLog(reg *registry.Registry, prefix string) LogStore {
	return &registryLog{reg: reg, prefix: strings.TrimRight(prefix, "/")}
}

func (l *registryLog) path(xid string) string { return l.prefix + "/" + xid }

func (l *registryLog) WriteBatch(recs []LogRecord) error {
	entries := make(map[string]string, len(recs))
	for _, rec := range recs {
		data, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		entries[l.path(rec.XID)] = string(data)
	}
	// One registry critical section for the whole batch: this is the
	// amortization the group committer buys.
	l.reg.PutAll(entries)
	return nil
}

func (l *registryLog) Delete(xid string) error { return l.DeleteBatch([]string{xid}) }

func (l *registryLog) DeleteBatch(xids []string) error {
	paths := make([]string, len(xids))
	for i, xid := range xids {
		paths[i] = l.path(xid)
	}
	l.reg.DeleteAll(paths)
	return nil
}

func (l *registryLog) List() ([]LogRecord, error) {
	var out []LogRecord
	for _, v := range l.reg.List(l.prefix) {
		var rec LogRecord
		if err := json.Unmarshal([]byte(v), &rec); err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].XID < out[j].XID })
	return out, nil
}

// --- XA transaction (2PC, paper Fig. 5(c)) ---

// branchState tracks how far one branch has progressed; the prepare and
// abort paths choose their verbs from it (a prepared branch needs XA
// ROLLBACK on the prepared XID, an active one needs END first, a local one
// is adopted into the XID to prepare and takes a plain ROLLBACK to abort).
type branchState uint8

const (
	stateLocal    branchState = iota // plain BEGIN (fast path, adopted at prepare)
	stateActive                      // XA BEGIN / XA ADOPT done, not yet prepared
	statePrepared                    // phase 1 acknowledged
)

type xaTx struct {
	mgr      *Manager
	xid      string
	xidArg   []sqltypes.Value   // xid, the one argument of every verb
	xaBegin  resource.Statement // the verb that opens a branch after the first
	held     *exec.HeldConns
	order    []string // branches in first-touch order
	state    map[string]branchState
	upgraded bool // XA verbs in play (a second source was touched)
	closed   bool
	tr       *telemetry.Trace
}

func (t *xaTx) Held() *exec.HeldConns           { return t.held }
func (t *xaTx) AttachTrace(tr *telemetry.Trace) { t.tr = tr }

// verb binds an XA verb's one text to this transaction's xid: a data node
// parses each text a bounded number of times however many xids it sees.
func (t *xaTx) verb(sql string) resource.Statement {
	return resource.Statement{SQL: sql, Args: t.xidArg}
}

// BeforeStatement opens a branch on each source the units touch first. A
// transaction's only source opens a plain local transaction (the fast
// path): XA waits until a second source proves the transaction is really
// distributed, so the single-shard majority of an OLTP mix never pays 2PC.
// Later branches open with XA BEGIN.
func (t *xaTx) BeforeStatement(ctx context.Context, units []rewrite.SQLUnit) error {
	if t.closed {
		return ErrTxClosed
	}
	for _, u := range units {
		ds := u.DataSource
		if _, ok := t.state[ds]; ok {
			continue
		}
		open, st := &begin, stateLocal
		if len(t.order) > 0 || slices.ContainsFunc(units, func(v rewrite.SQLUnit) bool { return v.DataSource != ds }) {
			t.upgrade()
			open, st = &t.xaBegin, stateActive
		}
		if err := t.held.Open(ctx, t.mgr.exec, ds, open); err != nil {
			return err
		}
		t.state[ds] = st
		t.order = append(t.order, ds)
	}
	return nil
}

// upgrade promotes the transaction to XA the moment a second source is
// touched. It sends nothing: a branch still local keeps its plain
// transaction until the prepare batch adopts it into the XID (XA ADOPT),
// so the work done before the upgrade is not lost.
func (t *xaTx) upgrade() {
	if t.upgraded {
		return
	}
	t.upgraded = true
	if len(t.order) > 0 {
		t.mgr.metrics.upgrades.Add(1)
	}
}

func (t *xaTx) AfterStatement(context.Context, []rewrite.SQLUnit, error) error { return nil }

// Commit runs the transaction's commit protocol.
//
// Fast path (never upgraded): one plain COMMIT, no XA verbs, no log
// record. Otherwise two-phase commit: phase 1 (XA END+PREPARE, pipelined
// per branch, fanned out across branches), the decision-point log write
// (batched with concurrent transactions by the group committer), then
// phase 2 (XA COMMIT fanned out). Each phase waits for every branch's
// answer (exec.FanOut). A failed prepare aborts every branch with verbs
// matched to the state its answer told; a partial phase-2 failure returns
// the typed InDoubtError — the decision stands and Recover completes the
// stragglers. A branch whose opening verb never succeeded has nothing to
// commit and takes no part.
func (t *xaTx) Commit(ctx context.Context) error {
	if t.closed {
		return ErrTxClosed
	}
	t.closed = true
	defer t.held.ReleaseAll()

	branches := make([]string, 0, len(t.order))
	for _, ds := range t.order {
		if _, ok := t.held.Peek(ds); ok {
			branches = append(branches, ds)
		}
	}
	sort.Strings(branches)

	if !t.upgraded {
		return t.commitFastPath(ctx, branches)
	}
	if len(branches) == 0 {
		t.mgr.metrics.xaCommits.Add(1)
		return nil
	}

	// Phase 1: prepare. An RM replying "NO" (an error here) aborts.
	if err := t.prepare(ctx, branches); err != nil {
		return err
	}
	if t.mgr.crash(CrashAfterPrepare) {
		// The coordinator "dies" before the decision is logged: branches
		// stay prepared and presumed abort rolls them back on recovery.
		return fmt.Errorf("transaction: coordinator crashed before commit decision for %s (injected)", t.xid)
	}

	// Decision point: log before phase 2 so a coordinator crash commits.
	rec := LogRecord{XID: t.xid, Branches: branches, Decided: true}
	if logErr := t.mgr.group.write(ctx, rec); logErr != nil {
		t.abort(ctx, branches)
		t.mgr.metrics.xaRollbacks.Add(1)
		return fmt.Errorf("transaction: XA log write failed, rolled back: %w", logErr)
	}
	if t.mgr.crash(CrashAfterLogWrite) {
		t.mgr.metrics.inDoubt.Add(1)
		return &InDoubtError{XID: t.xid, Pending: branches}
	}

	// Phase 2: commit, fanned out. Every branch is attempted even if a
	// sibling fails — the decision is logged and each success is final.
	errs := exec.FanOut(ctx, branches, func(ctx context.Context, _ int, ds string) error {
		conn, _ := t.held.Peek(ds)
		start := time.Now()
		_, err := conn.Exec(ctx, "XA COMMIT ?", t.xidArg...)
		t.tr.AddSpan(telemetry.StageXACommit, ds, start, time.Since(start))
		return err
	})
	var pending []string
	var cause error
	for i, ds := range branches {
		if errs[i] != nil {
			pending = append(pending, ds)
			if cause == nil {
				cause = errs[i]
			}
		}
	}
	if len(pending) > 0 {
		// The commit decision stands and the stragglers are prepared and
		// detached from their sessions — the pooled connections are fine,
		// so they are NOT marked Broken. Recover finishes phase 2; the
		// caller gets the typed in-doubt outcome instead of a silent nil.
		t.mgr.metrics.inDoubt.Add(1)
		return &InDoubtError{XID: t.xid, Pending: pending, Cause: cause}
	}
	t.mgr.metrics.xaCommits.Add(1)
	// Retire the log record. The delete batches through the group
	// committer too, detached from the statement deadline: the commit is
	// already durable, cleanup must not be abandoned halfway.
	return t.mgr.group.delete(context.WithoutCancel(ctx), t.xid)
}

// commitFastPath is the single-shard 1PC downgrade: the only branch holds
// a plain local transaction, so COMMIT finishes it — no XA verbs on the
// wire, no log record to write or retire, and no in-doubt window (a
// single participant either commits or aborts atomically).
func (t *xaTx) commitFastPath(ctx context.Context, branches []string) error {
	if len(branches) == 0 {
		t.mgr.metrics.fastPathCommits.Add(1)
		return nil
	}
	ds := branches[0]
	conn, _ := t.held.Peek(ds)
	start := time.Now()
	if _, err := conn.Exec(ctx, "COMMIT"); err != nil {
		// The branch never prepared, so the global outcome is a clean
		// abort — roll the local transaction back, detached from the
		// (possibly expired) statement context.
		if _, rbErr := conn.Exec(context.WithoutCancel(ctx), "ROLLBACK"); rbErr != nil {
			conn.Broken = true
		}
		return fmt.Errorf("transaction: fast-path commit failed on %s, rolled back: %w", ds, err)
	}
	t.tr.AddSpan(telemetry.StageXACommit, ds, start, time.Since(start))
	t.mgr.metrics.fastPathCommits.Add(1)
	return nil
}

// prepare fans XA END+PREPARE out across the branches (pipelined as one
// batch per branch: a remote branch pays a single round trip for phase
// 1); a branch still local leads its batch with XA ADOPT. A NO cuts off
// none of the siblings: once every branch has answered, each is aborted
// with verbs matched to how far it got, and the error names the branch
// that said NO.
func (t *xaTx) prepare(ctx context.Context, branches []string) error {
	reached := make([]branchState, len(branches))
	for i, ds := range branches {
		reached[i] = t.state[ds]
	}
	errs := exec.FanOut(ctx, branches, func(ctx context.Context, i int, ds string) error {
		conn, _ := t.held.Peek(ds)
		stmts := []resource.Statement{t.verb("XA ADOPT ?"), t.verb("XA END ?"), t.verb("XA PREPARE ?")}
		if reached[i] != stateLocal {
			stmts = stmts[1:]
		}
		start := time.Now()
		_, err := resource.ExecBatch(ctx, conn, stmts)
		t.tr.AddSpan(telemetry.StageXAPrepare, ds, start, time.Since(start))
		var be *resource.BatchError
		switch {
		case err == nil:
			reached[i] = statePrepared
			return nil
		case reached[i] == stateLocal && errors.As(err, &be) && be.Index > 0:
			reached[i] = stateActive // adopted before the batch failed
		}
		return err
	})
	var failedDS string
	var cause error
	for i, ds := range branches {
		t.state[ds] = reached[i]
		if cause == nil && errs[i] != nil {
			failedDS, cause = ds, errs[i]
		}
	}
	if cause == nil {
		return nil
	}
	t.mgr.metrics.prepareFailures.Add(1)
	t.abort(ctx, branches)
	return fmt.Errorf("transaction: XA prepare failed on %s, rolled back: %w", failedDS, cause)
}

func (t *xaTx) Rollback(ctx context.Context) error {
	if t.closed {
		return ErrTxClosed
	}
	t.closed = true
	defer t.held.ReleaseAll()
	t.abort(ctx, append([]string(nil), t.order...))
	t.mgr.metrics.xaRollbacks.Add(1)
	return nil
}

// abort rolls the branches back with verbs matched to each branch's
// state: prepared branches take XA ROLLBACK on the prepared XID; branches
// that never reached PREPARE need END on their active work first; a
// fast-path local branch takes a plain ROLLBACK; a branch whose opening
// verb never succeeded has nothing to undo and gets nothing. It runs
// detached from the caller's context so cleanup still reaches the
// branches after a deadline or a client that went away, and only a
// failed abort — branch state genuinely unknown — marks the pooled
// connection Broken.
func (t *xaTx) abort(ctx context.Context, branches []string) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), exec.AbortTimeout)
	defer cancel()
	exec.FanOut(ctx, branches, func(ctx context.Context, _ int, ds string) error {
		conn, ok := t.held.Peek(ds)
		if !ok {
			return nil
		}
		var err error
		switch t.state[ds] {
		case statePrepared:
			_, err = conn.Exec(ctx, "XA ROLLBACK ?", t.xidArg...)
		case stateActive:
			// Not yet prepared: END the active association, then roll it
			// back. A branch whose prepare batch died between END and
			// PREPARE sees END again — the data node treats the repeat as
			// validation of an already-ended branch.
			_, err = resource.ExecBatch(ctx, conn, []resource.Statement{t.verb("XA END ?"), t.verb("XA ROLLBACK ?")})
		default: // stateLocal: fast-path plain transaction
			_, err = conn.Exec(ctx, "ROLLBACK")
		}
		if err != nil {
			conn.Broken = true
		}
		return err
	})
}

// Recover completes in-doubt XA transactions after a coordinator restart
// (paper: "recover the transaction after the server restarts or re-commit
// periodically according to the recorded logs"). Logged-decided branches
// are committed; every other prepared XID found via XA RECOVER is rolled
// back (presumed abort). It returns the number of resolved transactions.
func (m *Manager) Recover(ctx context.Context) (int, error) {
	resolved := 0
	recs, err := m.log.List()
	if err != nil {
		return 0, err
	}
	logged := map[string]bool{}
	for _, rec := range recs {
		logged[rec.XID] = true
		if !rec.Decided {
			continue
		}
		for _, ds := range rec.Branches {
			// An error means the branch committed already or is unknown:
			// either way it needs no further action.
			m.execOn(ctx, ds, "XA COMMIT ?", sqltypes.NewString(rec.XID))
		}
		if err := m.log.Delete(rec.XID); err != nil {
			return resolved, err
		}
		resolved++
		m.metrics.recoverResolved.Add(1)
	}
	// Presumed abort: any prepared XID with no decided log rolls back.
	for _, ds := range m.exec.Sources() {
		xids, err := m.recoverOn(ctx, ds)
		if err != nil {
			continue
		}
		for _, xid := range xids {
			if logged[xid] {
				continue
			}
			if err := m.execOn(ctx, ds, "XA ROLLBACK ?", sqltypes.NewString(xid)); err == nil {
				resolved++
				m.metrics.recoverResolved.Add(1)
			}
		}
	}
	// Undecided log records are cleaned up after their branches aborted.
	for _, rec := range recs {
		if !rec.Decided {
			for _, ds := range rec.Branches {
				m.execOn(ctx, ds, "XA ROLLBACK ?", sqltypes.NewString(rec.XID))
			}
			m.log.Delete(rec.XID)
			resolved++
			m.metrics.recoverResolved.Add(1)
		}
	}
	return resolved, nil
}

func (m *Manager) execOn(ctx context.Context, ds, sql string, args ...sqltypes.Value) error {
	src, err := m.exec.Source(ds)
	if err != nil {
		return err
	}
	conn, err := src.AcquireCtx(ctx)
	if err != nil {
		return err
	}
	defer conn.Release()
	_, err = conn.Exec(ctx, sql, args...)
	return err
}

func (m *Manager) recoverOn(ctx context.Context, ds string) ([]string, error) {
	src, err := m.exec.Source(ds)
	if err != nil {
		return nil, err
	}
	conn, err := src.AcquireCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer conn.Release()
	rs, err := conn.Query(ctx, "XA RECOVER")
	if err != nil {
		return nil, err
	}
	rows, err := resource.ReadAll(rs)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, r[0].AsString())
	}
	return out, nil
}
