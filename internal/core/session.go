package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"shardingsphere/internal/digest"
	"shardingsphere/internal/exec"
	"shardingsphere/internal/merge"
	"shardingsphere/internal/plancache"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/rewrite"
	"shardingsphere/internal/route"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/telemetry"
	"shardingsphere/internal/transaction"
)

// Result is the outcome of one statement: a row stream for queries, or an
// affected-rows count for everything else.
type Result struct {
	RS           resource.ResultSet
	Affected     int64
	LastInsertID int64
}

// IsQuery reports whether the result carries rows.
func (r *Result) IsQuery() bool { return r.RS != nil }

// Close releases the row stream, if any.
func (r *Result) Close() error {
	if r.RS != nil {
		return r.RS.Close()
	}
	return nil
}

// DistSQLHandler recognises and runs DistSQL statements; the distsql
// package installs it (an interface breaks the import cycle between the
// kernel and its management language). Match sits in front of every
// statement, so it must reject ordinary SQL cheaply; Execute sees only
// statements Match accepted.
type DistSQLHandler interface {
	Match(sql string) bool
	Execute(sess *Session, sql string) (*Result, error)
}

// SetDistSQLHandler installs the DistSQL processor.
func (k *Kernel) SetDistSQLHandler(h DistSQLHandler) { k.distSQL = h }

// NewSession opens a client session. Sessions are not safe for concurrent
// use, mirroring database connection semantics.
func (k *Kernel) NewSession() *Session {
	return &Session{
		k:      k,
		txType: k.defaultTxType,
		vars:   map[string]sqltypes.Value{},
	}
}

// Session is one client's state: its open distributed transaction, its
// transaction-type setting and its session variables.
type Session struct {
	k      *Kernel
	tx     transaction.Tx
	txType transaction.Type
	// implicit says tx is a multi-unit write's own (runUnits): it ends with
	// the statement, whose failure rolls all of it back.
	implicit bool
	// aborted, once set, makes the open transaction rollback-only: an
	// ErrTxAborted naming the branch a failed statement could not undo.
	aborted error
	vars    map[string]sqltypes.Value
	// stmtTimeout bounds each statement's execution (SET VARIABLE
	// statement_timeout_ms); 0 means unbounded.
	stmtTimeout time.Duration
	// queueWait is frontend admission-queue time reported by the proxy
	// for the next statement (NoteQueueWait); Execute moves it into
	// stmtQueueWait, where runUnits subtracts it from the statement's
	// timeout budget — queue wait is time the client already spent.
	queueWait     time.Duration
	stmtQueueWait time.Duration
	// tr is the current statement's trace (nil when collection is off);
	// it is set only for the duration of one statement. trBuf is the one
	// place the session's traces live, reused by every statement, TRACE's
	// detailed ones included.
	tr    *telemetry.Trace
	trBuf telemetry.Trace
	// stmtDigest is the current statement's digest entry (nil when the
	// statement has no normalizable shape);
	// stmtShards and stmtRetries are filled by runUnits so Execute can
	// observe the finished statement in one call after Finish.
	stmtDigest  *digest.Entry
	stmtShards  int
	stmtRetries int
	// rt and rw are the route and the rewrite bind fills for each
	// statement: the rewrite reads the route's units, the statement runs
	// the rewrite's, and nothing keeps either past the statement. Each
	// keeps the arrays the largest fan-out grew, so a repeated bind
	// allocates nothing per unit.
	rt route.Result
	rw rewrite.Result
}

// Kernel returns the owning kernel (DistSQL needs it).
func (s *Session) Kernel() *Kernel { return s.k }

// InTransaction reports whether a distributed transaction is open.
func (s *Session) InTransaction() bool { return s.tx != nil }

// TransactionType returns the session's transaction type.
func (s *Session) TransactionType() transaction.Type { return s.txType }

// Vars exposes the session variables.
func (s *Session) Vars() map[string]sqltypes.Value { return s.vars }

// StatementTimeout returns the session's statement deadline (0 when
// unbounded).
func (s *Session) StatementTimeout() time.Duration { return s.stmtTimeout }

// NoteQueueWait tells the session how long the next statement sat in the
// frontend admission queue. The wait is charged against the statement's
// timeout budget and recorded as an admission_wait span on sampled
// traces. It applies to exactly one statement.
func (s *Session) NoteQueueWait(d time.Duration) { s.queueWait = d }

// Close rolls back any open transaction.
func (s *Session) Close() { s.endTx(false) }

// Execute runs one SQL or DistSQL statement. Cacheable DML goes through
// the kernel's shared parameterized plan cache: the statement is
// normalized (literals → parameter slots), the shape's plan is looked up
// or compiled, kept once the shape repeats, and execution binds the
// captured values — on a cache hit the parser never runs.
func (s *Session) Execute(sql string, args ...sqltypes.Value) (*Result, error) {
	s.stmtQueueWait, s.queueWait = s.queueWait, 0
	if h := s.k.distSQL; h != nil && h.Match(sql) {
		return h.Execute(s, sql)
	}
	res, _, err := s.execute(sql, args, false)
	return res, err
}

// ExecuteTraced is Execute's statement path with a detailed trace, for
// DistSQL TRACE, which runs inside Execute: every stage is marked, pool
// acquisition is timed per data source, and nothing compiled is kept, so
// the parse and compile stages appear however often the shape has run. The
// trace is the session's own: it is valid until the session's next
// statement.
func (s *Session) ExecuteTraced(sql string, args ...sqltypes.Value) (*Result, *telemetry.Trace, error) {
	return s.execute(sql, args, true)
}

// execute runs one SQL statement under the session's trace and observes it
// into its shape's digest. A detailed statement keeps nothing it compiles.
func (s *Session) execute(sql string, args []sqltypes.Value, detailed bool) (*Result, *telemetry.Trace, error) {
	tr := s.k.tel.StartInto(&s.trBuf, sql, detailed)
	tr.AddQueueWait(s.stmtQueueWait)
	s.tr = tr
	s.stmtDigest, s.stmtShards, s.stmtRetries = nil, 0, 0
	res, err := s.executeSQL(sql, args, !detailed)
	s.tr = nil
	tr.Finish(err)
	if e := s.stmtDigest; e != nil {
		// Trace-finish hook: one Observe per statement. Query rows are
		// charged as they stream to the client; DML charges the affected
		// count directly.
		e.Observe(tr.Total(), s.stmtShards, s.stmtRetries, err != nil)
		if res != nil {
			switch rs := res.RS.(type) {
			case nil:
				e.AddRows(res.Affected, 0)
			case *resource.SliceResultSet:
				// Drained result: charge the rows already in memory instead
				// of paying a wrapper allocation and a per-batch interface
				// hop on the client read path.
				var b int64
				for _, r := range rs.Data {
					b += digest.RowBytes(r)
				}
				e.AddRows(int64(len(rs.Data)), b)
			case *resource.ConnLease:
				// Single-shard stream handed through unmerged: ride the
				// lease's sink slots instead of another wrapper.
				rs.AddSink(e)
			default:
				res.RS = digest.WrapRows(res.RS, e)
			}
		}
	}
	return res, tr, err
}

// executeSQL is the statement body of execute. A kept text (Cache.Probe:
// spelled as its shape's key, or a spelling of it) finds its shape and its
// normalized form without being lexed; any other normalizable statement is
// normalized and does one keyed lookup. Either way the statement counts
// under its shape's entry, where its plan lives, used when current and
// compiled when missing or stale, and kept from the shape's third sight.
// Four cases count under the entry but parse and compile for this
// execution only: TRACE (keep false), a locking read in a transaction, a
// bind failure and a build failure.
func (s *Session) executeSQL(sql string, args []sqltypes.Value, keep bool) (*Result, error) {
	pc := s.k.planCache
	var e *plancache.Entry
	var norm *sqlparser.Normalized
	if keep {
		e, norm = pc.Probe(sql)
	}
	probed := norm != nil
	if !probed {
		if n, ok := sqlparser.Normalize(sql); ok {
			e, norm = pc.Lookup(n.Key), n
		}
	}
	if norm != nil {
		s.stmtDigest = &e.Digest
		// The trace carries the digest id the digest row shows, and the
		// key lets a slow-log capture redact without re-normalizing.
		s.tr.SetDigest(e.Digest.ID, e.Digest.Key)
		// A locking read inside a distributed transaction keeps nothing
		// either: a SELECT ... FOR UPDATE under XA must see the pipeline
		// state of its own transaction, never a shared value.
		if keep && !(norm.ForUpdate && s.tx != nil) {
			if bound, err := bindNormalized(sql, norm, args); err == nil {
				// The plan parses the entry's own key string, which its AST
				// then shares instead of holding a copy; it is compiled
				// against the snapshot it is stamped with.
				rules := s.k.Rules()
				v, err := pc.Plan(e, rules, func() (any, error) { return buildPlan(s.k, rules, e.Digest.Key) })
				if err == nil {
					if !probed {
						pc.Admit(sql, norm, e)
					}
					return s.executePlan(v.(*plan), bound)
				}
				// A failed build is not cached; fall through to a full
				// parse so syntax errors reference the original text.
			}
		}
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	s.tr.Mark(telemetry.StageParse)
	return s.executeStmt(stmt, args)
}

// bindNormalized is the argument list sql binds through norm, its
// normalized form. A text spelled as its key lifted no literal, so its
// slot i reads argument i and the arguments bind as they are.
func bindNormalized(sql string, norm *sqlparser.Normalized, args []sqltypes.Value) ([]sqltypes.Value, error) {
	if n := len(norm.Args); sql == norm.Key && len(args) >= n {
		return args[:n:n], nil
	}
	return norm.BindArgs(args)
}

// Query runs a statement that must return rows.
func (s *Session) Query(sql string, args ...sqltypes.Value) (resource.ResultSet, error) {
	res, err := s.Execute(sql, args...)
	if err != nil {
		return nil, err
	}
	if !res.IsQuery() {
		return nil, fmt.Errorf("%w: %s", ErrNotQuery, sql)
	}
	return res.RS, nil
}

// Exec runs a statement that returns no rows.
func (s *Session) Exec(sql string, args ...sqltypes.Value) (resource.ExecResult, error) {
	res, err := s.Execute(sql, args...)
	if err != nil {
		return resource.ExecResult{}, err
	}
	if res.IsQuery() {
		res.Close()
		return resource.ExecResult{}, fmt.Errorf("core: %s returned rows; use Query", sql)
	}
	return resource.ExecResult{Affected: res.Affected, LastInsertID: res.LastInsertID}, nil
}

// executeStmt runs a parsed statement: transaction control and session
// statements directly, anything routable compiled for this one execution.
func (s *Session) executeStmt(stmt sqlparser.Statement, args []sqltypes.Value) (*Result, error) {
	switch t := stmt.(type) {
	case *sqlparser.BeginStmt:
		if s.tx != nil {
			return nil, ErrInTransaction
		}
		tx, err := s.k.txMgr.Begin(s.txType)
		if err != nil {
			return nil, err
		}
		s.tx = tx
		return &Result{}, nil
	case *sqlparser.SavepointStmt:
		return nil, ErrSavepointUnsupported
	case *sqlparser.RollbackStmt:
		if t.Savepoint != "" {
			return nil, ErrSavepointUnsupported
		}
		if err := s.endTx(false); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.CommitStmt:
		if aborted := s.aborted; aborted != nil {
			s.endTx(false)
			return nil, aborted
		}
		if err := s.endTx(true); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.SetStmt:
		if err := s.SetVariable(t.Name, t.Value); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.ShowStmt:
		return s.showTables()
	case *sqlparser.DescribeStmt:
		return s.describe(t)
	}

	if sel, ok := stmt.(*sqlparser.SelectStmt); ok && len(sel.From) == 0 {
		return s.selectWithoutFrom(sel, args)
	}
	p, args, genKey, err := s.compileStmt(stmt, args)
	if err != nil {
		return nil, err
	}
	return s.run(p, args, genKey)
}

// compileStmt compiles a parsed statement for one execution. The key
// generator's and the features' transformers' output differs per
// execution, which is why a statement they touch is compiled here and its
// compiled value never kept.
func (s *Session) compileStmt(stmt sqlparser.Statement, args []sqltypes.Value) (*plan, []sqltypes.Value, int64, error) {
	// Generated keys: INSERTs into tables with a key generator that omit
	// the key column gain it before routing (the distributed replacement
	// for AUTO_INCREMENT; see sharding.KeyGenerator).
	rules := s.k.Rules()
	var genKey int64
	if ins, ok := stmt.(*sqlparser.InsertStmt); ok {
		stmt, genKey = fillGeneratedKey(rules, ins)
	}
	// Feature transforms (the caller's statement stays untouched:
	// transformers clone on write).
	for _, f := range s.k.features {
		tr, ok := f.(StatementTransformer)
		if !ok {
			continue
		}
		var err error
		if stmt, args, err = tr.TransformStatement(stmt, args); err != nil {
			return nil, nil, 0, err
		}
	}
	p, _ := s.k.compile(rules, stmt)
	return p, args, genKey, nil
}

// Preview compiles and binds a statement exactly as executing it would —
// its normalized shape, bound to the lifted values — and returns the units
// it would send, without sending them (DistSQL PREVIEW).
func (s *Session) Preview(sql string, args ...sqltypes.Value) ([]rewrite.SQLUnit, error) {
	if norm, ok := sqlparser.Normalize(sql); ok {
		if bound, err := norm.BindArgs(args); err == nil {
			sql, args = norm.Key, bound
		}
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	p, args, _, err := s.compileStmt(stmt, args)
	if err != nil {
		return nil, err
	}
	rw, err := s.bind(p, args)
	if err != nil {
		return nil, err
	}
	// The session's next bind reuses rw's array.
	return slices.Clone(rw.Units), nil
}

// endTx commits or rolls back the open transaction, if any. COMMIT,
// ROLLBACK and a multi-unit write's implicit transaction all end here,
// under the session's statement deadline so statement_timeout_ms reaches
// the 2PC verbs, not just DML.
func (s *Session) endTx(commit bool) error {
	tx := s.tx
	if tx == nil {
		return nil
	}
	s.tx, s.implicit, s.aborted = nil, false, nil
	tx.AttachTrace(s.tr)
	ctx := context.Background()
	if s.stmtTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.stmtTimeout)
		defer cancel()
	}
	if commit {
		return tx.Commit(ctx)
	}
	return tx.Rollback(ctx)
}

// runUnits executes rewritten SQL units: source resolution, circuit-breaker
// gates, transaction hooks, execution and merge.
//
// Fault tolerance happens at two levels. The statement deadline
// (statement_timeout_ms) bounds the whole call. Failover covers
// idempotent reads outside transactions when a feature can move units off
// their routed sources (SourceResolver): when an attempt dies of a
// transient infrastructure failure — or its resolved source is gated by
// an open breaker — the units are reset to their routed sources and
// re-resolved, so read-write splitting, which reads each replica's
// breaker as it resolves, lands the retry on another ready replica. With
// no resolver a retry would reach the same sources, which the executor's
// own retry has already tried.
//
// A DML statement of more than one unit outside a transaction runs as
// BEGIN; <stmt>; COMMIT in the session's transaction type, so a failing
// unit leaves no effect of the others. A node's DDL is not transactional
// and keeps its per-unit autocommit.
func (s *Session) runUnits(stmt sqlparser.Statement, sel *sqlparser.SelectStmt, rw *rewrite.Result, genKey int64) (*Result, error) {
	if s.aborted != nil {
		return nil, s.aborted
	}
	if s.tx == nil && len(rw.Units) > 1 && stmt.StatementType().IsDML() {
		tx, err := s.k.txMgr.Begin(s.txType)
		if err != nil {
			return nil, err
		}
		s.tx, s.implicit = tx, true
		res, err := s.runUnits(stmt, sel, rw, genKey)
		if endErr := s.endTx(err == nil); err == nil && endErr != nil {
			return nil, endErr
		}
		return res, err
	}
	s.stmtShards = len(rw.Units)
	isSelect := sel != nil
	readOnly := isSelect && !sel.ForUpdate
	ctx := context.Background()
	var cancel context.CancelFunc
	if s.stmtTimeout > 0 {
		// Admission-queue wait is time the client already spent waiting on
		// this statement: charge it against the budget so the end-to-end
		// deadline holds. A fully consumed budget is a statement timeout —
		// the admission controller sheds such requests at the door, but
		// the queue estimate is predictive, so this is the backstop.
		budget := s.stmtTimeout - s.stmtQueueWait
		if budget <= 0 {
			s.k.statementTimeouts.Add(1)
			return nil, fmt.Errorf("%w: %v admission queue wait consumed the %v budget",
				ErrStatementTimeout, s.stmtQueueWait, s.stmtTimeout)
		}
		ctx, cancel = context.WithTimeout(ctx, budget)
	}
	canFailover := readOnly && s.tx == nil && s.k.hasResolvers
	attempts := 1
	var origDS []string
	if canFailover {
		attempts = min(1+len(rw.Units), 4) // at most one failover per candidate replica
		origDS = make([]string, len(rw.Units))
		for i := range rw.Units {
			origDS[i] = rw.Units[i].DataSource
		}
	}
	var res *Result
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			s.k.failovers.Add(1)
			s.stmtRetries++
			// The retry's execute spans continue the statement's attempt
			// sequence instead of restarting at 1, so TRACE shows the
			// failed try and the failover side by side.
			s.tr.BeginFailover()
			for i, ds := range origDS {
				rw.Units[i].DataSource = ds
			}
		}
		res, err = s.runUnitsOnce(ctx, stmt, sel, rw, genKey, readOnly)
		if err == nil {
			if attempt > 0 {
				s.k.failoverSuccess.Add(1)
			}
			if cancel != nil {
				// A streaming result keeps reading through the timeout
				// context after this function returns; cancelling now
				// would kill the cursor mid-stream. Defer the cancel to
				// the result's Close, keeping the deadline live so a
				// stalled client still can't pin the statement forever.
				if res.RS != nil {
					res.RS = resource.WithCloseHook(res.RS, cancel)
				} else {
					cancel()
				}
			}
			return res, nil
		}
		if !canFailover || ctx.Err() != nil ||
			!(resource.IsTransient(err) || errors.Is(err, ErrSourceDown)) {
			break
		}
	}
	if cancel != nil {
		cancel()
	}
	if errors.Is(err, context.DeadlineExceeded) && s.stmtTimeout > 0 {
		s.k.statementTimeouts.Add(1)
		return nil, fmt.Errorf("%w after %v: %w", ErrStatementTimeout, s.stmtTimeout, err)
	}
	return nil, err
}

// runUnitsOnce is one execution attempt of runUnits.
func (s *Session) runUnitsOnce(ctx context.Context, stmt sqlparser.Statement, sel *sqlparser.SelectStmt, rw *rewrite.Result, genKey int64, readOnly bool) (*Result, error) {
	isSelect := sel != nil
	s.k.resolveSources(rw.Units, readOnly, s.tx != nil, stmt)
	if err := s.k.checkGates(rw.Units); err != nil {
		return nil, err
	}

	if s.tx != nil {
		// Transaction phases (XA prepare/commit, BASE undo capture) record
		// their spans into the current statement's trace.
		s.tx.AttachTrace(s.tr)
		if err := s.tx.BeforeStatement(ctx, rw.Units); err != nil {
			return nil, err
		}
	}
	var result *Result
	var execErr error
	if isSelect {
		var qr *exec.QueryResult
		qr, execErr = s.k.executor.QueryCtx(ctx, rw.Units, heldOf(s.tx), s.tr, readOnly && s.tx == nil)
		if execErr == nil {
			s.tr.Mark(telemetry.StageExecute)
			var rs resource.ResultSet
			rs, execErr = merge.Merge(qr.Sets, rw.Select)
			if execErr == nil {
				for _, f := range s.k.features {
					if d, ok := f.(ResultDecorator); ok {
						rs, execErr = d.DecorateResult(stmt, rs)
						if execErr != nil {
							break
						}
					}
				}
			}
			if execErr == nil {
				result = &Result{RS: rs}
				s.tr.Mark(telemetry.StageMerge)
			}
		}
	} else {
		// A node undoes its own unit of a failed write, so a write of
		// several units in a transaction leads each source's window with a
		// savepoint, and a failure returns every branch it reached there.
		held := heldOf(s.tx)
		undo := held != nil && !s.implicit && len(rw.Units) > 1 && stmt.StatementType().IsDML()
		if undo {
			held.Lead(&statementSavepoint)
		}
		var er resource.ExecResult
		er, execErr = s.k.executor.ExecuteUpdateCtx(ctx, rw.Units, held, s.tr)
		if execErr == nil {
			execErr = s.k.catalogDDL(stmt)
		}
		if undo {
			if execErr != nil {
				if err := held.Undo(ctx, undoStatement); err != nil {
					s.aborted = fmt.Errorf("%w: %w", ErrTxAborted, err)
				}
			}
			held.Lead(nil)
		}
		if execErr == nil {
			s.tr.Mark(telemetry.StageExecute)
			result = &Result{Affected: er.Affected, LastInsertID: er.LastInsertID}
			if genKey != 0 {
				result.LastInsertID = genKey
			}
		}
	}
	if s.tx != nil {
		if err := s.tx.AfterStatement(ctx, rw.Units, execErr); err != nil {
			return nil, err
		}
		// A failed statement whose connection is lost leaves its branch in
		// a state nobody knows; a transaction never commits without it.
		if execErr != nil && s.aborted == nil {
			if ds, lost := s.tx.Held().Defunct(); lost {
				s.aborted = fmt.Errorf("%w: the connection to data source %s is lost", ErrTxAborted, ds)
			}
		}
		// Include AfterStatement work (BASE local commits) in the trace
		// total without attributing it to the next stage.
		s.tr.Skip()
	}
	if execErr != nil {
		return nil, execErr
	}
	return result, nil
}

// statementSavepoint leads each source's window of a write of several units
// in a transaction; undoStatement returns a branch to it.
var statementSavepoint = resource.Statement{SQL: "SAVEPOINT ss_statement"}

const undoStatement = "ROLLBACK TO SAVEPOINT ss_statement"

func heldOf(tx transaction.Tx) *exec.HeldConns {
	if tx == nil {
		return nil
	}
	return tx.Held()
}

// SetVariable applies SET name = value. It is the one place the two
// session-scoped names are validated and applied: SQL's SET and DistSQL's
// SET VARIABLE both land here. Any other name is a plain session variable.
func (s *Session) SetVariable(name string, value sqltypes.Value) error {
	name = strings.ToLower(name)
	switch name {
	case "transaction_type":
		typ, err := transaction.ParseType(value.AsString())
		if err != nil {
			return err
		}
		s.txType = typ
	case "statement_timeout_ms":
		ms, err := strconv.ParseInt(strings.TrimSpace(value.AsString()), 10, 64)
		if err != nil || ms < 0 {
			return fmt.Errorf("core: statement_timeout_ms wants a non-negative integer, got %q", value.AsString())
		}
		s.stmtTimeout = time.Duration(ms) * time.Millisecond
	}
	s.vars[name] = value
	return nil
}

// showTables lists the logic tables: rule tables, broadcast tables and
// the unsharded tables on the default source.
func (s *Session) showTables() (*Result, error) {
	seen := map[string]bool{}
	var names []string
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	rules := s.k.Rules()
	for _, t := range rules.LogicTables() {
		add(t)
	}
	for t := range rules.Broadcast {
		add(t)
	}
	if _, rows, err := s.k.QueryNode(rules.DefaultDataSource, "SHOW TABLES"); err == nil {
		for _, r := range rows {
			if !isActualTable(rules, r[0].AsString()) {
				add(r[0].AsString())
			}
		}
	}
	slices.Sort(names)
	rows := make([]sqltypes.Row, len(names))
	for i, n := range names {
		rows[i] = sqltypes.Row{sqltypes.NewString(n)}
	}
	return &Result{RS: resource.NewSliceResultSet([]string{"Tables"}, rows)}, nil
}

// isActualTable reports whether the name is an actual shard of some rule
// (hidden from SHOW TABLES).
func isActualTable(rules *sharding.RuleSet, name string) bool {
	for _, r := range rules.Tables {
		for _, n := range r.DataNodes {
			if strings.EqualFold(n.Table, name) {
				return true
			}
		}
	}
	return false
}

// describe forwards DESCRIBE to the first data node of the logic table.
func (s *Session) describe(t *sqlparser.DescribeStmt) (*Result, error) {
	n := s.k.Rules().FirstNode(t.Table)
	cols, rows, err := s.k.QueryNode(n.DataSource, "DESCRIBE "+n.Table)
	if err != nil {
		return nil, err
	}
	return &Result{RS: resource.NewSliceResultSet(cols, rows)}, nil
}

// generatesKey returns the rule whose key generator fills a column the
// INSERT omits, or nil.
func generatesKey(rules *sharding.RuleSet, ins *sqlparser.InsertStmt) *sharding.TableRule {
	rule, ok := rules.Rule(ins.Table)
	if !ok || rule.KeyGen == nil || rule.KeyGenColumn == "" || len(ins.Columns) == 0 {
		return nil
	}
	for _, c := range ins.Columns {
		if strings.EqualFold(c, rule.KeyGenColumn) {
			return nil
		}
	}
	return rule
}

// fillGeneratedKey appends the key-generator column and fresh keys to an
// INSERT that omits it. It returns the (possibly cloned) statement and the
// last key generated (0 when none).
func fillGeneratedKey(rules *sharding.RuleSet, ins *sqlparser.InsertStmt) (sqlparser.Statement, int64) {
	rule := generatesKey(rules, ins)
	if rule == nil {
		return ins, 0
	}
	clone := sqlparser.CloneStatement(ins).(*sqlparser.InsertStmt)
	clone.Columns = append(clone.Columns, rule.KeyGenColumn)
	var last int64
	for i := range clone.Rows {
		last = rule.KeyGen.NextKey()
		clone.Rows[i] = append(clone.Rows[i], &sqlparser.Literal{Val: sqltypes.NewInt(last)})
	}
	return clone, last
}

// selectWithoutFrom evaluates table-less selects on the default source.
func (s *Session) selectWithoutFrom(sel *sqlparser.SelectStmt, args []sqltypes.Value) (*Result, error) {
	ds := s.k.Rules().DefaultDataSource
	cols, rows, err := s.k.QueryNode(ds, sqlparser.NewSerializer(s.k.dialectOf(ds)).Serialize(sel), args...)
	if err != nil {
		return nil, err
	}
	return &Result{RS: resource.NewSliceResultSet(cols, rows)}, nil
}
