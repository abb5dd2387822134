package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"shardingsphere/internal/digest"
	"shardingsphere/internal/exec"
	"shardingsphere/internal/merge"
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
	vars   map[string]sqltypes.Value
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
	// it lives only for the duration of one Execute call. trBuf is its
	// session-owned storage, reused across statements so the hot path
	// skips the collector's trace pool.
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
	// the rewrite's, and nothing keeps either past the statement.
	rt route.Result
	rw rewrite.Result
}

// Kernel returns the owning kernel (DistSQL needs it).
func (s *Session) Kernel() *Kernel { return s.k }

// InTransaction reports whether a distributed transaction is open.
func (s *Session) InTransaction() bool { return s.tx != nil }

// TransactionType returns the session's transaction type.
func (s *Session) TransactionType() transaction.Type { return s.txType }

// SetTransactionType switches the transaction type for subsequent
// transactions (DistSQL RAL: SET VARIABLE transaction_type = ...).
func (s *Session) SetTransactionType(t transaction.Type) { s.txType = t }

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
func (s *Session) Close() {
	if s.tx != nil {
		s.tx.Rollback(context.Background())
		s.tx = nil
	}
}

// Execute runs one SQL or DistSQL statement. Cacheable DML goes through
// the kernel's shared parameterized plan cache: the statement is
// normalized (literals → parameter slots), the shape's plan is looked up
// or compiled once, and execution binds the captured values — on a cache
// hit the parser never runs.
func (s *Session) Execute(sql string, args ...sqltypes.Value) (*Result, error) {
	s.stmtQueueWait, s.queueWait = s.queueWait, 0
	if h := s.k.distSQL; h != nil && h.Match(sql) {
		return h.Execute(s, sql)
	}
	return s.execute(s.k.tel.StartInto(&s.trBuf, sql), sql, args, true)
}

// ExecuteTraced runs one statement as Execute does, with a detailed,
// retained trace — every stage is marked, pool acquisition is timed per
// data source, and the trace survives Finish so the caller can read its
// span table (DistSQL TRACE) — and without keeping what it compiles, so
// the parse and compile stages appear however often the shape has run.
// The caller must Release the returned trace.
func (s *Session) ExecuteTraced(sql string, args ...sqltypes.Value) (*Result, *telemetry.Trace, error) {
	s.stmtQueueWait, s.queueWait = s.queueWait, 0
	tr := s.k.tel.StartDetailed(sql)
	res, err := s.execute(tr, sql, args, false)
	return res, tr, err
}

// execute runs one SQL statement under the given trace and observes it
// into its shape's digest.
func (s *Session) execute(tr *telemetry.Trace, sql string, args []sqltypes.Value, keep bool) (*Result, error) {
	tr.AddQueueWait(s.stmtQueueWait)
	s.tr = tr
	s.stmtDigest, s.stmtShards, s.stmtRetries = nil, 0, 0
	res, err := s.executeSQL(sql, args, keep)
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
	return res, err
}

// executeSQL is the statement body of execute. A text spelled as its
// shape's key, whose plan is current, binds its arguments as they are
// (Cache.Probe: nothing lexed, copied or inserted). Any other normalizable
// statement does one keyed lookup: its shape's entry, where it is counted
// and its plan lives, used when current and compiled when missing or
// stale. Four cases count under the entry but parse and compile for this
// execution only: TRACE (keep false), a locking read in a transaction, a
// bind failure and a build failure.
func (s *Session) executeSQL(sql string, args []sqltypes.Value, keep bool) (*Result, error) {
	if e, v := s.k.planCache.Probe(sql); keep && v != nil {
		if p := v.(*plan); p.keyArgs >= 0 && len(args) >= p.keyArgs && !(p.forUpdate && s.tx != nil) {
			s.k.planCache.Hit()
			s.stmtDigest = &e.Digest
			s.tr.SetDigest(e.Digest.ID, e.Digest.Key)
			return s.executePlan(p, args[:p.keyArgs:p.keyArgs])
		}
	}
	if norm, ok := sqlparser.Normalize(sql); ok {
		e := s.k.planCache.Lookup(norm.Key)
		s.stmtDigest = &e.Digest
		// The trace carries the digest id the digest row shows, and the
		// key lets a slow-log capture redact without re-normalizing.
		s.tr.SetDigest(e.Digest.ID, e.Digest.Key)
		// A locking read inside a distributed transaction keeps nothing
		// either: a SELECT ... FOR UPDATE under XA must see the pipeline
		// state of its own transaction, never a shared value.
		if keep && !(norm.ForUpdate && s.tx != nil) {
			if bound, err := norm.BindArgs(args); err == nil {
				v, err := s.k.planCache.Plan(e, func() (any, error) {
					return buildPlan(s.k, sql, norm)
				})
				if err == nil {
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
	return s.ExecuteStmt(stmt, args)
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

// ExecuteStmt runs a parsed statement: transaction control and session
// statements directly, anything routable compiled for this one execution.
func (s *Session) ExecuteStmt(stmt sqlparser.Statement, args []sqltypes.Value) (*Result, error) {
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
	case *sqlparser.CommitStmt, *sqlparser.RollbackStmt:
		_, commit := t.(*sqlparser.CommitStmt)
		if err := s.endTx(commit); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.SetStmt:
		return s.executeSet(t)
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
	return rw.Units, nil
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
	s.tx = nil
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
// idempotent reads outside transactions: when an attempt dies of a
// transient infrastructure failure — or its resolved source is gated by
// an open breaker — the units are reset to their routed sources and
// re-resolved, so read-write splitting (whose replica table the
// governor's health events just updated) lands the retry on a healthy
// replica.
//
// A DML statement of more than one unit outside a transaction runs as
// BEGIN; <stmt>; COMMIT in the session's transaction type, so a failing
// unit leaves no effect of the others. A node's DDL is not transactional
// and keeps its per-unit autocommit.
func (s *Session) runUnits(stmt sqlparser.Statement, sel *sqlparser.SelectStmt, rw *rewrite.Result, genKey int64) (*Result, error) {
	if s.tx == nil && len(rw.Units) > 1 && stmt.StatementType().IsDML() {
		tx, err := s.k.txMgr.Begin(s.txType)
		if err != nil {
			return nil, err
		}
		s.tx = tx
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
	canFailover := readOnly && s.tx == nil
	attempts := 1
	var origDS []string
	if canFailover {
		attempts = min(1+len(rw.Units), 4) // at most one failover per candidate replica
		if s.k.hasResolvers {
			origDS = make([]string, len(rw.Units))
			for i := range rw.Units {
				origDS[i] = rw.Units[i].DataSource
			}
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
		var er resource.ExecResult
		er, execErr = s.k.executor.ExecuteUpdateCtx(ctx, rw.Units, heldOf(s.tx), s.tr)
		if execErr == nil {
			s.tr.Mark(telemetry.StageExecute)
			result = &Result{Affected: er.Affected, LastInsertID: er.LastInsertID}
			if genKey != 0 {
				result.LastInsertID = genKey
			}
			if stmt.StatementType() == sqlparser.StmtDDL {
				s.k.InvalidateMeta()
			}
		}
	}
	if s.tx != nil {
		if err := s.tx.AfterStatement(ctx, rw.Units, execErr); err != nil {
			return nil, err
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

func heldOf(tx transaction.Tx) *exec.HeldConns {
	if tx == nil {
		return nil
	}
	return tx.Held()
}

// executeSet applies SET name = value. It is the one place the two
// session-scoped names are validated and applied: DistSQL's SET VARIABLE
// hands them here as a SetStmt. Any other name is a plain session
// variable.
func (s *Session) executeSet(t *sqlparser.SetStmt) (*Result, error) {
	name := strings.ToLower(t.Name)
	switch name {
	case "transaction_type":
		typ, err := transaction.ParseType(t.Value.AsString())
		if err != nil {
			return nil, err
		}
		s.txType = typ
	case "statement_timeout_ms":
		ms, err := strconv.ParseInt(strings.TrimSpace(t.Value.AsString()), 10, 64)
		if err != nil || ms < 0 {
			return nil, fmt.Errorf("core: statement_timeout_ms wants a non-negative integer, got %q", t.Value.AsString())
		}
		s.stmtTimeout = time.Duration(ms) * time.Millisecond
	}
	s.vars[name] = t.Value
	return &Result{}, nil
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
	if def := rules.DefaultDataSource; def != "" {
		if src, err := s.k.executor.Source(def); err == nil {
			if conn, err := src.Acquire(); err == nil {
				if rs, err := conn.Query(context.Background(), "SHOW TABLES"); err == nil {
					rows, _ := resource.ReadAll(rs)
					for _, r := range rows {
						if !isActualTable(rules, r[0].AsString()) {
							add(r[0].AsString())
						}
					}
				}
				conn.Release()
			}
		}
	}
	names = sortedNames(names)
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
	rules := s.k.Rules()
	ds := rules.DefaultDataSource
	table := t.Table
	if rule, ok := rules.Rule(t.Table); ok && len(rule.DataNodes) > 0 {
		ds = rule.DataNodes[0].DataSource
		table = rule.DataNodes[0].Table
	}
	src, err := s.k.executor.Source(ds)
	if err != nil {
		return nil, err
	}
	conn, err := src.Acquire()
	if err != nil {
		return nil, err
	}
	defer conn.Release()
	rs, err := conn.Query(context.Background(), "DESCRIBE "+table)
	if err != nil {
		return nil, err
	}
	rows, err := resource.ReadAll(rs)
	if err != nil {
		return nil, err
	}
	return &Result{RS: resource.NewSliceResultSet(rs.Columns(), rows)}, nil
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
	src, err := s.k.executor.Source(s.k.Rules().DefaultDataSource)
	if err != nil {
		return nil, err
	}
	conn, err := src.Acquire()
	if err != nil {
		return nil, err
	}
	defer conn.Release()
	ser := sqlparser.NewSerializer(src.Dialect())
	rs, err := conn.Query(context.Background(), ser.Serialize(sel), args...)
	if err != nil {
		return nil, err
	}
	rows, err := resource.ReadAll(rs)
	if err != nil {
		return nil, err
	}
	return &Result{RS: resource.NewSliceResultSet(rs.Columns(), rows)}, nil
}
