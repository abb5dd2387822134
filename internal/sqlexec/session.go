package sqlexec

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"shardingsphere/internal/sights"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
	"shardingsphere/internal/telemetry"
)

// Processor wraps one storage engine with a shared statement cache, the Go
// analogue of a server-side prepared-statement cache. Rewritten SQL
// arriving from the kernel repeats heavily (a handful of templates with
// different literals is still distinct text, but placeholder-driven
// workloads repeat exactly), so caching the parse is a measurable win, and
// a text that repeats also keeps its select plan (see Stmt).
type Processor struct {
	engine *storage.Engine
	stats  Stats

	// cache holds the texts seen sights.Keep times; sights counts the
	// sights of the others. A text that never repeats (inlined literals,
	// an XA verb with a literal xid, a storm of aliases) leaves nine bytes
	// behind, not its AST, and never pushes a repeating text out.
	mu     sync.RWMutex
	cache  map[string]*Stmt
	sights *sights.Record
}

// cacheLimit bounds the cache; a full one is emptied (literal-heavy
// workloads would otherwise grow it without bound). It equals the sight
// record's window, so a repeating working set up to the cache's own size
// is always admitted.
const cacheLimit = 8192

// NewProcessor returns a query processor over the engine.
func NewProcessor(engine *storage.Engine) *Processor {
	return &Processor{
		engine: engine,
		cache:  map[string]*Stmt{},
		sights: sights.New(),
	}
}

// parse returns the cache entry for sql, parsing on miss; the entry is
// kept from the text's sights.Keep-th sight.
func (p *Processor) parse(sql string) (*Stmt, error) {
	p.mu.RLock()
	st, ok := p.cache[sql]
	p.mu.RUnlock()
	if ok {
		return st, nil
	}
	p.stats.Parses.Add(1)
	ast, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	st = &Stmt{ast: ast}
	if p.sights.See(sql) {
		p.mu.Lock()
		if len(p.cache) >= cacheLimit {
			p.cache = map[string]*Stmt{}
		}
		p.cache[sql] = st
		p.mu.Unlock()
	}
	return st, nil
}

// NewSession opens a session (the server-side state of one connection).
func (p *Processor) NewSession() *Session {
	return &Session{engine: p.engine, proc: p, vars: map[string]sqltypes.Value{}}
}

// Session is one connection's execution context: its open transaction and
// session variables. Sessions are not safe for concurrent use, matching
// database connection semantics.
type Session struct {
	engine *storage.Engine
	proc   *Processor
	tx     *storage.Tx
	xaXID  string
	// savepoints are the open transaction's named marks, oldest first.
	savepoints []savepoint
	vars       map[string]sqltypes.Value
	arena      arena

	// Span recording state, armed via BeginTrace for statements that
	// arrived with an active trace context (see trace.go).
	recOn   bool
	recBase time.Time
	rec     []telemetry.RemoteSpan
}

// savepoint is a SAVEPOINT's name and the transaction's mark it names.
type savepoint struct {
	name string
	mark int
}

// arena holds the rows a statement decodes from storage, each a window of
// vals, and the list of those a scan keeps. It is emptied when the
// statement ends, and its room is reused by the next. No result points
// into it: the output stage copies what it keeps.
type arena struct {
	vals sqltypes.Row
	rows []sqltypes.Row
}

// arenaKeep bounds the room a session keeps between statements; a larger
// arena, grown by a long scan, is let go.
const arenaKeep = 1 << 12

// decode appends the row behind se and returns its window.
func (a *arena) decode(se storage.ScanEntry) sqltypes.Row {
	n := len(a.vals)
	a.vals = se.Decode(a.vals)
	return a.vals[n:len(a.vals):len(a.vals)]
}

// alloc returns a window of n NULLs.
func (a *arena) alloc(n int) sqltypes.Row {
	at := len(a.vals)
	a.vals = append(a.vals, make(sqltypes.Row, n)...)
	return a.vals[at : at+n : at+n]
}

// pop gives back the last window, row.
func (a *arena) pop(row sqltypes.Row) {
	clear(row)
	a.vals = a.vals[:len(a.vals)-len(row)]
}

// reset empties the arena. Its values are cleared, so it keeps no stored
// version alive.
func (a *arena) reset() {
	clear(a.rows)
	clear(a.vals)
	a.rows, a.vals = a.rows[:0], a.vals[:0]
	if cap(a.vals) > arenaKeep {
		a.rows, a.vals = nil, nil
	}
}

// txID returns the visibility context for reads.
func (s *Session) txID() int64 {
	if s.tx != nil {
		return s.tx.ID()
	}
	return 0
}

// Execute runs one SQL statement with optional bind arguments.
func (s *Session) Execute(sql string, args ...sqltypes.Value) (*Result, error) {
	res, _, err := s.ExecuteTables(sql, nil, args...)
	return res, err
}

// ExecuteTables runs sql as Execute does, or, when names is not nil, a
// plain single-table SELECT's plan over the listed tables' union: its scan
// per table, its output stage once. Each table must exist, appear once and
// have the plan table's definition, else, or for another text or an empty
// list, it fails with ErrTableList. counts holds the rows each table's
// scan kept.
func (s *Session) ExecuteTables(sql string, names []string, args ...sqltypes.Value) (res *Result, counts []int, err error) {
	t0 := s.recStart()
	st, err := s.proc.parse(sql)
	s.recSpan("parse", t0, err)
	if err != nil {
		s.proc.stats.Statements.Add(1)
		s.proc.stats.Errors.Add(1)
		return nil, nil, err
	}
	// The entry is shared across sessions; its AST is read-only.
	if names != nil {
		res, counts, err = s.executeTables(st, names, args)
	} else {
		res, err = s.executeStmt(st, args)
	}
	s.arena.reset()
	s.proc.stats.Statements.Add(1)
	if err != nil {
		s.proc.stats.Errors.Add(1)
	}
	// executeTables charges each listed table itself.
	if p := st.plan.Load(); p != nil && names == nil {
		p.stat.note(false, err != nil)
	} else if table, write, ok := stmtTable(st.ast); ok && names == nil {
		s.proc.stats.tableStat(table).note(write, err != nil)
	}
	return res, counts, err
}

// stmtTable names the table a DML statement targets (single-table
// shapes only), for the node's per-table heat counters. A SELECT that has
// retained its plan is charged through the plan instead.
func stmtTable(stmt sqlparser.Statement) (table string, write, ok bool) {
	switch t := stmt.(type) {
	case *sqlparser.SelectStmt:
		if len(t.From) == 1 {
			return t.From[0].Name, false, true
		}
	case *sqlparser.InsertStmt:
		return t.Table, true, true
	case *sqlparser.UpdateStmt:
		return t.Table, true, true
	case *sqlparser.DeleteStmt:
		return t.Table, true, true
	}
	return "", false, false
}

func (s *Session) executeStmt(st *Stmt, args []sqltypes.Value) (*Result, error) {
	switch t := st.ast.(type) {
	case *sqlparser.SelectStmt:
		if t.ForUpdate {
			t0 := s.recStart()
			err := s.lockForUpdate(t, args)
			s.recSpan("lock_wait", t0, err)
			if err != nil {
				return nil, err
			}
		}
		t0 := s.recStart()
		res, err := s.executeSelect(st, t, args)
		s.recSpan("read", t0, err)
		return res, err
	case *sqlparser.InsertStmt:
		return s.autocommit(func(tx *storage.Tx) (*Result, error) {
			t0 := s.recStart()
			res, err := s.executeInsert(tx, t, args)
			s.recSpan("write", t0, err)
			return res, err
		})
	case *sqlparser.UpdateStmt:
		return s.autocommit(func(tx *storage.Tx) (*Result, error) {
			t0 := s.recStart()
			res, err := s.executeUpdate(tx, t, args)
			s.recSpan("write", t0, err)
			return res, err
		})
	case *sqlparser.DeleteStmt:
		return s.autocommit(func(tx *storage.Tx) (*Result, error) {
			t0 := s.recStart()
			res, err := s.executeDelete(tx, t, args)
			s.recSpan("write", t0, err)
			return res, err
		})
	case *sqlparser.CreateTableStmt:
		return s.executeCreateTable(t)
	case *sqlparser.DropTableStmt:
		if err := s.engine.DropTable(t.Table); err != nil {
			if t.IfExists {
				return &Result{}, nil
			}
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.TruncateStmt:
		if err := s.engine.Truncate(t.Table); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.CreateIndexStmt:
		if err := s.engine.CreateIndex(storage.IndexSpec{Name: t.Name, Table: t.Table, Columns: t.Columns}); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.BeginStmt:
		if s.tx != nil {
			return nil, ErrInTransaction
		}
		s.tx, s.savepoints = s.engine.Begin(), s.savepoints[:0]
		return &Result{}, nil
	case *sqlparser.CommitStmt:
		if s.tx == nil {
			return &Result{}, nil // MySQL-compatible: COMMIT outside tx is a no-op
		}
		tx := s.tx
		s.tx = nil
		t0 := s.recStart()
		err := tx.Commit()
		s.recSpan("commit", t0, err)
		if err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.SavepointStmt:
		if s.tx == nil {
			return nil, ErrNoTransaction
		}
		// A name set again moves to the transaction's present.
		s.savepoints = slices.DeleteFunc(s.savepoints, func(sp savepoint) bool { return strings.EqualFold(sp.name, t.Name) })
		s.savepoints = append(s.savepoints, savepoint{t.Name, s.tx.Savepoint()})
		return &Result{}, nil
	case *sqlparser.RollbackStmt:
		if t.Savepoint != "" {
			return s.rollbackTo(t.Savepoint)
		}
		if s.tx == nil {
			return &Result{}, nil
		}
		tx := s.tx
		s.tx = nil
		if err := tx.Rollback(); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.XAStmt:
		xid, err := xaXID(t, args)
		if err != nil {
			return nil, err
		}
		return s.executeXA(t.Op, xid)
	case *sqlparser.ShowStmt:
		names := s.engine.TableNames()
		res := &Result{Columns: []string{"Tables"}}
		for _, n := range names {
			res.Rows = append(res.Rows, sqltypes.Row{sqltypes.NewString(n)})
		}
		return res, nil
	case *sqlparser.DescribeStmt:
		tbl, err := s.engine.Table(t.Table)
		if err != nil {
			return nil, err
		}
		res := &Result{Columns: []string{"Field", "Type", "Key"}}
		pk := map[int]bool{}
		for _, c := range tbl.PKColumns() {
			pk[c] = true
		}
		for i, c := range tbl.Schema() {
			key := ""
			if pk[i] {
				key = "PRI"
			}
			res.Rows = append(res.Rows, sqltypes.Row{
				sqltypes.NewString(c.Name),
				sqltypes.NewString(c.Type.String()),
				sqltypes.NewString(key),
			})
		}
		return res, nil
	case *sqlparser.SetStmt:
		s.vars[lowerASCII(t.Name)] = t.Value
		return &Result{}, nil
	default:
		return nil, fmt.Errorf("sqlexec: unsupported statement %T", st.ast)
	}
}

// rollbackTo undoes the open transaction's writes since the named
// savepoint, which stays set; the savepoints set after it go.
func (s *Session) rollbackTo(name string) (*Result, error) {
	i := slices.IndexFunc(s.savepoints, func(sp savepoint) bool { return strings.EqualFold(sp.name, name) })
	if s.tx == nil || i < 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoSavepoint, name)
	}
	if err := s.tx.RollbackTo(s.savepoints[i].mark); err != nil {
		return nil, err
	}
	s.savepoints = s.savepoints[:i+1]
	return &Result{}, nil
}

// autocommit runs op in the session's open transaction, where a failed
// write leaves nothing and the transaction goes on, or in an implicit
// single-statement transaction when none is open.
func (s *Session) autocommit(op func(*storage.Tx) (*Result, error)) (*Result, error) {
	if s.tx != nil {
		sp := s.tx.Savepoint()
		res, err := op(s.tx)
		if err != nil {
			// It fails only on a transaction no longer active, where op wrote
			// nothing.
			s.tx.RollbackTo(sp)
		}
		return res, err
	}
	tx := s.engine.Begin()
	res, err := op(tx)
	if err != nil {
		tx.Rollback()
		return nil, err
	}
	t0 := s.recStart()
	err = tx.Commit()
	s.recSpan("commit", t0, err)
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (s *Session) executeCreateTable(t *sqlparser.CreateTableStmt) (*Result, error) {
	spec := storage.TableSpec{Name: t.Table}
	for _, col := range t.Columns {
		spec.Schema = append(spec.Schema, sqltypes.Column{Name: col.Name, Type: col.Type})
		if col.PrimaryKey {
			spec.PrimaryKey = append(spec.PrimaryKey, col.Name)
		}
		if col.NotNull {
			spec.NotNull = append(spec.NotNull, col.Name)
		}
		if col.AutoIncrement {
			spec.AutoIncrement = col.Name
		}
	}
	if len(t.PrimaryKey) > 0 {
		spec.PrimaryKey = t.PrimaryKey
	}
	if err := s.engine.CreateTable(spec); err != nil {
		if t.IfNotExists && s.engine.HasTable(t.Table) {
			return &Result{}, nil
		}
		return nil, err
	}
	return &Result{}, nil
}

// xaXID is the xid a verb names: its literal, or, for XA <verb> ?, its one
// argument, a non-empty string. A literal verb takes no argument.
func xaXID(t *sqlparser.XAStmt, args []sqltypes.Value) (string, error) {
	switch {
	case !t.Bound && len(args) == 0:
		return t.XID, nil
	case !t.Bound || len(args) != 1:
		return "", fmt.Errorf("%w: %d for %s (only a bound xid, ?, takes one)", ErrBadArgCount, len(args), t.Op)
	case args[0].Kind != sqltypes.KindString || args[0].S == "":
		return "", fmt.Errorf("%w: %s bound %s %q", ErrBadXID, t.Op, args[0].Kind, args[0].AsString())
	}
	return args[0].S, nil
}

// executeXA drives the engine's XA verbs. XA BEGIN opens a transaction
// bound to the XID; XA PREPARE detaches it into the engine's in-doubt set;
// XA COMMIT / XA ROLLBACK resolve any prepared XID, which is exactly what
// the kernel's transaction manager sends during 2PC and recovery.
func (s *Session) executeXA(op sqlparser.XAOp, xid string) (*Result, error) {
	switch op {
	case sqlparser.XABegin:
		if s.tx != nil {
			return nil, ErrInTransaction
		}
		s.tx, s.savepoints = s.engine.Begin(), s.savepoints[:0]
		s.xaXID = xid
		return &Result{}, nil
	case sqlparser.XAAdopt:
		// Lazy upgrade: bind the active plain transaction to the XID so it
		// can be prepared. The coordinator's single-shard fast path promotes
		// its local branch this way when a second data source joins.
		if s.tx == nil {
			return nil, fmt.Errorf("sqlexec: XA ADOPT with no open transaction")
		}
		if s.xaXID != "" && s.xaXID != xid {
			return nil, fmt.Errorf("sqlexec: XA ADOPT inside XA branch %q", s.xaXID)
		}
		s.xaXID = xid
		return &Result{}, nil
	case sqlparser.XAEnd:
		if s.tx == nil || s.xaXID != xid {
			return nil, fmt.Errorf("sqlexec: XA END for unknown xid %q", xid)
		}
		return &Result{}, nil
	case sqlparser.XAPrepare:
		if s.tx == nil || s.xaXID != xid {
			return nil, fmt.Errorf("sqlexec: XA PREPARE for unknown xid %q", xid)
		}
		if err := s.engine.Prepare(s.tx, xid); err != nil {
			return nil, err
		}
		s.tx = nil
		s.xaXID = ""
		return &Result{}, nil
	case sqlparser.XACommit:
		if err := s.engine.CommitPrepared(xid); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case sqlparser.XARollback:
		// Rolling back an XID that was never prepared (branch failed before
		// prepare) resolves any local state silently.
		if s.tx != nil && s.xaXID == xid {
			tx := s.tx
			s.tx = nil
			s.xaXID = ""
			if err := tx.Rollback(); err != nil {
				return nil, err
			}
			return &Result{}, nil
		}
		if err := s.engine.RollbackPrepared(xid); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case sqlparser.XARecover:
		res := &Result{Columns: []string{"xid"}}
		for _, x := range s.engine.RecoverPrepared() {
			res.Rows = append(res.Rows, sqltypes.Row{sqltypes.NewString(x)})
		}
		return res, nil
	default:
		return nil, fmt.Errorf("sqlexec: unsupported XA op")
	}
}

// Close rolls back any open transaction; call when the connection drops.
func (s *Session) Close() {
	if s.tx != nil {
		s.tx.Rollback()
		s.tx = nil
	}
}
