package sqlexec

import (
	"fmt"
	"slices"
	"sync/atomic"

	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
)

// Stmt is one entry of the processor's statement cache: the parsed
// statement and, for a single-table SELECT, its select plan. Entries are
// shared across sessions. The cache keeps an entry from its text's
// sights.Keep-th sight; an earlier execution runs from an entry, and a plan,
// that die with it, so a workload of one-shot texts stores neither.
type Stmt struct {
	ast  sqlparser.Statement
	plan atomic.Pointer[selectPlan]
}

// selectPlan is everything about executing a single-table SELECT that the
// statement text and the table's definition decide: the resolved table,
// its column binding, the WHERE clause's access shape, and the output
// stage. Bind arguments enter only when a plan runs. A retained plan is
// valid while the engine's DDL epoch is the one it was compiled under.
type selectPlan struct {
	epoch  uint64
	tbl    *storage.Table
	stat   *tableStat  // the table's heat counters, resolved once for every execution
	tables []tableCols // the one FROM table, as the row environment binds it
	where  sqlparser.Expr
	access accessShape
	out    *output
}

// selectPlanFor returns the statement's plan: the retained one while it
// is valid, else a fresh compile, which the entry keeps.
func (s *Session) selectPlanFor(st *Stmt, stmt *sqlparser.SelectStmt) (*selectPlan, error) {
	if p := st.plan.Load(); p != nil && p.epoch == s.engine.DDLEpoch() {
		return p, nil
	}
	p, err := s.compileSelect(stmt)
	if err != nil {
		return nil, err
	}
	st.plan.Store(p)
	return p, nil
}

// compileSelect builds the plan of a single-table SELECT. The epoch is
// read before the table's definition, so a plan that raced a DDL carries
// the older epoch and is recompiled on its next use.
func (s *Session) compileSelect(stmt *sqlparser.SelectStmt) (*selectPlan, error) {
	p := &selectPlan{epoch: s.engine.DDLEpoch(), where: stmt.Where}
	ref := stmt.From[0]
	tbl, err := s.engine.Table(ref.Name)
	if err != nil {
		return nil, err
	}
	names := []string{ref.Name}
	if ref.Alias != "" {
		names = append(names, ref.Alias)
	}
	p.tbl, p.stat = tbl, s.proc.stats.tableStat(ref.Name)
	p.tables = []tableCols{{quals: names, schema: tbl.Schema()}}
	p.access = shapeAccess(tbl, &p.tables[0], applicableTo(splitConjuncts(stmt.Where), &p.tables[0]))
	if p.out, err = compileOutput(stmt, &rowEnv{tables: p.tables}); err != nil {
		return nil, err
	}
	return p, nil
}

// scan appends to rows the rows of tbl — the plan's table or one defined
// as it is — that the WHERE clause keeps, each decoded into the session's
// arena a: the access path, bound to the arguments once per statement (ap),
// prunes; the residual predicate decides. A rejected row's window is
// reused.
func (p *selectPlan) scan(tbl *storage.Table, ap accessPlan, env *rowEnv, txID int64, a *arena, rows []sqltypes.Row) ([]sqltypes.Row, error) {
	var evalErr error
	p.access.fetch(tbl, txID, ap, func(se storage.ScanEntry) bool {
		row := a.decode(se)
		if p.where != nil {
			env.row = row
			v, err := env.eval(p.where)
			if err != nil {
				evalErr = err
				return false
			}
			if !v.Bool() {
				a.pop(row)
				return true
			}
		}
		rows = append(rows, row)
		return true
	})
	return rows, evalErr
}

// run scans tbls — the plan's table, or a list of tables defined as it
// is — into the session's arena a and runs the output stage once over the
// rows they kept. counts, when set, receives the rows each table's scan
// kept.
func (p *selectPlan) run(tbls []*storage.Table, args []sqltypes.Value, txID int64, a *arena, counts []int) (*Result, error) {
	env := &rowEnv{tables: p.tables, args: args}
	var keys [2]sqltypes.Value
	ap := p.access.bind(args, &keys)
	rows := a.rows[:0]
	for i, tbl := range tbls {
		n := len(rows)
		var err error
		if rows, err = p.scan(tbl, ap, env, txID, a, rows); err != nil {
			return nil, err
		}
		if counts != nil {
			counts[i] = len(rows) - n
		}
	}
	a.rows = rows // the output stage copies what it keeps
	return p.out.produce(env, rows)
}

// executeTables checks the list against the text's plan, runs it and
// charges each listed table's heat counters.
func (s *Session) executeTables(st *Stmt, names []string, args []sqltypes.Value) (*Result, []int, error) {
	stmt, ok := st.ast.(*sqlparser.SelectStmt)
	if !ok || len(stmt.From) != 1 || stmt.ForUpdate || len(names) == 0 {
		return nil, nil, fmt.Errorf("%w: it takes a plain single-table SELECT and at least one table", ErrTableList)
	}
	p, err := s.selectPlanFor(st, stmt)
	if err != nil {
		return nil, nil, err
	}
	def := p.tbl.Definition()
	var buf [16]*storage.Table // a list of up to 16 allocates nothing
	tbls := buf[:0]
	for i, name := range names {
		tbl, err := s.engine.Table(name)
		switch {
		case slices.Contains(names[:i], name):
			return nil, nil, fmt.Errorf("%w: table %s is listed twice", ErrTableList, name)
		case err != nil:
			return nil, nil, fmt.Errorf("%w: %w", ErrTableList, err)
		case tbl.Definition() != def:
			return nil, nil, fmt.Errorf("%w: table %s is not defined as %s is", ErrTableList, name, p.tbl.Name())
		}
		tbls = append(tbls, tbl)
	}
	t0 := s.recStart()
	counts := make([]int, len(names))
	res, err := p.run(tbls, args, s.txID(), &s.arena, counts)
	s.recSpan("read", t0, err)
	for _, name := range names {
		s.proc.stats.tableStat(name).note(false, err != nil)
	}
	return res, counts, err
}
