package sqlexec

import (
	"sync/atomic"

	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
)

// Stmt is one entry of the processor's statement cache: the parsed
// statement and, for a single-table SELECT, its select plan. Entries are
// shared across sessions. The cache keeps an entry from its text's
// keepSights-th sight; an earlier execution runs from an entry, and a plan,
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

// scan fetches the rows the WHERE clause keeps: the access path prunes,
// the residual predicate decides.
func (p *selectPlan) scan(env *rowEnv, txID int64) ([]sqltypes.Row, error) {
	var keys [2]sqltypes.Value
	// Sized for a shard's slice of a fanned-out statement: a few rows.
	rows := make([]sqltypes.Row, 0, 4)
	var evalErr error
	p.access.fetch(p.tbl, txID, p.access.bind(env.args, &keys), func(se storage.ScanEntry) bool {
		if p.where != nil {
			env.row = se.Row
			v, err := env.eval(p.where)
			if err != nil {
				evalErr = err
				return false
			}
			if !v.Bool() {
				return true
			}
		}
		rows = append(rows, se.Row)
		return true
	})
	return rows, evalErr
}
