package sqlexec

import (
	"fmt"

	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
)

func (s *Session) executeInsert(tx *storage.Tx, stmt *sqlparser.InsertStmt, args []sqltypes.Value) (*Result, error) {
	tbl, err := s.engine.Table(stmt.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	// Map statement columns to schema positions.
	var positions []int
	if len(stmt.Columns) == 0 {
		positions = make([]int, len(schema))
		for i := range schema {
			positions[i] = i
		}
	} else {
		positions = make([]int, len(stmt.Columns))
		for i, name := range stmt.Columns {
			p := schema.Index(name)
			if p < 0 {
				return nil, fmt.Errorf("%w: %s.%s", ErrUnknownColumn, stmt.Table, name)
			}
			positions[i] = p
		}
	}
	env := &rowEnv{args: args}
	res := &Result{}
	// Insert stores a record of the row, so one window serves every row.
	row := s.arena.alloc(len(schema))
	for _, exprs := range stmt.Rows {
		if len(exprs) != len(positions) {
			return nil, fmt.Errorf("sqlexec: INSERT row has %d values, want %d", len(exprs), len(positions))
		}
		clear(row)
		for i, e := range exprs {
			v, err := env.eval(e)
			if err != nil {
				return nil, err
			}
			row[positions[i]] = v
		}
		inserted, err := tx.Insert(tbl, row)
		if err != nil {
			return nil, err
		}
		if ac := tbl.AutoIncrementColumn(); ac >= 0 {
			res.LastInsertID = inserted[ac].I
		}
		res.Affected++
	}
	return res, nil
}

// matchEntries fetches candidate rows for a WHERE clause on one table and
// returns those that satisfy it, with the environment that binds the
// table's columns. Each candidate is decoded into one arena window in
// turn.
func (s *Session) matchEntries(tbl *storage.Table, alias string, where sqlparser.Expr, args []sqltypes.Value, txID int64) ([]storage.ScanEntry, *rowEnv, error) {
	names := []string{tbl.Name()}
	if alias != "" {
		names = append(names, alias)
	}
	env := &rowEnv{tables: []tableCols{{quals: names, schema: tbl.Schema()}}, args: args}
	shape := shapeAccess(tbl, &env.tables[0], splitConjuncts(where))
	var keys [2]sqltypes.Value
	var entries []storage.ScanEntry
	var evalErr error
	shape.fetch(tbl, txID, shape.bind(args, &keys), func(se storage.ScanEntry) bool {
		row := s.arena.decode(se)
		ok, err := env.matches(where, row)
		s.arena.pop(row)
		if ok {
			entries = append(entries, se)
		}
		evalErr = err
		return err == nil
	})
	return entries, env, evalErr
}

// matches reports whether row satisfies where (nil takes every row). UPDATE
// and DELETE ask it of each scanned row and again of the row they lock.
func (env *rowEnv) matches(where sqlparser.Expr, row sqltypes.Row) (bool, error) {
	env.row = row
	if where == nil {
		return true, nil
	}
	v, err := env.eval(where)
	return err == nil && v.Bool(), err
}

func (s *Session) executeUpdate(tx *storage.Tx, stmt *sqlparser.UpdateStmt, args []sqltypes.Value) (*Result, error) {
	tbl, err := s.engine.Table(stmt.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	entries, env, err := s.matchEntries(tbl, stmt.Alias, stmt.Where, args, tx.ID())
	if err != nil {
		return nil, err
	}
	// Resolve assignment targets once.
	targets := make([]int, len(stmt.Set))
	for i, a := range stmt.Set {
		p := schema.Index(a.Column)
		if p < 0 {
			return nil, fmt.Errorf("%w: %s.%s", ErrUnknownColumn, stmt.Table, a.Column)
		}
		targets[i] = p
	}
	// Each row's locked version and its new one reuse two arena windows.
	buf, next := s.arena.alloc(len(schema)), s.arena.alloc(len(schema))
	set := func(cur sqltypes.Row) (sqltypes.Row, error) {
		if ok, err := env.matches(stmt.Where, cur); !ok || err != nil {
			return nil, err
		}
		newRow := append(next[:0], cur...)
		for i, a := range stmt.Set {
			v, err := env.eval(a.Value)
			if err != nil {
				return nil, err
			}
			newRow[targets[i]] = v
		}
		return newRow, nil
	}
	res := &Result{}
	for _, se := range entries {
		ok, err := tx.Update(tbl, se, buf, set)
		if err != nil {
			return nil, err
		}
		if ok {
			res.Affected++
		}
	}
	return res, nil
}

func (s *Session) executeDelete(tx *storage.Tx, stmt *sqlparser.DeleteStmt, args []sqltypes.Value) (*Result, error) {
	tbl, err := s.engine.Table(stmt.Table)
	if err != nil {
		return nil, err
	}
	entries, env, err := s.matchEntries(tbl, stmt.Alias, stmt.Where, args, tx.ID())
	if err != nil {
		return nil, err
	}
	match := func(cur sqltypes.Row) (bool, error) { return env.matches(stmt.Where, cur) }
	buf := s.arena.alloc(len(tbl.Schema()))
	res := &Result{}
	for _, se := range entries {
		ok, err := tx.Delete(tbl, se, buf, match)
		if err != nil {
			return nil, err
		}
		if ok {
			res.Affected++
		}
	}
	return res, nil
}

// lockForUpdate implements SELECT ... FOR UPDATE for single-table queries
// inside an explicit transaction by acquiring each matching row's write
// lock. The subsequent read (and any re-read in the transaction) then
// observes the latest committed version, so read-modify-write sequences
// cannot lose updates.
func (s *Session) lockForUpdate(stmt *sqlparser.SelectStmt, args []sqltypes.Value) error {
	if s.tx == nil || len(stmt.From) != 1 {
		return nil
	}
	tbl, err := s.engine.Table(stmt.From[0].Name)
	if err != nil {
		return err
	}
	entries, _, err := s.matchEntries(tbl, stmt.From[0].Alias, stmt.Where, args, s.tx.ID())
	if err != nil {
		return err
	}
	for _, se := range entries {
		if _, err := s.tx.Lock(tbl, se); err != nil {
			return err
		}
	}
	return nil
}
