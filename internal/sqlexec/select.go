package sqlexec

import (
	"fmt"
	"math"
	"strconv"

	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
)

// tableSource is one resolved FROM table.
type tableSource struct {
	ref  sqlparser.TableRef
	tbl  *storage.Table
	cols tableCols
}

func (s *Session) resolveSources(stmt *sqlparser.SelectStmt) ([]tableSource, error) {
	sources := make([]tableSource, len(stmt.From))
	base := 0
	for i, ref := range stmt.From {
		tbl, err := s.engine.Table(ref.Name)
		if err != nil {
			return nil, err
		}
		names := []string{ref.Name}
		if ref.Alias != "" {
			names = append(names, ref.Alias)
		}
		sources[i] = tableSource{ref: ref, tbl: tbl, cols: tableCols{quals: names, schema: tbl.Schema(), base: base}}
		base += len(tbl.Schema())
	}
	return sources, nil
}

// executeSelect runs a SELECT. A single-table statement runs from its
// select plan, which the statement's cache entry retains once the text
// repeats; a join resolves and joins its sources per execution and then
// goes through the same output stage.
func (s *Session) executeSelect(st *Stmt, stmt *sqlparser.SelectStmt, args []sqltypes.Value) (*Result, error) {
	switch len(stmt.From) {
	case 0:
		return s.selectWithoutFrom(stmt, args)
	case 1:
		p, err := s.selectPlanFor(st, stmt)
		if err != nil {
			return nil, err
		}
		return p.run([]*storage.Table{p.tbl}, args, s.txID(), &s.arena, nil)
	}
	sources, err := s.resolveSources(stmt)
	if err != nil {
		return nil, err
	}
	rows, tables, err := s.joinSources(sources, splitConjuncts(stmt.Where), args)
	if err != nil {
		return nil, err
	}
	env := &rowEnv{tables: tables, args: args}
	// Residual WHERE filter (access paths only prune, never decide).
	if stmt.Where != nil {
		kept := rows[:0]
		for _, r := range rows {
			env.row = r
			v, err := env.eval(stmt.Where)
			if err != nil {
				return nil, err
			}
			if v.Bool() {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	out, err := compileOutput(stmt, env)
	if err != nil {
		return nil, err
	}
	return out.produce(env, rows)
}

func (s *Session) selectWithoutFrom(stmt *sqlparser.SelectStmt, args []sqltypes.Value) (*Result, error) {
	env := &rowEnv{args: args}
	res := &Result{Columns: []string{}}
	row := make(sqltypes.Row, 0, len(stmt.Items))
	for _, item := range stmt.Items {
		if item.Star {
			return nil, fmt.Errorf("sqlexec: SELECT * requires a FROM clause")
		}
		v, err := env.eval(item.Expr)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
		res.Columns = append(res.Columns, itemName(item, env))
	}
	res.Rows = []sqltypes.Row{row}
	return res, nil
}

// joinSources scans the first table and folds each further table in with a
// hash join (equi ON), or a nested-loop join otherwise. It returns the
// joined rows and the tables that make up their columns.
func (s *Session) joinSources(sources []tableSource, whereConjuncts []sqlparser.Expr, args []sqltypes.Value) ([]sqltypes.Row, []tableCols, error) {
	txID := s.txID()
	// Leaf scan with pushed-down single-table predicates, into the arena.
	leafRows := func(src tableSource) []sqltypes.Row {
		shape := shapeAccess(src.tbl, &src.cols, applicableTo(whereConjuncts, &src.cols))
		var keys [2]sqltypes.Value
		var rows []sqltypes.Row
		shape.fetch(src.tbl, txID, shape.bind(args, &keys), func(se storage.ScanEntry) bool {
			rows = append(rows, s.arena.decode(se))
			return true
		})
		return rows
	}

	acc := leafRows(sources[0])
	accCols := []tableCols{sources[0].cols}
	for i := 1; i < len(sources); i++ {
		src := sources[i]
		joined, err := joinStep(acc, accCols, leafRows(src), src, args)
		if err != nil {
			return nil, nil, err
		}
		acc = joined
		accCols = append(accCols, src.cols)
	}
	return acc, accCols, nil
}

// applicableTo keeps the conjuncts whose every column resolves within the
// one table: the predicates its scan may use to pick an access path.
func applicableTo(conjuncts []sqlparser.Expr, t *tableCols) []sqlparser.Expr {
	var out []sqlparser.Expr
	for _, c := range conjuncts {
		within := true
		sqlparser.WalkExpr(c, func(x sqlparser.Expr) bool {
			if ref, isCol := x.(*sqlparser.ColumnRef); isCol && !t.owns(ref) {
				within = false
			}
			return within
		})
		if within {
			out = append(out, c)
		}
	}
	return out
}

// joinStep joins the accumulated left rows with the right table's rows.
func joinStep(left []sqltypes.Row, leftCols []tableCols, right []sqltypes.Row, src tableSource, args []sqltypes.Value) ([]sqltypes.Row, error) {
	jt := src.ref.Join
	on := src.ref.On
	// The right table evaluated alone starts at column 0.
	rightAlone := src.cols
	rightAlone.base = 0
	rightCols := []tableCols{rightAlone}
	leftWidth, rightWidth := envWidth(leftCols), len(src.cols.schema)
	combinedEnv := &rowEnv{tables: append(append([]tableCols{}, leftCols...), src.cols), args: args}

	evalOn := func(l, r sqltypes.Row) (bool, error) {
		if on == nil {
			return true, nil
		}
		combinedEnv.row = append(append(sqltypes.Row{}, l...), r...)
		v, err := combinedEnv.eval(on)
		if err != nil {
			return false, err
		}
		return v.Bool(), nil
	}

	// Try a hash join for inner/left joins with at least one equi-pair.
	if (jt == sqlparser.JoinInner || jt == sqlparser.JoinLeft) && on != nil {
		lExpr, rExpr, ok := findEquiPair(on, leftCols, rightCols)
		if ok {
			return hashJoin(left, leftCols, right, rightCols, lExpr, rExpr, jt, args, evalOn)
		}
	}

	// Nested loop join.
	var out []sqltypes.Row
	switch jt {
	case sqlparser.JoinRight:
		for _, r := range right {
			matched := false
			for _, l := range left {
				ok, err := evalOn(l, r)
				if err != nil {
					return nil, err
				}
				if ok {
					out = append(out, concatRows(l, r))
					matched = true
				}
			}
			if !matched {
				out = append(out, concatRows(nullRow(leftWidth), r))
			}
		}
	case sqlparser.JoinLeft:
		for _, l := range left {
			matched := false
			for _, r := range right {
				ok, err := evalOn(l, r)
				if err != nil {
					return nil, err
				}
				if ok {
					out = append(out, concatRows(l, r))
					matched = true
				}
			}
			if !matched {
				out = append(out, concatRows(l, nullRow(rightWidth)))
			}
		}
	default: // inner and cross
		for _, l := range left {
			for _, r := range right {
				ok, err := evalOn(l, r)
				if err != nil {
					return nil, err
				}
				if ok {
					out = append(out, concatRows(l, r))
				}
			}
		}
	}
	return out, nil
}

// findEquiPair finds one conjunct of ON shaped "leftExpr = rightExpr"
// where each side resolves entirely on its own input.
func findEquiPair(on sqlparser.Expr, leftCols, rightCols []tableCols) (sqlparser.Expr, sqlparser.Expr, bool) {
	for _, c := range splitConjuncts(on) {
		b, ok := c.(*sqlparser.BinaryExpr)
		if !ok || b.Op != sqlparser.OpEQ {
			continue
		}
		switch {
		case sideResolves(b.L, leftCols) && sideResolves(b.R, rightCols):
			return b.L, b.R, true
		case sideResolves(b.R, leftCols) && sideResolves(b.L, rightCols):
			return b.R, b.L, true
		}
	}
	return nil, nil, false
}

func sideResolves(e sqlparser.Expr, cols []tableCols) bool {
	env := &rowEnv{tables: cols}
	ok := true
	hasCol := false
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		if ref, isCol := x.(*sqlparser.ColumnRef); isCol {
			hasCol = true
			if _, err := env.lookup(ref); err != nil {
				ok = false
				return false
			}
		}
		return true
	})
	return ok && hasCol
}

func hashJoin(left []sqltypes.Row, leftCols []tableCols, right []sqltypes.Row, rightCols []tableCols,
	lExpr, rExpr sqlparser.Expr, jt sqlparser.JoinType, args []sqltypes.Value,
	evalOn func(l, r sqltypes.Row) (bool, error)) ([]sqltypes.Row, error) {

	rightEnv := &rowEnv{tables: rightCols, args: args}
	table := make(map[string][]sqltypes.Row, len(right))
	for _, r := range right {
		rightEnv.row = r
		v, err := rightEnv.eval(rExpr)
		if err != nil {
			return nil, err
		}
		if v.IsNull() {
			continue
		}
		k := hashKey(v)
		table[k] = append(table[k], r)
	}
	leftEnv := &rowEnv{tables: leftCols, args: args}
	var out []sqltypes.Row
	for _, l := range left {
		leftEnv.row = l
		v, err := leftEnv.eval(lExpr)
		if err != nil {
			return nil, err
		}
		matched := false
		if !v.IsNull() {
			for _, r := range table[hashKey(v)] {
				ok, err := evalOn(l, r)
				if err != nil {
					return nil, err
				}
				if ok {
					out = append(out, concatRows(l, r))
					matched = true
				}
			}
		}
		if !matched && jt == sqlparser.JoinLeft {
			out = append(out, concatRows(l, nullRow(envWidth(rightCols))))
		}
	}
	return out, nil
}

func concatRows(a, b sqltypes.Row) sqltypes.Row {
	out := make(sqltypes.Row, 0, len(a)+len(b))
	return append(append(out, a...), b...)
}

func nullRow(n int) sqltypes.Row {
	return make(sqltypes.Row, n)
}

// hashKey renders a value as a map key; numeric kinds share an encoding so
// 2 and 2.0 join. Integers never round-trip through float64 — beyond 2^53
// that would collapse distinct keys (snowflake ids live up there).
func hashKey(v sqltypes.Value) string {
	if v.Kind == sqltypes.KindString {
		return "s" + v.S
	}
	var buf [24]byte
	return string(appendKey(buf[:0], v))
}

// appendKey appends hashKey's encoding of v to b.
func appendKey(b []byte, v sqltypes.Value) []byte {
	switch v.Kind {
	case sqltypes.KindString:
		return append(append(b, 's'), v.S...)
	case sqltypes.KindNull:
		return append(b, 'n')
	case sqltypes.KindInt, sqltypes.KindBool:
		return strconv.AppendInt(append(b, 'i'), v.I, 10)
	default:
		f := v.F
		if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
			return strconv.AppendInt(append(b, 'i'), int64(f), 10)
		}
		return strconv.AppendFloat(append(b, 'f'), f, 'g', -1, 64)
	}
}
