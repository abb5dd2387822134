package route

import (
	"fmt"
	"strings"

	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
)

// evalEnv evaluates constant expressions (literals, placeholders and
// arithmetic over them) during routing.
type evalEnv struct {
	args []sqltypes.Value
}

func (e evalEnv) eval(x sqlparser.Expr) (sqltypes.Value, error) {
	switch t := x.(type) {
	case *sqlparser.Literal:
		return t.Val, nil
	case *sqlparser.Placeholder:
		if t.Index >= len(e.args) {
			return sqltypes.Null, fmt.Errorf("route: missing bind argument %d", t.Index+1)
		}
		return e.args[t.Index], nil
	case *sqlparser.UnaryExpr:
		if t.Op == sqlparser.OpNeg {
			v, err := e.eval(t.E)
			if err != nil {
				return sqltypes.Null, err
			}
			return sqltypes.Sub(sqltypes.NewInt(0), v), nil
		}
	case *sqlparser.BinaryExpr:
		l, err := e.eval(t.L)
		if err != nil {
			return sqltypes.Null, err
		}
		r, err := e.eval(t.R)
		if err != nil {
			return sqltypes.Null, err
		}
		switch t.Op {
		case sqlparser.OpAdd:
			return sqltypes.Add(l, r), nil
		case sqlparser.OpSub:
			return sqltypes.Sub(l, r), nil
		case sqlparser.OpMul:
			return sqltypes.Mul(l, r), nil
		case sqlparser.OpDiv:
			return sqltypes.Div(l, r), nil
		case sqlparser.OpMod:
			return sqltypes.Mod(l, r), nil
		}
	}
	return sqltypes.Null, fmt.Errorf("route: not a constant expression: %T", x)
}

// isConst reports whether the expression references no columns.
func isConst(x sqlparser.Expr) bool {
	ok := true
	sqlparser.WalkExpr(x, func(e sqlparser.Expr) bool {
		if _, isCol := e.(*sqlparser.ColumnRef); isCol {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// condKey resolves a column reference to (logicTable, column); an
// unqualified reference maps to table "".
func condKey(ref *sqlparser.ColumnRef, aliases tableAliases) (string, string) {
	table := ""
	if ref.Table != "" {
		if t, ok := aliases[strings.ToLower(ref.Table)]; ok {
			table = t
		} else {
			table = strings.ToLower(ref.Table)
		}
	}
	return table, strings.ToLower(ref.Name)
}

// extractConditions pulls sharding-usable conditions from an expression:
// only top-level AND conjuncts contribute (an OR branch cannot narrow the
// route safely), and only column-vs-constant comparisons count. The result
// maps logicTable → column → Condition, with table "" holding unqualified
// columns.
func extractConditions(where sqlparser.Expr, args []sqltypes.Value, aliases tableAliases) map[string]map[string]sharding.Condition {
	out := map[string]map[string]sharding.Condition{}
	if where == nil {
		return out
	}
	env := evalEnv{args: args}
	put := func(table, col string, c sharding.Condition) {
		putCond(out, table, col, c)
	}

	for _, conj := range splitAnd(where) {
		switch t := conj.(type) {
		case *sqlparser.BinaryExpr:
			ref, v, op, ok := matchColCmp(t, env)
			if !ok {
				continue
			}
			table, col := condKey(ref, aliases)
			switch op {
			case sqlparser.OpEQ:
				put(table, col, sharding.Condition{Values: []sqltypes.Value{v}})
			case sqlparser.OpGE, sqlparser.OpGT:
				vv := v
				put(table, col, sharding.Condition{Ranged: true, Lo: &vv})
			case sqlparser.OpLE, sqlparser.OpLT:
				vv := v
				put(table, col, sharding.Condition{Ranged: true, Hi: &vv})
			}
		case *sqlparser.InExpr:
			if t.Not {
				continue
			}
			ref, ok := t.E.(*sqlparser.ColumnRef)
			if !ok {
				continue
			}
			var values []sqltypes.Value
			usable := true
			for _, item := range t.List {
				if !isConst(item) {
					usable = false
					break
				}
				v, err := env.eval(item)
				if err != nil {
					usable = false
					break
				}
				values = append(values, v)
			}
			if !usable {
				continue
			}
			table, col := condKey(ref, aliases)
			put(table, col, sharding.Condition{Values: values})
		case *sqlparser.BetweenExpr:
			if t.Not {
				continue
			}
			ref, ok := t.E.(*sqlparser.ColumnRef)
			if !ok || !isConst(t.Lo) || !isConst(t.Hi) {
				continue
			}
			lo, err1 := env.eval(t.Lo)
			hi, err2 := env.eval(t.Hi)
			if err1 != nil || err2 != nil {
				continue
			}
			table, col := condKey(ref, aliases)
			put(table, col, sharding.Condition{Ranged: true, Lo: &lo, Hi: &hi})
		}
	}
	return out
}

// putCond folds one condition into the table→column map. Merge rules:
// equality wins over range (conjuncts must all hold, so the equality is at
// least as narrow); two ranges tighten bounds. Shared by extractConditions
// and the plan cache's route skeleton so both produce identical routes.
func putCond(out map[string]map[string]sharding.Condition, table, col string, c sharding.Condition) {
	m, ok := out[table]
	if !ok {
		m = map[string]sharding.Condition{}
		out[table] = m
	}
	prev, exists := m[col]
	if !exists {
		m[col] = c
		return
	}
	switch {
	case !prev.Ranged:
		// keep prev
	case !c.Ranged:
		m[col] = c
	default:
		merged := prev
		if c.Lo != nil && (merged.Lo == nil || sqltypes.Compare(*c.Lo, *merged.Lo) > 0) {
			merged.Lo = c.Lo
		}
		if c.Hi != nil && (merged.Hi == nil || sqltypes.Compare(*c.Hi, *merged.Hi) < 0) {
			merged.Hi = c.Hi
		}
		m[col] = merged
	}
}

func splitAnd(e sqlparser.Expr) []sqlparser.Expr {
	if b, ok := e.(*sqlparser.BinaryExpr); ok && b.Op == sqlparser.OpAnd {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []sqlparser.Expr{e}
}

// matchColCmp matches "col op const" or "const op col" (flipping).
func matchColCmp(b *sqlparser.BinaryExpr, env evalEnv) (*sqlparser.ColumnRef, sqltypes.Value, sqlparser.BinOp, bool) {
	switch b.Op {
	case sqlparser.OpEQ, sqlparser.OpLT, sqlparser.OpLE, sqlparser.OpGT, sqlparser.OpGE:
	default:
		return nil, sqltypes.Null, 0, false
	}
	if ref, ok := b.L.(*sqlparser.ColumnRef); ok && isConst(b.R) {
		if v, err := env.eval(b.R); err == nil {
			return ref, v, b.Op, true
		}
	}
	if ref, ok := b.R.(*sqlparser.ColumnRef); ok && isConst(b.L) {
		if v, err := env.eval(b.L); err == nil {
			return ref, v, flip(b.Op), true
		}
	}
	return nil, sqltypes.Null, 0, false
}

func flip(op sqlparser.BinOp) sqlparser.BinOp {
	switch op {
	case sqlparser.OpLT:
		return sqlparser.OpGT
	case sqlparser.OpLE:
		return sqlparser.OpGE
	case sqlparser.OpGT:
		return sqlparser.OpLT
	case sqlparser.OpGE:
		return sqlparser.OpLE
	default:
		return op
	}
}

// merge folds src into dst (first-wins per column, same safety argument as
// extractConditions).
func merge(dst, src map[string]map[string]sharding.Condition) {
	for table, cols := range src {
		m, ok := dst[table]
		if !ok {
			dst[table] = cols
			continue
		}
		for col, c := range cols {
			if _, exists := m[col]; !exists {
				m[col] = c
			}
		}
	}
}

// condsFor projects the extracted conditions onto one rule's sharding
// columns, merging table-qualified and unqualified conditions.
func condsFor(conds map[string]map[string]sharding.Condition, table string, rule *sharding.TableRule) map[string]sharding.Condition {
	out := map[string]sharding.Condition{}
	qualified, unqualified := conds[strings.ToLower(table)], conds[""]
	for _, col := range rule.ShardingColumns() {
		if c, ok := qualified[col]; ok {
			out[col] = c
		} else if c, ok := unqualified[col]; ok {
			out[col] = c
		}
	}
	return out
}
