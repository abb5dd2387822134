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

// one evaluates x as a list of one value; a placeholder's is a window on
// the arguments, so binding placeholders copies nothing.
func (e evalEnv) one(x sqlparser.Expr) ([]sqltypes.Value, error) {
	if p, ok := x.(*sqlparser.Placeholder); ok && p.Index < len(e.args) {
		return e.args[p.Index : p.Index+1 : p.Index+1], nil
	}
	v, err := e.eval(x)
	return []sqltypes.Value{v}, err
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

// condSlot kinds.
const (
	slotCmp     = iota // the column compared with a by op
	slotIn             // the column in list
	slotBetween        // the column between a and b
)

// colRef is a column with the FROM position its qualifier names, -1 when
// unqualified.
type colRef struct {
	ref int
	col string // lowercased
}

// condSlot is one comparison of a column with constants, kept symbolic:
// its operands are evaluated when arguments are bound.
type condSlot struct {
	colRef
	at   int // col's position among the rule's sharding columns (slotsFor)
	kind int
	op   sqlparser.BinOp // slotCmp, with the column on the left
	a, b sqlparser.Expr
	list []sqlparser.Expr
}

// narrowing appends to out the comparisons in a WHERE or ON clause that
// may narrow a route, and to eqs its equalities between two qualified
// columns. It is the one place that decides: only a top-level AND conjunct
// counts (an OR branch cannot narrow safely, and NOT IN / NOT BETWEEN
// exclude rather than select), and only a column compared by =, <, <=, >,
// >=, IN or BETWEEN with operands that reference no column. Anything else
// is passed over, which can only widen the route. from resolves a column's
// qualifier — an alias or a table name — to its FROM position; a qualifier
// that names no entry narrows nothing. outer, unless -1, is the FROM
// position of the outer join whose ON this is: that ON decides which rows
// pair up, not which rows there are, so it narrows nothing and only its
// equalities with the joined table count.
func narrowing(e sqlparser.Expr, from []sqlparser.TableRef, outer int, out []condSlot, eqs [][2]colRef) ([]condSlot, [][2]colRef) {
	keep := func(x sqlparser.Expr, slot condSlot) {
		ref, ok := x.(*sqlparser.ColumnRef)
		if !ok || outer >= 0 || !isConst(slot.a) || !isConst(slot.b) {
			return
		}
		for _, item := range slot.list {
			if !isConst(item) {
				return
			}
		}
		if slot.colRef, ok = resolve(ref, from); ok {
			out = append(out, slot)
		}
	}
	switch t := e.(type) {
	case *sqlparser.BinaryExpr:
		l, lok := t.L.(*sqlparser.ColumnRef)
		r, rok := t.R.(*sqlparser.ColumnRef)
		switch t.Op {
		case sqlparser.OpAnd:
			out, eqs = narrowing(t.L, from, outer, out, eqs)
			return narrowing(t.R, from, outer, out, eqs)
		case sqlparser.OpEQ, sqlparser.OpLT, sqlparser.OpLE, sqlparser.OpGT, sqlparser.OpGE:
			if lok && rok {
				a, aok := resolve(l, from)
				b, bok := resolve(r, from)
				if t.Op == sqlparser.OpEQ && aok && bok && a.ref >= 0 && b.ref >= 0 && (outer < 0 || a.ref == outer || b.ref == outer) {
					eqs = append(eqs, [2]colRef{a, b})
				}
			} else if lok {
				keep(t.L, condSlot{kind: slotCmp, op: t.Op, a: t.R})
			} else {
				keep(t.R, condSlot{kind: slotCmp, op: flip(t.Op), a: t.L})
			}
		}
	case *sqlparser.InExpr:
		if !t.Not {
			keep(t.E, condSlot{kind: slotIn, list: t.List})
		}
	case *sqlparser.BetweenExpr:
		if !t.Not {
			keep(t.E, condSlot{kind: slotBetween, a: t.Lo, b: t.Hi})
		}
	}
	return out, eqs
}

// resolve names a column by the FROM position of its qualifier; ok is
// false when the qualifier names no FROM entry.
func resolve(c *sqlparser.ColumnRef, from []sqlparser.TableRef) (ref colRef, ok bool) {
	ref = colRef{ref: -1, col: strings.ToLower(c.Name)}
	if c.Table == "" {
		return ref, true
	}
	for i, t := range from {
		if strings.EqualFold(c.Table, t.Alias) || strings.EqualFold(c.Table, t.Name) {
			ref.ref = i
			return ref, true
		}
	}
	return ref, false
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

// slotsFor projects a statement's narrowing comparisons onto the sharding
// columns, cols, of the table at FROM position ref, and records each slot's
// column position. On a column, comparisons qualified with the table
// outrank unqualified ones.
func slotsFor(all []condSlot, ref int, cols []string) []condSlot {
	var out []condSlot
	for at, col := range cols {
		for _, qualifier := range []int{ref, -1} {
			n := len(out)
			for _, s := range all {
				if s.col == col && s.ref == qualifier {
					s.at = at
					out = append(out, s)
				}
			}
			if len(out) > n {
				break
			}
		}
	}
	return out
}

// bindConds evaluates the slots against the bound arguments, reads each
// value as its column's kind, kinds[slot.at] (sqltypes.Narrow), and folds
// them into conds, which holds one zero condition per sharding column.
// Every conjunct must hold, so an equality or IN list wins over a range (it
// is at least as narrow) and two ranges tighten each other's bounds. A slot
// whose operands cannot be evaluated, or do not narrow, narrows nothing. A
// placeholder operand of the column's kind is read where it lies in args,
// not copied.
func bindConds(slots []condSlot, kinds [2]sqltypes.Kind, args []sqltypes.Value, conds []sharding.Condition) {
	env := evalEnv{args: args}
	one := func(x sqlparser.Expr, kind sqltypes.Kind) ([]sqltypes.Value, bool) {
		v, err := env.one(x)
		if err != nil {
			return nil, false
		}
		w, ok := sqltypes.Narrow(v[0], kind)
		if ok && w.Kind != v[0].Kind {
			v = []sqltypes.Value{w}
		}
		return v, ok
	}
	for i := range slots {
		slot := &slots[i]
		kind := kinds[slot.at]
		var c sharding.Condition
		switch slot.kind {
		case slotCmp:
			v, ok := one(slot.a, kind)
			if !ok {
				continue
			}
			switch slot.op {
			case sqlparser.OpEQ:
				c.Values = v
			case sqlparser.OpGE, sqlparser.OpGT:
				c.Ranged, c.Lo = true, &v[0]
			default:
				c.Ranged, c.Hi = true, &v[0]
			}
		case slotIn:
			c.Values = make([]sqltypes.Value, len(slot.list))
			usable := true
			for j, item := range slot.list {
				v, err := env.eval(item)
				w, ok := sqltypes.Narrow(v, kind)
				if err != nil || !ok {
					usable = false
					break
				}
				c.Values[j] = w
			}
			if !usable {
				continue
			}
		case slotBetween:
			lo, ok1 := one(slot.a, kind)
			hi, ok2 := one(slot.b, kind)
			if !ok1 || !ok2 {
				continue
			}
			c.Ranged, c.Lo, c.Hi = true, &lo[0], &hi[0]
		}
		prev := &conds[slot.at]
		switch {
		case !prev.Present() || (prev.Ranged && !c.Ranged):
			*prev = c
		case prev.Ranged && c.Ranged:
			if c.Lo != nil && (prev.Lo == nil || sqltypes.Compare(*c.Lo, *prev.Lo) > 0) {
				prev.Lo = c.Lo
			}
			if c.Hi != nil && (prev.Hi == nil || sqltypes.Compare(*c.Hi, *prev.Hi) < 0) {
				prev.Hi = c.Hi
			}
		}
	}
}
