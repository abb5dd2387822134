package sqlexec

import (
	"slices"

	"shardingsphere/internal/btree"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
)

// splitConjuncts flattens an AND tree into its conjuncts.
func splitConjuncts(e sqlparser.Expr) []sqlparser.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sqlparser.BinaryExpr); ok && b.Op == sqlparser.OpAnd {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []sqlparser.Expr{e}
}

// isConst reports whether an expression references no column (literal,
// placeholder, or arithmetic over them), so its value depends on bind
// arguments alone.
func isConst(e sqlparser.Expr) bool {
	hasCol := false
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		if _, ok := x.(*sqlparser.ColumnRef); ok {
			hasCol = true
			return false
		}
		return true
	})
	return !hasCol
}

// owns reports whether the column reference can belong to the table: its
// qualifier, if any, names the table, and the table has the column.
func (t *tableCols) owns(ref *sqlparser.ColumnRef) bool {
	if ref.Table != "" && !t.qualifiedBy(ref.Table) {
		return false
	}
	return t.schema.Index(ref.Name) >= 0
}

// accessShape is the access path of one table scan as far as the
// statement text and the table definition decide it: primary-key point/IN
// lookup, primary-key range, secondary-index equality, or full scan. The
// key values are constant expressions bound from the arguments at run time
// and narrowed to the key column's kind (sqltypes.Narrow). Predicates are
// always re-checked against fetched rows, so the path only needs to cover a
// superset of the matching rows.
type accessShape struct {
	kind     accessKind
	points   []sqlparser.Expr // point/IN keys, or the one index key
	los, his []sqlparser.Expr // range bounds: the tightest of each side applies
	index    string           // secondary index name for accessIndex
	col      sqltypes.Kind    // the key column's kind
}

type accessKind uint8

const (
	accessFull accessKind = iota
	accessPKPoint
	accessPKRange
	accessIndex
)

// accessPlan is an access shape with its keys bound. (The index name stays
// with the shape: a string in here would drag the keys to the heap with it
// when the storage layer formats it into an error.)
type accessPlan struct {
	kind   accessKind
	key    btree.Key   // the one point or index key
	points []btree.Key // an IN list's keys
	lo, hi btree.Key   // range bounds, inclusive; nil = open
}

// shapeAccess inspects the conjuncts that apply to a single table and picks
// its access shape. A primary-key equality or IN wins outright; otherwise
// primary-key bounds beat a secondary-index equality, which beats a scan.
func shapeAccess(tbl *storage.Table, cols *tableCols, conjuncts []sqlparser.Expr) accessShape {
	schema := cols.schema
	pkCols := tbl.PKColumns()
	pkCol := -1
	if len(pkCols) == 1 {
		pkCol = pkCols[0]
	}
	pkKind := sqltypes.KindNull
	if pkCol >= 0 {
		pkKind = schema[pkCol].Type
	}
	var shape accessShape
	for _, c := range conjuncts {
		switch t := c.(type) {
		case *sqlparser.BinaryExpr:
			ref, val, op, ok := extractColCmp(t, cols)
			if !ok {
				continue
			}
			col := schema.Index(ref.Name)
			if col == pkCol {
				switch op {
				case sqlparser.OpEQ:
					return accessShape{kind: accessPKPoint, points: []sqlparser.Expr{val}, col: pkKind}
				case sqlparser.OpGE, sqlparser.OpGT:
					shape.los = append(shape.los, val)
				case sqlparser.OpLE, sqlparser.OpLT:
					shape.his = append(shape.his, val)
				}
			} else if op == sqlparser.OpEQ && shape.kind == accessFull {
				if idx, ok := tbl.HasIndexOn(col); ok {
					shape.kind, shape.index, shape.points = accessIndex, idx, []sqlparser.Expr{val}
					shape.col = schema[col].Type
				}
			}
		case *sqlparser.InExpr:
			if t.Not {
				continue
			}
			ref, ok := t.E.(*sqlparser.ColumnRef)
			if !ok || !cols.owns(ref) || schema.Index(ref.Name) != pkCol {
				continue
			}
			allConst := true
			for _, item := range t.List {
				allConst = allConst && isConst(item)
			}
			if allConst {
				return accessShape{kind: accessPKPoint, points: t.List, col: pkKind}
			}
		case *sqlparser.BetweenExpr:
			if t.Not {
				continue
			}
			ref, ok := t.E.(*sqlparser.ColumnRef)
			if !ok || !cols.owns(ref) || schema.Index(ref.Name) != pkCol {
				continue
			}
			if isConst(t.Lo) && isConst(t.Hi) {
				shape.los = append(shape.los, t.Lo)
				shape.his = append(shape.his, t.Hi)
			}
		}
	}
	if len(shape.los) > 0 || len(shape.his) > 0 {
		shape.kind, shape.col = accessPKRange, pkKind
	}
	return shape
}

// bind evaluates the shape's keys. One point, or a range's two bounds,
// live in keys — a caller's local, so binding the common plans allocates
// nothing. A key that fails to evaluate (a missing bind argument) or does
// not narrow to one value of the column's kind (a number against a
// VARCHAR, whose tree is in string order) widens the plan to a full scan;
// the residual predicate then decides, or reports the error against the
// first row. Repeated IN keys bind once: no row is hit twice.
func (sh *accessShape) bind(args []sqltypes.Value, keys *[2]sqltypes.Value) accessPlan {
	env := rowEnv{args: args}
	plan := accessPlan{kind: sh.kind}
	key := func(e sqlparser.Expr) (sqltypes.Value, bool) {
		v, err := env.eval(e)
		if err != nil {
			return v, false
		}
		return sqltypes.Narrow(v, sh.col)
	}
	switch sh.kind {
	case accessPKPoint, accessIndex:
		if len(sh.points) == 1 {
			v, ok := key(sh.points[0])
			if !ok {
				return accessPlan{}
			}
			keys[0] = v
			plan.key = keys[:1]
			return plan
		}
		plan.points = make([]btree.Key, 0, len(sh.points))
		for _, e := range sh.points {
			v, ok := key(e)
			if !ok {
				return accessPlan{}
			}
			k := btree.Key{v}
			if !slices.ContainsFunc(plan.points, func(p btree.Key) bool { return btree.CompareKeys(p, k) == 0 }) {
				plan.points = append(plan.points, k)
			}
		}
	case accessPKRange:
		for _, e := range sh.los {
			v, ok := key(e)
			if !ok {
				return accessPlan{}
			}
			if plan.lo == nil || sqltypes.Compare(v, plan.lo[0]) > 0 {
				keys[0] = v
				plan.lo = keys[0:1]
			}
		}
		for _, e := range sh.his {
			v, ok := key(e)
			if !ok {
				return accessPlan{}
			}
			if plan.hi == nil || sqltypes.Compare(v, plan.hi[0]) < 0 {
				keys[1] = v
				plan.hi = keys[1:2]
			}
		}
	}
	return plan
}

// extractColCmp matches "col op const" or "const op col" (with the
// operator flipped) against the given table, returning the constant side.
func extractColCmp(b *sqlparser.BinaryExpr, cols *tableCols) (*sqlparser.ColumnRef, sqlparser.Expr, sqlparser.BinOp, bool) {
	switch b.Op {
	case sqlparser.OpEQ, sqlparser.OpLT, sqlparser.OpLE, sqlparser.OpGT, sqlparser.OpGE:
	default:
		return nil, nil, 0, false
	}
	if ref, ok := b.L.(*sqlparser.ColumnRef); ok && cols.owns(ref) && isConst(b.R) {
		return ref, b.R, b.Op, true
	}
	if ref, ok := b.R.(*sqlparser.ColumnRef); ok && cols.owns(ref) && isConst(b.L) {
		return ref, b.L, flipOp(b.Op), true
	}
	return nil, nil, 0, false
}

func flipOp(op sqlparser.BinOp) sqlparser.BinOp {
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

// fetch runs the shape with the given bound keys, visiting matching entries
// until visit returns false. Exclusive range bounds and all residual
// predicates are re-checked by the caller.
func (sh *accessShape) fetch(tbl *storage.Table, txID int64, plan accessPlan, visit func(storage.ScanEntry) bool) {
	switch plan.kind {
	case accessPKPoint:
		if plan.key != nil {
			if se, ok := tbl.PKGet(txID, plan.key); ok {
				visit(se)
			}
			return
		}
		for _, key := range plan.points {
			if se, ok := tbl.PKGet(txID, key); ok && !visit(se) {
				return
			}
		}
	case accessPKRange:
		tbl.PKRange(txID, plan.lo, plan.hi, visit)
	case accessIndex:
		// One key reaches each row at most once; nothing to deduplicate.
		tbl.IndexRange(txID, sh.index, plan.key, plan.key, visit)
	default:
		tbl.Scan(txID, visit)
	}
}
