// Package rewrite implements the SQL rewriter (paper Section VI-C). It
// turns one logical statement plus a route result into per-data-node
// executable SQL:
//
// Correctness rewrite — identifier rewrite (logic → actual table names),
// column derivation (ORDER BY / GROUP BY / AVG inputs the merger needs but
// the query didn't select), pagination revision (each node must return the
// first offset+count rows), and batched-insert split (each node receives
// only its rows).
//
// Optimization rewrite — single-node queries skip derivation and
// pagination revision entirely, and GROUP BY queries gain an ORDER BY so
// the merger can stream instead of materializing (Section VI-E).
package rewrite

import (
	"fmt"
	"slices"
	"strings"

	"shardingsphere/internal/route"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
)

// SQLUnit is one executable statement bound to a data source. LogicTable
// and ActualTable identify the shard the unit targets (empty when the
// unit spans several tables, e.g. a binding-group join).
type SQLUnit struct {
	DataSource  string
	SQL         string
	Args        []sqltypes.Value
	LogicTable  string
	ActualTable string
}

// unitTables extracts the single logic→actual table pair of a route unit,
// or empty strings when the unit maps several tables.
func unitTables(unit route.Unit) (logic, actual string) {
	if len(unit.TableMap) != 1 {
		return "", ""
	}
	for l, a := range unit.TableMap {
		return l, a
	}
	return "", ""
}

// AggregateKind labels how the merger combines a column.
type AggregateKind uint8

// Aggregate kinds for merged columns.
const (
	AggNone AggregateKind = iota
	AggCount
	AggSum
	AggMax
	AggMin
	AggAvg
)

// AggregateItem describes one aggregated output column. For AVG, SumIndex
// and CountIndex point at the derived columns the rewriter appended.
type AggregateItem struct {
	Index      int
	Kind       AggregateKind
	SumIndex   int // AVG only
	CountIndex int // AVG only
}

// OrderKey is one merged ordering key. Index is the output column, or -1
// when the projection is a star and the merger must resolve Name against
// the node result's column list.
type OrderKey struct {
	Index int
	Name  string
	Desc  bool
}

// LimitInfo carries the original pagination for the merger to re-apply.
type LimitInfo struct {
	Offset, Count int64
	// Revised reports whether node SQL was rewritten to fetch
	// offset+count rows (multi-node pagination).
	Revised bool
}

// SelectContext tells the result merger how to combine node results
// (paper Section VI-E). It is derived once per logical statement.
type SelectContext struct {
	// Derived is the number of trailing derived columns to strip from the
	// merged rows before returning them to the client.
	Derived int
	// Aggregates lists aggregated output columns.
	Aggregates []AggregateItem
	// OrderBy lists merge keys; empty means iteration merge.
	OrderBy []OrderKey
	// GroupBy lists grouping keys as merge keys (same resolution rules).
	GroupBy []OrderKey
	// GroupOrdered reports that node results arrive ordered by the group
	// keys, enabling the stream group merger.
	GroupOrdered bool
	Limit        *LimitInfo
	Distinct     bool
}

// Result is the rewriter's output: executable units plus the merge
// context for SELECTs.
type Result struct {
	Units  []SQLUnit
	Select *SelectContext
}

// DialectFunc resolves the SQL dialect of a data source.
type DialectFunc func(dataSource string) sqlparser.Dialect

// Rewriter rewrites routed statements.
type Rewriter struct {
	dialect DialectFunc
}

// New builds a rewriter. dialect may be nil (MySQL for every source).
func New(dialect DialectFunc) *Rewriter {
	if dialect == nil {
		dialect = func(string) sqlparser.Dialect { return sqlparser.DialectMySQL }
	}
	return &Rewriter{dialect: dialect}
}

// Rewrite produces the executable SQL units for a routed statement.
func (rw *Rewriter) Rewrite(stmt sqlparser.Statement, rt *route.Result, args []sqltypes.Value) (*Result, error) {
	switch t := stmt.(type) {
	case *sqlparser.SelectStmt:
		return rw.rewriteSelect(t, rt, args)
	case *sqlparser.InsertStmt:
		return rw.rewriteInsert(t, rt, args)
	default:
		// UPDATE / DELETE / DDL need only identifier rewrite.
		return &Result{Units: rw.render(sqlparser.CloneStatement(stmt), rt, args)}, nil
	}
}

// render compiles a private clone once and splices every unit from it.
// The sentinels stand for every table some unit maps, in first-seen order.
func (rw *Rewriter) render(owned sqlparser.Statement, rt *route.Result, args []sqltypes.Value) []SQLUnit {
	var tables []string
	for _, unit := range rt.Units {
		if mapsExactly(unit.TableMap, tables) {
			continue // the common case: every unit maps the same tables
		}
		for logic := range unit.TableMap {
			if !slices.Contains(tables, logic) {
				tables = append(tables, logic)
			}
		}
	}
	return compile(owned, tables).units(rt.Units, tables, args, rw.dialect)
}

// mapsExactly reports whether m's keys are exactly the given tables.
func mapsExactly(m map[string]string, tables []string) bool {
	if len(m) != len(tables) {
		return false
	}
	for _, t := range tables {
		if _, ok := m[t]; !ok {
			return false
		}
	}
	return true
}

// rewriteSelect applies the full correctness + optimization pipeline.
func (rw *Rewriter) rewriteSelect(stmt *sqlparser.SelectStmt, rt *route.Result, args []sqltypes.Value) (*Result, error) {
	// Pagination is validated even on a single node, where it is pushed
	// down untouched and the merger just forwards rows.
	var li *LimitInfo
	if stmt.Limit != nil {
		var err error
		if li, err = evalLimit(stmt.Limit, args); err != nil {
			return nil, err
		}
	}
	multi := !rt.SingleNode()
	work, ctx := deriveSelect(stmt, multi)
	if multi && li != nil {
		ctx.Limit = li
		// Pagination revision: every node returns the first offset+count
		// rows; the merger re-applies the real offset.
		if li.Offset > 0 {
			work.Limit = &sqlparser.Limit{
				Count: &sqlparser.Literal{Val: sqltypes.NewInt(li.Offset + li.Count)},
			}
			li.Revised = true
		}
	}
	return &Result{Units: rw.render(work, rt, args), Select: ctx}, nil
}

// deriveSelect returns a private clone of the statement carrying
// everything about its node form that depends on the statement alone,
// with the matching merge context (minus pagination, which depends on
// bound values). Multi-node: derived columns and the stream-merger ORDER
// BY. Single node: the statement as written — the node's own executor
// produces the final result.
func deriveSelect(stmt *sqlparser.SelectStmt, multi bool) (*sqlparser.SelectStmt, *SelectContext) {
	ctx := &SelectContext{Distinct: stmt.Distinct}
	work := sqlparser.CloneStatement(stmt).(*sqlparser.SelectStmt)
	if !multi {
		resolveKeysForSingleNode(work, ctx)
		return work, ctx
	}
	deriveColumns(work, ctx)
	// Stream-merger optimization: GROUP BY without ORDER BY gains an
	// ORDER BY on the group keys so every node returns sorted groups.
	if len(work.GroupBy) > 0 && len(work.OrderBy) == 0 {
		for _, g := range work.GroupBy {
			work.OrderBy = append(work.OrderBy, sqlparser.OrderItem{Expr: sqlparser.CloneExpr(g)})
		}
		ctx.GroupOrdered = true
		// The injected ORDER BY mirrors the group keys.
		ctx.OrderBy = append([]OrderKey(nil), ctx.GroupBy...)
	} else if len(work.GroupBy) > 0 && len(work.OrderBy) > 0 {
		// Stream grouping also works when ORDER BY already equals the
		// GROUP BY keys (the paper's same-item case).
		ctx.GroupOrdered = sameKeys(ctx.GroupBy, ctx.OrderBy)
	}
	return work, ctx
}

func evalLimit(lim *sqlparser.Limit, args []sqltypes.Value) (*LimitInfo, error) {
	get := func(e sqlparser.Expr) (int64, error) {
		switch t := e.(type) {
		case nil:
			return 0, nil
		case *sqlparser.Literal:
			return t.Val.AsInt(), nil
		case *sqlparser.Placeholder:
			if t.Index >= len(args) {
				return 0, fmt.Errorf("rewrite: LIMIT needs bind argument %d", t.Index+1)
			}
			return args[t.Index].AsInt(), nil
		default:
			return 0, fmt.Errorf("rewrite: unsupported LIMIT expression %T", e)
		}
	}
	off, err := get(lim.Offset)
	if err != nil {
		return nil, err
	}
	cnt, err := get(lim.Count)
	if err != nil {
		return nil, err
	}
	if off < 0 || cnt < 0 {
		return nil, fmt.Errorf("rewrite: negative LIMIT values")
	}
	return &LimitInfo{Offset: off, Count: cnt}, nil
}

// hasStar reports whether the projection contains a star item.
func hasStar(stmt *sqlparser.SelectStmt) bool {
	for _, it := range stmt.Items {
		if it.Star {
			return true
		}
	}
	return false
}

// findItem locates an expression among the projection items: by alias, by
// bare column name, or by serialized text. Returns -1 when absent.
func findItem(stmt *sqlparser.SelectStmt, e sqlparser.Expr, ser *sqlparser.Serializer) int {
	if ref, ok := e.(*sqlparser.ColumnRef); ok {
		for i, it := range stmt.Items {
			if it.Star {
				continue
			}
			if it.Alias != "" && strings.EqualFold(it.Alias, ref.Name) {
				return i
			}
			if c, ok := it.Expr.(*sqlparser.ColumnRef); ok && strings.EqualFold(c.Name, ref.Name) {
				if ref.Table == "" || strings.EqualFold(c.Table, ref.Table) {
					return i
				}
			}
		}
		return -1
	}
	text := ser.SerializeExpr(e)
	for i, it := range stmt.Items {
		if it.Star || it.Expr == nil {
			continue
		}
		if ser.SerializeExpr(it.Expr) == text {
			return i
		}
	}
	return -1
}

// deriveColumns performs the correctness rewrite for multi-node SELECTs:
// aggregate decomposition (AVG → SUM + COUNT) and derived ORDER BY /
// GROUP BY columns, recording everything the merger needs.
func deriveColumns(stmt *sqlparser.SelectStmt, ctx *SelectContext) {
	ser := sqlparser.NewSerializer(sqlparser.DialectMySQL)
	star := hasStar(stmt)
	derivedSeq := 0

	appendDerived := func(e sqlparser.Expr, prefix string) int {
		alias := fmt.Sprintf("%s_DERIVED_%d", prefix, derivedSeq)
		derivedSeq++
		stmt.Items = append(stmt.Items, sqlparser.SelectItem{
			Expr:    sqlparser.CloneExpr(e),
			Alias:   alias,
			Derived: true,
		})
		ctx.Derived++
		return len(stmt.Items) - 1
	}

	// Aggregate decomposition. Star projections cannot carry aggregates,
	// so positional indexes are stable.
	for i, it := range stmt.Items {
		f, ok := it.Expr.(*sqlparser.FuncExpr)
		if !ok || !f.IsAggregate() {
			continue
		}
		agg := AggregateItem{Index: i}
		switch f.Name {
		case "COUNT":
			agg.Kind = AggCount
			if f.Distinct {
				// COUNT(DISTINCT x) merges by re-counting distinct values;
				// ship the raw expression too.
				agg.Kind = AggCount
			}
		case "SUM":
			agg.Kind = AggSum
		case "MAX":
			agg.Kind = AggMax
		case "MIN":
			agg.Kind = AggMin
		case "AVG":
			agg.Kind = AggAvg
			sum := &sqlparser.FuncExpr{Name: "SUM", Args: cloneArgs(f.Args)}
			cnt := &sqlparser.FuncExpr{Name: "COUNT", Args: cloneArgs(f.Args)}
			agg.SumIndex = appendDerived(sum, "AVG_SUM")
			agg.CountIndex = appendDerived(cnt, "AVG_COUNT")
		}
		ctx.Aggregates = append(ctx.Aggregates, agg)
		if agg.Kind == AggAvg {
			// The derived partials merge as aggregates themselves: node
			// sums add up, node counts add up.
			ctx.Aggregates = append(ctx.Aggregates,
				AggregateItem{Index: agg.SumIndex, Kind: AggSum},
				AggregateItem{Index: agg.CountIndex, Kind: AggCount})
		}
	}

	resolve := func(e sqlparser.Expr, prefix string) OrderKey {
		if idx := findItem(stmt, e, ser); idx >= 0 {
			return OrderKey{Index: idx}
		}
		if ref, ok := e.(*sqlparser.ColumnRef); ok && star {
			// The star projection already returns the column; the merger
			// resolves it by name at merge time.
			return OrderKey{Index: -1, Name: ref.Name}
		}
		return OrderKey{Index: appendDerived(e, prefix)}
	}

	for _, g := range stmt.GroupBy {
		ctx.GroupBy = append(ctx.GroupBy, resolve(g, "GROUP_BY"))
	}
	for _, o := range stmt.OrderBy {
		key := resolve(o.Expr, "ORDER_BY")
		key.Desc = o.Desc
		ctx.OrderBy = append(ctx.OrderBy, key)
	}
}

// resolveKeysForSingleNode records merge keys without deriving columns —
// a single node returns final, fully ordered results.
func resolveKeysForSingleNode(stmt *sqlparser.SelectStmt, ctx *SelectContext) {
	ser := sqlparser.NewSerializer(sqlparser.DialectMySQL)
	for _, o := range stmt.OrderBy {
		idx := findItem(stmt, o.Expr, ser)
		name := ""
		if ref, ok := o.Expr.(*sqlparser.ColumnRef); ok {
			name = ref.Name
		}
		ctx.OrderBy = append(ctx.OrderBy, OrderKey{Index: idx, Name: name, Desc: o.Desc})
	}
}

func sameKeys(a, b []OrderKey) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || !strings.EqualFold(a[i].Name, b[i].Name) {
			return false
		}
	}
	return true
}

func cloneArgs(args []sqlparser.Expr) []sqlparser.Expr {
	out := make([]sqlparser.Expr, len(args))
	for i, a := range args {
		out[i] = sqlparser.CloneExpr(a)
	}
	return out
}

// rewriteInsert splits a batched INSERT so each node receives only its
// rows (paper: "splits batched insert ... to avoid writing excessive
// data"). Multi-unit inserts inline their bind arguments, because the rows
// split across units and positional arguments would no longer align.
func (rw *Rewriter) rewriteInsert(stmt *sqlparser.InsertStmt, rt *route.Result, args []sqltypes.Value) (*Result, error) {
	out := &Result{}
	inline := len(rt.Units) > 1
	for _, unit := range rt.Units {
		clone := sqlparser.CloneStatement(stmt).(*sqlparser.InsertStmt)
		if unit.RowIndexes != nil {
			rows := make([][]sqlparser.Expr, 0, len(unit.RowIndexes))
			for _, idx := range unit.RowIndexes {
				if idx < 0 || idx >= len(clone.Rows) {
					return nil, fmt.Errorf("rewrite: row index %d out of range", idx)
				}
				rows = append(rows, clone.Rows[idx])
			}
			clone.Rows = rows
		}
		unitArgs := args
		if inline {
			if err := inlineInsertArgs(clone, args); err != nil {
				return nil, err
			}
			unitArgs = nil
		}
		sqlparser.RenameTables(clone, unit.TableMap)
		ser := sqlparser.NewSerializer(rw.dialect(unit.DataSource))
		logic, actual := unitTables(unit)
		out.Units = append(out.Units, SQLUnit{
			DataSource:  unit.DataSource,
			SQL:         ser.Serialize(clone),
			Args:        unitArgs,
			LogicTable:  logic,
			ActualTable: actual,
		})
	}
	return out, nil
}

// inlineInsertArgs replaces placeholders in INSERT rows with their bound
// literal values.
func inlineInsertArgs(stmt *sqlparser.InsertStmt, args []sqltypes.Value) error {
	for _, row := range stmt.Rows {
		for i, e := range row {
			p, ok := e.(*sqlparser.Placeholder)
			if !ok {
				continue
			}
			if p.Index >= len(args) {
				return fmt.Errorf("rewrite: INSERT needs bind argument %d", p.Index+1)
			}
			row[i] = &sqlparser.Literal{Val: args[p.Index]}
		}
	}
	return nil
}
