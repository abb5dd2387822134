// Package rewrite implements the SQL rewriter (paper Section VI-C). It
// turns one logical statement plus a route result into per-data-node
// executable SQL:
//
// Correctness rewrite — identifier rewrite (logic → actual table names),
// column derivation (ORDER BY keys the merger needs but the query didn't
// select), two-phase aggregation (a grouped SELECT's units compute
// partials and the merger runs its combine statement over them),
// pagination revision (each node must return the first offset+count rows),
// and batched-insert split (each node receives only its rows).
//
// Optimization rewrite — single-node queries skip derivation and
// pagination revision entirely.
package rewrite

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"shardingsphere/internal/route"
	"shardingsphere/internal/sqlexec"
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
	// Union marks a unit of a single-table SELECT's fan-out form (not FOR
	// UPDATE): one of a data source's units run over all their tables'
	// union (resource.Statement.Tables) merges to their answer.
	Union bool
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
	// OrderBy lists merge keys; empty means iteration merge.
	OrderBy []OrderKey
	// ColumnKeys reports that every merge key is a table's column. A
	// column holds one kind (or NULL), on which Compare is a total order,
	// so rows equal under DISTINCT lie in one run of equal keys of the
	// merged stream; an expression may mix strings and numbers, which
	// Compare does not order totally.
	ColumnKeys bool
	Limit      *LimitInfo
	Distinct   bool
	// Combine, set for a grouped statement on several units, is the
	// statement's output stage over the units' partial rows: it groups,
	// filters, orders, dedupes and pages them as one data node would, so
	// the fields above are unset. Args are the statement's arguments,
	// which its HAVING, ORDER BY and LIMIT may read.
	Combine *sqlexec.Output
	Args    []sqltypes.Value
}

// Result is the rewriter's output: executable units plus the merge
// context for SELECTs. A one-unit result holds its unit itself, so a
// caller that rewrites into a Result it owns (Template.RewriteInto)
// allocates only the unit's text.
type Result struct {
	Units  []SQLUnit
	Select *SelectContext
	inline [1]SQLUnit
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

// Rewrite produces the executable SQL units for a routed statement: the
// statement is compiled into its template and the route and arguments are
// bound to it. A caller that rewrites one statement many times keeps the
// template (NewTemplate) and only binds.
func (rw *Rewriter) Rewrite(stmt sqlparser.Statement, rt *route.Result, args []sqltypes.Value) (*Result, error) {
	t, ok := NewTemplate(stmt, sqlparser.TableNames(stmt)...)
	if !ok {
		return nil, fmt.Errorf("rewrite: statement %T has no data-node form", stmt)
	}
	return t.Rewrite(rt, args, rw.dialect)
}

// deriveSelect returns a private copy of the statement in its multi-node
// form with the context its units' results merge under (minus pagination,
// which depends on bound values). It is the one place that form is
// derived, so it is also where a statement that has none is refused.
//
// A grouped statement — a GROUP BY or any aggregate call, however nested —
// aggregates in two phases (paper Section VI-E's group-by and aggregation
// mergers): its units compute partials and the merger runs the combine
// over their rows. Any other SELECT's units return its rows with the
// ORDER BY keys it did not select; the merger orders, dedupes and pages
// them as they stream.
func deriveSelect(stmt *sqlparser.SelectStmt) (*sqlparser.SelectStmt, *SelectContext, error) {
	var aggs []*sqlparser.FuncExpr
	visit := func(e sqlparser.Expr) {
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
			if f, ok := x.(*sqlparser.FuncExpr); ok && f.IsAggregate() {
				aggs = append(aggs, f)
				return false
			}
			return true
		})
	}
	for _, it := range stmt.Items {
		visit(it.Expr)
	}
	visit(stmt.Having)
	for _, o := range stmt.OrderBy {
		visit(o.Expr)
	}
	if len(stmt.GroupBy) > 0 || len(aggs) > 0 {
		return splitGrouped(stmt, aggs)
	}
	ctx := &SelectContext{Distinct: stmt.Distinct}
	work := sqlparser.CloneStatement(stmt).(*sqlparser.SelectStmt)
	deriveColumns(work, ctx)
	return work, ctx, nil
}

// ErrUnsupported reports a statement that one data node can execute as
// written but that has no multi-node form.
var ErrUnsupported = errors.New("rewrite: not supported across data nodes")

// splitGrouped derives a grouped statement's two phases. The units' partial
// selects the GROUP BY keys, every column used outside an aggregate and one
// partial per aggregate call — COUNT, SUM, MIN and MAX as written, AVG as a
// SUM and a COUNT — grouped by the keys, with no HAVING, ORDER BY or LIMIT.
// The combine is the statement over the partial's columns: each aggregate
// becomes its combine (COUNT and SUM a SUM, MIN a MIN, MAX a MAX, AVG
// SUM(sums) / SUM(counts)), each key and column its partial column (a
// column of a global aggregate the MAX of its partial column), and
// HAVING, ORDER BY, DISTINCT and LIMIT run as written. A DISTINCT aggregate
// has no partial to add up, so when there is one the units send each
// row's keys, columns and aggregate arguments — distinct rows when every
// aggregate is DISTINCT, MIN or MAX — and the combine runs the aggregates
// as written. The combine is compiled here, once per shape.
func splitGrouped(stmt *sqlparser.SelectStmt, aggs []*sqlparser.FuncExpr) (*sqlparser.SelectStmt, *SelectContext, error) {
	if slices.ContainsFunc(stmt.Items, func(it sqlparser.SelectItem) bool { return it.Star }) {
		return nil, nil, fmt.Errorf("%w: a star projection in a grouped statement", ErrUnsupported)
	}
	rows, rowDistinct := false, true
	for _, f := range aggs {
		rows = rows || f.Distinct
		rowDistinct = rowDistinct && (f.Distinct || f.Name == "MIN" || f.Name == "MAX")
	}
	partial := sqlparser.CloneStatement(stmt).(*sqlparser.SelectStmt)
	combine := &sqlparser.SelectStmt{Distinct: stmt.Distinct, Limit: partial.Limit}
	partial.Distinct = rows && rowDistinct
	partial.Items, partial.GroupBy, partial.Having, partial.OrderBy, partial.Limit = nil, nil, nil, nil, nil

	// column is the combine's reference to the partial column computing e,
	// added on first use.
	var columns []string
	index := map[string]int{}
	column := func(e sqlparser.Expr) sqlparser.Expr {
		key := exprKey(e)
		i, ok := index[key]
		if !ok {
			i = len(columns)
			index[key] = i
			columns = append(columns, "partial_"+strconv.Itoa(i))
			partial.Items = append(partial.Items, sqlparser.SelectItem{Expr: sqlparser.CloneExpr(e)})
		}
		return &sqlparser.ColumnRef{Name: columns[i]}
	}
	call := func(name string, arg sqlparser.Expr) *sqlparser.FuncExpr {
		return &sqlparser.FuncExpr{Name: name, Args: []sqlparser.Expr{arg}}
	}
	combined := func(f *sqlparser.FuncExpr) sqlparser.Expr {
		switch {
		case rows:
			c := &sqlparser.FuncExpr{Name: f.Name, Star: f.Star, Distinct: f.Distinct}
			for _, a := range f.Args {
				c.Args = append(c.Args, column(a))
			}
			return c
		case f.Name == "AVG":
			return &sqlparser.BinaryExpr{Op: sqlparser.OpDiv,
				L: call("SUM", column(&sqlparser.FuncExpr{Name: "SUM", Args: f.Args})),
				R: call("SUM", column(&sqlparser.FuncExpr{Name: "COUNT", Args: f.Args}))}
		case f.Name == "MIN" || f.Name == "MAX":
			return call(f.Name, column(f))
		default:
			return call("SUM", column(f))
		}
	}
	over := func(e sqlparser.Expr) sqlparser.Expr {
		return sqlparser.MapExpr(e, func(x sqlparser.Expr) sqlparser.Expr {
			switch t := x.(type) {
			case *sqlparser.ColumnRef:
				if len(stmt.GroupBy) == 0 && !rows {
					// One partial row per unit, NULL where the unit matched
					// nothing: read a real row's value.
					return call("MAX", column(t))
				}
				return column(t)
			case *sqlparser.FuncExpr:
				if t.IsAggregate() {
					return combined(t)
				}
			}
			return nil
		})
	}

	for _, g := range stmt.GroupBy {
		if lit, ok := g.(*sqlparser.Literal); ok && lit.Val.Kind == sqltypes.KindInt && lit.Val.I >= 0 {
			if lit.Val.I == 0 || lit.Val.I > int64(len(stmt.Items)) {
				// Compiling the combine reports the position as a node would.
				combine.GroupBy = append(combine.GroupBy, sqlparser.CloneExpr(g))
				continue
			}
			g = stmt.Items[lit.Val.I-1].Expr
		}
		if !rows {
			partial.GroupBy = append(partial.GroupBy, sqlparser.CloneExpr(g))
		}
		combine.GroupBy = append(combine.GroupBy, column(g))
	}
	names := make([]string, len(stmt.Items))
	ser := sqlparser.NewSerializer(sqlparser.DialectMySQL)
	for i, it := range stmt.Items {
		// The name a data node gives the item.
		ref, isRef := it.Expr.(*sqlparser.ColumnRef)
		switch {
		case it.Alias != "":
			names[i] = it.Alias
		case isRef:
			names[i] = ref.Name
		default:
			names[i] = ser.SerializeExpr(it.Expr)
		}
		combine.Items = append(combine.Items, sqlparser.SelectItem{Expr: over(it.Expr), Alias: names[i]})
	}
	combine.Having = over(stmt.Having)
	for _, o := range stmt.OrderBy {
		e := o.Expr
		if ref, ok := e.(*sqlparser.ColumnRef); ok && ref.Table == "" && slices.ContainsFunc(names, func(n string) bool { return strings.EqualFold(n, ref.Name) }) {
			// An output column, as a data node resolves the key.
			e = sqlparser.CloneExpr(e)
		} else {
			e = over(e)
		}
		combine.OrderBy = append(combine.OrderBy, sqlparser.OrderItem{Expr: e, Desc: o.Desc})
	}
	out, err := sqlexec.CompileOutput(combine, columns)
	if err != nil {
		return nil, nil, err
	}
	return partial, &SelectContext{Combine: out}, nil
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

// findItem locates an ORDER BY / GROUP BY key among the output columns: an
// ordinal n is column n-1, else the item with its alias, bare column name,
// or serialized text and reads (exprKey). Returns -1 when absent.
func findItem(stmt *sqlparser.SelectStmt, e sqlparser.Expr) int {
	if lit, ok := e.(*sqlparser.Literal); ok && lit.Val.Kind == sqltypes.KindInt && lit.Val.I >= 1 {
		return int(lit.Val.I - 1)
	}
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
	key := exprKey(e)
	for i, it := range stmt.Items {
		if !it.Star && it.Expr != nil && exprKey(it.Expr) == key {
			return i
		}
	}
	return -1
}

// exprKey identifies an expression by its text and the argument each of
// its "?"s reads: `v % ?` twice is one expression only if both read one
// argument, whatever values are bound.
func exprKey(e sqlparser.Expr) string {
	text, reads := sqlparser.NewSerializer(sqlparser.DialectMySQL).SerializeReads(&sqlparser.SelectStmt{Items: []sqlparser.SelectItem{{Expr: e}}})
	return fmt.Sprint(text, reads)
}

// deriveColumns performs the correctness rewrite for a multi-node SELECT
// that is not grouped: each ORDER BY key the statement does not select is
// appended as a derived column, and every key is recorded for the merger.
func deriveColumns(stmt *sqlparser.SelectStmt, ctx *SelectContext) {
	star := slices.ContainsFunc(stmt.Items, func(it sqlparser.SelectItem) bool { return it.Star })
	ctx.ColumnKeys = true
	for _, o := range stmt.OrderBy {
		key := OrderKey{Index: findItem(stmt, o.Expr), Desc: o.Desc}
		if ref, ok := o.Expr.(*sqlparser.ColumnRef); ok && key.Index < 0 && star {
			// The star projection already returns the column; the merger
			// resolves it by name at merge time.
			key.Name = ref.Name
		} else if key.Index < 0 {
			stmt.Items = append(stmt.Items, sqlparser.SelectItem{Expr: sqlparser.CloneExpr(o.Expr), Alias: fmt.Sprintf("ORDER_BY_DERIVED_%d", ctx.Derived)})
			key.Index = len(stmt.Items) - 1
			ctx.Derived++
		}
		if key.Name == "" {
			column := false
			if key.Index < len(stmt.Items) {
				_, column = stmt.Items[key.Index].Expr.(*sqlparser.ColumnRef)
			}
			ctx.ColumnKeys = ctx.ColumnKeys && column
		}
		ctx.OrderBy = append(ctx.OrderBy, key)
	}
}

// resolveKeysForSingleNode records merge keys without deriving columns —
// a single node returns final, fully ordered results.
func resolveKeysForSingleNode(stmt *sqlparser.SelectStmt, ctx *SelectContext) {
	for _, o := range stmt.OrderBy {
		idx := findItem(stmt, o.Expr)
		name := ""
		if ref, ok := o.Expr.(*sqlparser.ColumnRef); ok {
			name = ref.Name
		}
		ctx.OrderBy = append(ctx.OrderBy, OrderKey{Index: idx, Name: name, Desc: o.Desc})
	}
}
