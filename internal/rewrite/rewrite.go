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
	"errors"
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

// deriveSelect returns a private clone of the statement in its multi-node
// form — derived columns and the stream-merger ORDER BY — with the
// matching merge context (minus pagination, which depends on bound
// values). It is the one place that form is derived, so it is also where
// a statement that has none is refused.
func deriveSelect(stmt *sqlparser.SelectStmt) (*sqlparser.SelectStmt, *SelectContext, error) {
	if err := decomposable(stmt); err != nil {
		return nil, nil, err
	}
	ctx := &SelectContext{Distinct: stmt.Distinct}
	work := sqlparser.CloneStatement(stmt).(*sqlparser.SelectStmt)
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
	return work, ctx, nil
}

// ErrUnsupported reports a statement that one data node can execute as
// written but that has no multi-node form.
var ErrUnsupported = errors.New("rewrite: not supported across data nodes")

// decomposable rejects what deriveColumns cannot split into per-node
// partials: an aggregate nested inside a larger select-item or ORDER BY
// expression (MAX(k) - MIN(k) merges neither as a MAX nor as a MIN).
func decomposable(stmt *sqlparser.SelectStmt) error {
	check := func(e sqlparser.Expr) error {
		nested := false
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
			if f, ok := x.(*sqlparser.FuncExpr); ok && f.IsAggregate() && x != e {
				nested = true
			}
			return !nested
		})
		if nested {
			return fmt.Errorf("%w: aggregate inside the expression %s",
				ErrUnsupported, sqlparser.NewSerializer(sqlparser.DialectMySQL).SerializeExpr(e))
		}
		return nil
	}
	for _, it := range stmt.Items {
		if err := check(it.Expr); err != nil {
			return err
		}
	}
	for _, o := range stmt.OrderBy {
		if err := check(o.Expr); err != nil {
			return err
		}
	}
	return nil
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
// or serialized text and reads (`v % ?` twice is one item only if both
// read one argument, whatever values are bound). Returns -1 when absent.
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
	serialize := func(e sqlparser.Expr) (string, []int) {
		return sqlparser.NewSerializer(sqlparser.DialectMySQL).SerializeReads(&sqlparser.SelectStmt{Items: []sqlparser.SelectItem{{Expr: e}}})
	}
	text, reads := serialize(e)
	for i, it := range stmt.Items {
		if it.Star || it.Expr == nil {
			continue
		}
		if itText, itReads := serialize(it.Expr); itText == text && slices.Equal(itReads, reads) {
			return i
		}
	}
	return -1
}

// deriveColumns performs the correctness rewrite for multi-node SELECTs:
// aggregate decomposition (AVG → SUM + COUNT) and derived ORDER BY /
// GROUP BY columns, recording everything the merger needs.
func deriveColumns(stmt *sqlparser.SelectStmt, ctx *SelectContext) {
	star := slices.ContainsFunc(stmt.Items, func(it sqlparser.SelectItem) bool { return it.Star })
	derivedSeq := 0

	appendDerived := func(e sqlparser.Expr, prefix string) int {
		alias := fmt.Sprintf("%s_DERIVED_%d", prefix, derivedSeq)
		derivedSeq++
		stmt.Items = append(stmt.Items, sqlparser.SelectItem{Expr: sqlparser.CloneExpr(e), Alias: alias})
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
		case "SUM":
			agg.Kind = AggSum
		case "MAX":
			agg.Kind = AggMax
		case "MIN":
			agg.Kind = AggMin
		case "AVG":
			agg.Kind = AggAvg
			// appendDerived copies the arguments.
			sum := &sqlparser.FuncExpr{Name: "SUM", Args: f.Args}
			cnt := &sqlparser.FuncExpr{Name: "COUNT", Args: f.Args}
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
		if idx := findItem(stmt, e); idx >= 0 {
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
	for _, o := range stmt.OrderBy {
		idx := findItem(stmt, o.Expr)
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
