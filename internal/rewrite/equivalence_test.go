package rewrite

import (
	"fmt"
	"maps"
	"reflect"
	"strings"
	"testing"

	"shardingsphere/internal/route"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
)

// referenceRewrite is the rewriter as it was before statements were
// compiled once and bound: derive on a clone (deriveSelect, the one
// derivation), then clone + renameTables + Serialize once per unit, a
// split INSERT keeping each unit's rows. It returns, beside the units,
// each unit's bound text: its statement with every placeholder replaced by
// the argument it stands for, args[p.Index] (a fan-out LIMIT stands for
// offset+count, bound after the statement's own arguments). The
// equivalence test and the fuzz target hold the compile/bind mechanism to
// both, byte for byte.
func referenceRewrite(stmt sqlparser.Statement, rt *route.Result, args []sqltypes.Value, dialect DialectFunc) (*Result, []string, error) {
	out := &Result{}
	work := sqlparser.CloneStatement(stmt)
	if sel, ok := work.(*sqlparser.SelectStmt); ok {
		var li *LimitInfo
		if sel.Limit != nil {
			var err error
			if li, err = evalLimit(sel.Limit, args); err != nil {
				return nil, nil, err
			}
		}
		if rt.SingleNode() {
			out.Select = SingleNodeSelectContext(sel)
		} else {
			derived, ctx, err := deriveSelect(sel)
			if err != nil {
				return nil, nil, err
			}
			switch {
			case ctx.Combine != nil:
				ctx.Args = args
			case li != nil:
				derived.Limit = &sqlparser.Limit{Count: &sqlparser.Placeholder{Index: len(args)}}
				args = append(args[:len(args):len(args)], sqltypes.NewInt(li.Offset+li.Count))
				li.Revised = li.Offset > 0
				ctx.Limit = li
			}
			work, out.Select = derived, ctx
		}
	}
	var bound []string
	for _, unit := range rt.Units {
		clone := sqlparser.CloneStatement(work)
		if ins, ok := clone.(*sqlparser.InsertStmt); ok && len(rt.Units) > 1 && unit.RowIndexes != nil {
			var rows [][]sqlparser.Expr
			for _, idx := range unit.RowIndexes {
				rows = append(rows, ins.Rows[idx])
			}
			ins.Rows = rows
		}
		// A table the unit does not map keeps its FROM clause's spelling.
		mapping := maps.Clone(unit.TableMap)
		for _, name := range sqlparser.TableNames(stmt) {
			if lookupTable(mapping, name) == "" {
				mapping[name] = name
			}
		}
		renameTables(clone, mapping)
		d := dialect(unit.DataSource)
		u := SQLUnit{DataSource: unit.DataSource, SQL: sqlparser.NewSerializer(d).Serialize(clone)}
		if len(unit.TableMap) == 1 {
			for u.LogicTable, u.ActualTable = range unit.TableMap {
			}
		}
		out.Units = append(out.Units, u)
		text, _ := boundText(clone, args, d)
		bound = append(bound, text)
	}
	return out, bound, nil
}

// lookupTable is the actual name mapping gives a table named in a
// statement: its exact spelling's, else that of a key differing from it
// only in case, as a data node matches a qualifier; "" when unmapped.
func lookupTable(mapping map[string]string, name string) string {
	if actual, ok := mapping[name]; ok {
		return actual
	}
	for logic, actual := range mapping {
		if strings.EqualFold(logic, name) {
			return actual
		}
	}
	return ""
}

// renameTables is the identifier rewrite on the AST (paper Section VI-C):
// every table the statement names — FROM and JOIN tables, column
// qualifiers, a star's table, a DML or DDL target — that mapping maps
// takes its actual name. An INSERT's values name no table.
func renameTables(stmt sqlparser.Statement, mapping map[string]string) {
	rename := func(name *string) {
		if actual := lookupTable(mapping, *name); actual != "" {
			*name = actual
		}
	}
	if _, ok := stmt.(*sqlparser.InsertStmt); !ok {
		sqlparser.WalkStatement(stmt, func(e sqlparser.Expr) bool {
			if c, ok := e.(*sqlparser.ColumnRef); ok && c.Table != "" {
				rename(&c.Table)
			}
			return true
		})
	}
	switch t := stmt.(type) {
	case *sqlparser.SelectStmt:
		for i := range t.From {
			rename(&t.From[i].Name)
		}
		for i := range t.Items {
			if t.Items[i].StarTable != "" {
				rename(&t.Items[i].StarTable)
			}
		}
	case *sqlparser.InsertStmt:
		rename(&t.Table)
	case *sqlparser.UpdateStmt:
		rename(&t.Table)
	case *sqlparser.DeleteStmt:
		rename(&t.Table)
	case *sqlparser.CreateTableStmt:
		rename(&t.Table)
	case *sqlparser.DropTableStmt:
		rename(&t.Table)
	case *sqlparser.TruncateStmt:
		rename(&t.Table)
	case *sqlparser.CreateIndexStmt:
		rename(&t.Table)
	}
}

func TestRenameTables(t *testing.T) {
	stmt := parseStmt(t, "SELECT t_user.name FROM t_user JOIN t_order ON t_user.uid = T_ORDER.uid")
	renameTables(stmt, map[string]string{"t_user": "t_user_0", "t_order": "t_order_0"})
	sel := stmt.(*sqlparser.SelectStmt)
	if sel.From[0].Name != "t_user_0" || sel.From[1].Name != "t_order_0" {
		t.Fatalf("tables not renamed: %+v", sel.From)
	}
	if sel.Items[0].Expr.(*sqlparser.ColumnRef).Table != "t_user_0" {
		t.Fatal("column qualifier not renamed")
	}
	on := sel.From[1].On.(*sqlparser.BinaryExpr)
	if on.L.(*sqlparser.ColumnRef).Table != "t_user_0" || on.R.(*sqlparser.ColumnRef).Table != "t_order_0" {
		t.Fatal("ON qualifiers not renamed, in any case")
	}
}

func TestRenameTablesKeepsAliases(t *testing.T) {
	stmt := parseStmt(t, "SELECT u.name FROM t_user u WHERE u.uid = 1")
	renameTables(stmt, map[string]string{"t_user": "t_user_0"})
	sel := stmt.(*sqlparser.SelectStmt)
	if sel.From[0].Name != "t_user_0" || sel.From[0].Alias != "u" {
		t.Fatalf("rename with alias: %+v", sel.From[0])
	}
	if sel.Items[0].Expr.(*sqlparser.ColumnRef).Table != "u" {
		t.Fatal("alias qualifier must not be renamed")
	}
}

// boundText serializes a statement with each placeholder replaced by the
// literal args[p.Index], and counts the placeholders; one that reads past
// args shows as a column named for the argument it misses.
func boundText(stmt sqlparser.Statement, args []sqltypes.Value, d sqlparser.Dialect) (string, int) {
	n := 0
	var bind func(e sqlparser.Expr) sqlparser.Expr
	bind = func(e sqlparser.Expr) sqlparser.Expr {
		switch t := e.(type) {
		case *sqlparser.Placeholder:
			n++
			if t.Index >= len(args) {
				return &sqlparser.ColumnRef{Name: fmt.Sprintf("missing_argument_%d", t.Index+1)}
			}
			return &sqlparser.Literal{Val: args[t.Index]}
		case *sqlparser.BinaryExpr:
			t.L, t.R = bind(t.L), bind(t.R)
		case *sqlparser.UnaryExpr:
			t.E = bind(t.E)
		case *sqlparser.InExpr:
			t.E = bind(t.E)
			for i := range t.List {
				t.List[i] = bind(t.List[i])
			}
		case *sqlparser.BetweenExpr:
			t.E, t.Lo, t.Hi = bind(t.E), bind(t.Lo), bind(t.Hi)
		case *sqlparser.LikeExpr:
			t.E, t.Pattern = bind(t.E), bind(t.Pattern)
		case *sqlparser.IsNullExpr:
			t.E = bind(t.E)
		case *sqlparser.FuncExpr:
			for i := range t.Args {
				t.Args[i] = bind(t.Args[i])
			}
		case *sqlparser.CaseExpr:
			t.Operand, t.Else = bind(t.Operand), bind(t.Else)
			for i := range t.Whens {
				t.Whens[i].When, t.Whens[i].Then = bind(t.Whens[i].When), bind(t.Whens[i].Then)
			}
		}
		return e
	}
	switch s := sqlparser.CloneStatement(stmt).(type) {
	case *sqlparser.SelectStmt:
		for i := range s.Items {
			s.Items[i].Expr = bind(s.Items[i].Expr)
		}
		for i := range s.From {
			s.From[i].On = bind(s.From[i].On)
		}
		s.Where, s.Having = bind(s.Where), bind(s.Having)
		for i := range s.GroupBy {
			s.GroupBy[i] = bind(s.GroupBy[i])
		}
		for i := range s.OrderBy {
			s.OrderBy[i].Expr = bind(s.OrderBy[i].Expr)
		}
		if s.Limit != nil {
			s.Limit.Offset, s.Limit.Count = bind(s.Limit.Offset), bind(s.Limit.Count)
		}
		stmt = s
	case *sqlparser.InsertStmt:
		for _, row := range s.Rows {
			for i := range row {
				row[i] = bind(row[i])
			}
		}
		stmt = s
	case *sqlparser.UpdateStmt:
		for i := range s.Set {
			s.Set[i].Value = bind(s.Set[i].Value)
		}
		s.Where = bind(s.Where)
		stmt = s
	case *sqlparser.DeleteStmt:
		s.Where = bind(s.Where)
		stmt = s
	}
	return sqlparser.NewSerializer(d).Serialize(stmt), n
}

// equivalenceFixture is the router and dialects the shapes run against:
// t_user and t_order sharded by uid%4 over ds0/ds1 and bound together,
// t_other sharded the same way but unbound, t_dict broadcast. ds1 speaks
// PostgreSQL, so half of every fan-out renders in each dialect.
func equivalenceFixture(t testing.TB) (*route.Router, DialectFunc) {
	t.Helper()
	rs := sharding.NewRuleSet()
	rs.DefaultDataSource = "ds0"
	rs.Broadcast["t_dict"] = true
	for _, table := range []string{"t_user", "t_order", "t_other"} {
		rule, err := sharding.BuildAutoRule(sharding.AutoTableSpec{
			LogicTable: table, Resources: []string{"ds0", "ds1"},
			ShardingColumn: "uid", AlgorithmType: "MOD", ShardingCount: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		rs.AddRule(rule)
		rs.Define(table, &sharding.TableDef{Columns: sqltypes.Schema{{Name: "uid"}, {Name: "name"}, {Name: "age"}}})
	}
	if err := rs.AddBindingGroup("t_user", "t_order"); err != nil {
		t.Fatal(err)
	}
	router := newRouter(rs, []string{"ds0", "ds1"})
	return router, func(ds string) sqlparser.Dialect {
		if ds == "ds1" {
			return sqlparser.DialectPostgreSQL
		}
		return sqlparser.DialectMySQL
	}
}

func intArgs(vs ...int64) []sqltypes.Value {
	out := make([]sqltypes.Value, len(vs))
	for i, v := range vs {
		out[i] = sqltypes.NewInt(v)
	}
	return out
}

// equivalenceShapes is the one table of statement shapes: each is compiled
// once and bound with both argument sets, which route to the given numbers
// of units. The fuzz target seeds from it.
var equivalenceShapes = []struct {
	name, sql string
	args      [2][]sqltypes.Value
	units     [2]int
}{
	{"plain range", "SELECT name FROM t_user WHERE uid BETWEEN ? AND ?", [2][]sqltypes.Value{intArgs(1, 100), intArgs(5, 6)}, [2]int{4, 2}},
	{"sum", "SELECT SUM(age) FROM t_user WHERE uid BETWEEN ? AND ?", [2][]sqltypes.Value{intArgs(1, 100), intArgs(7, 7)}, [2]int{4, 1}},
	{"avg and count", "SELECT AVG(age), COUNT(*), MAX(age) FROM t_user", [2][]sqltypes.Value{}, [2]int{4, 4}},
	{"order by unselected column", "SELECT name FROM t_user ORDER BY age DESC, uid", [2][]sqltypes.Value{}, [2]int{4, 4}},
	{"group by without order by", "SELECT age, COUNT(*) FROM t_user GROUP BY age", [2][]sqltypes.Value{}, [2]int{4, 4}},
	{"group by with other order by", "SELECT age, SUM(uid) FROM t_user GROUP BY age ORDER BY SUM(uid)", [2][]sqltypes.Value{}, [2]int{4, 4}},
	{"distinct order by", "SELECT DISTINCT name FROM t_user WHERE uid BETWEEN ? AND ? ORDER BY name", [2][]sqltypes.Value{intArgs(1, 100), intArgs(2, 4)}, [2]int{4, 3}},
	{"star", "SELECT * FROM t_user ORDER BY name", [2][]sqltypes.Value{}, [2]int{4, 4}},
	{"aliases", "SELECT u.name AS n, u.age a FROM t_user u WHERE u.uid > ? ORDER BY n", [2][]sqltypes.Value{intArgs(3), intArgs(-8)}, [2]int{4, 4}},
	{"qualified by table name", "SELECT t_user.name FROM t_user WHERE t_user.uid IN (?, ?) ORDER BY t_user.age", [2][]sqltypes.Value{intArgs(1, 2), intArgs(4, 8)}, [2]int{2, 1}},
	{"limit without offset", "SELECT name FROM t_user ORDER BY uid LIMIT ?", [2][]sqltypes.Value{intArgs(5), intArgs(0)}, [2]int{4, 4}},
	{"limit with zero offset", "SELECT name FROM t_user ORDER BY uid LIMIT ?, ?", [2][]sqltypes.Value{intArgs(0, 5), intArgs(0, 1)}, [2]int{4, 4}},
	{"limit with offset", "SELECT name FROM t_user ORDER BY uid LIMIT ?, ?", [2][]sqltypes.Value{intArgs(20, 10), intArgs(0, 3)}, [2]int{4, 4}},
	{"limit with offset for update", "SELECT name FROM t_user WHERE uid IN (?, ?) ORDER BY uid LIMIT ?, ? FOR UPDATE", [2][]sqltypes.Value{intArgs(1, 2, 3, 4), intArgs(5, 9, 1, 1)}, [2]int{2, 1}},
	{"single node keeps pagination", "SELECT name FROM t_user WHERE uid = ? ORDER BY age LIMIT 20, 10", [2][]sqltypes.Value{intArgs(3), intArgs(4)}, [2]int{1, 1}},
	{"update fan-out", "UPDATE t_user SET age = age + 1 WHERE name = ?", [2][]sqltypes.Value{{sqltypes.NewString("x")}, {sqltypes.NewString("it's")}}, [2]int{4, 4}},
	{"delete two nodes", "DELETE FROM t_user WHERE uid IN (?, ?)", [2][]sqltypes.Value{intArgs(1, 6), intArgs(3, 7)}, [2]int{2, 1}},
	{"binding join", "SELECT u.name, o.amount FROM t_user u JOIN t_order o ON u.uid = o.uid WHERE u.uid IN (?, ?) ORDER BY o.amount", [2][]sqltypes.Value{intArgs(1, 2), intArgs(3, 3)}, [2]int{2, 1}},
	{"binding join by table names", "SELECT t_user.name, t_order.amount FROM t_user JOIN t_order ON t_user.uid = t_order.uid", [2][]sqltypes.Value{}, [2]int{4, 4}},
	{"join routed by an ON equality", "SELECT u.name FROM t_user u JOIN t_order o ON u.uid = o.uid AND u.uid = ? ORDER BY u.age LIMIT ?, ?", [2][]sqltypes.Value{intArgs(2, 1, 1), intArgs(7, 0, 9)}, [2]int{1, 1}},
	{"cartesian join", "SELECT u.name, x.v FROM t_user u JOIN t_other x ON u.uid = x.uid WHERE u.uid = ? AND x.uid IN (?, ?) ORDER BY x.v LIMIT ?, ?", [2][]sqltypes.Value{intArgs(1, 1, 3, 2, 2), intArgs(2, 0, 1, 0, 1)}, [2]int{2, -1}},
	{"sharded joined with broadcast", "SELECT u.name, d.v FROM t_user u JOIN t_dict d ON u.age = d.k WHERE u.uid IN (?, ?)", [2][]sqltypes.Value{intArgs(1, 2), intArgs(4, 4)}, [2]int{2, 1}},
	{"unsharded", "SELECT * FROM t_plain WHERE id = ? LIMIT ?, ?", [2][]sqltypes.Value{intArgs(1, 2, 3), intArgs(4, 5, 6)}, [2]int{1, 1}},
	{"broadcast-table update", "UPDATE t_dict SET v = ? WHERE k = ?", [2][]sqltypes.Value{intArgs(1, 2), intArgs(3, 4)}, [2]int{2, 2}},
	{"broadcast-table insert", "INSERT INTO t_dict (k, v) VALUES (?, ?), (?, ?)", [2][]sqltypes.Value{intArgs(1, 2, 3, 4), intArgs(5, 6, 7, 8)}, [2]int{2, 2}},
	{"single-row insert", "INSERT INTO t_user (uid, name) VALUES (?, ?)", [2][]sqltypes.Value{{sqltypes.NewInt(1), sqltypes.NewString("a")}, {sqltypes.NewInt(6), sqltypes.NewString("b?")}}, [2]int{1, 1}},
	{"multi-row insert with placeholders", "INSERT INTO t_user (uid, name, age) VALUES (?, ?, ?), (?, ?, - ?), (? + ?, 'lit', 1.5)",
		[2][]sqltypes.Value{
			{sqltypes.NewInt(6), sqltypes.NewString("x"), sqltypes.NewInt(3), sqltypes.NewInt(7), sqltypes.NewString("y"), sqltypes.NewInt(5), sqltypes.NewInt(1), sqltypes.NewInt(1)},
			{sqltypes.NewInt(4), sqltypes.NewString("x"), sqltypes.NewInt(3), sqltypes.NewInt(8), sqltypes.NewString("y"), sqltypes.NewFloat(-2.5), sqltypes.NewInt(10), sqltypes.NewInt(2)},
		}, [2]int{2, 1}},
	{"column-less insert", "INSERT INTO t_user VALUES (?, ?, ?), (?, ?, ?)", [2][]sqltypes.Value{
		{sqltypes.NewInt(1), sqltypes.NewString("a"), sqltypes.NewInt(30), sqltypes.NewInt(2), sqltypes.NewString("b"), sqltypes.NewInt(31)},
		{sqltypes.NewInt(3), sqltypes.NewString("a"), sqltypes.NewInt(30), sqltypes.NewInt(7), sqltypes.NewString("b"), sqltypes.NewInt(31)},
	}, [2]int{2, 1}},
	{"ddl", "CREATE INDEX idx_age ON t_user (age)", [2][]sqltypes.Value{}, [2]int{4, 4}},
	{"ddl on a broadcast table", "TRUNCATE TABLE t_dict", [2][]sqltypes.Value{}, [2]int{2, 2}},
	{"order by ordinal", "SELECT name, age FROM t_user WHERE uid BETWEEN ? AND ? ORDER BY 2 DESC", [2][]sqltypes.Value{intArgs(1, 100), intArgs(7, 7)}, [2]int{4, 1}},
	{"group by ordinal", "SELECT age, COUNT(*) FROM t_user WHERE uid BETWEEN ? AND ? GROUP BY 1", [2][]sqltypes.Value{intArgs(1, 100), intArgs(6, 6)}, [2]int{4, 1}},
	{"group by a placeholder expression", "SELECT COUNT(*) FROM t_user WHERE uid BETWEEN ? AND ? GROUP BY age % ?", [2][]sqltypes.Value{intArgs(1, 100, 2), intArgs(3, 3, 5)}, [2]int{4, 1}},
	{"grouped, filtered and paged", "SELECT age, COUNT(*) FROM t_user GROUP BY age HAVING COUNT(*) > ? ORDER BY 2 DESC LIMIT ?, ?", [2][]sqltypes.Value{intArgs(1, 2, 3), intArgs(0, 0, 1)}, [2]int{4, 4}},
	{"distinct aggregate", "SELECT age % ?, COUNT(DISTINCT name), AVG(uid) FROM t_user WHERE uid BETWEEN ? AND ? GROUP BY 1", [2][]sqltypes.Value{intArgs(3, 1, 100), intArgs(2, 6, 6)}, [2]int{4, 1}},
	{"same text, different arguments", "SELECT age % ?, age % ? FROM t_user ORDER BY age % ?", [2][]sqltypes.Value{intArgs(3, 5, 5), intArgs(2, 2, 7)}, [2]int{4, 4}},
	{"order by an expression, paged", "SELECT name FROM t_user ORDER BY uid + ? DESC LIMIT ?, ?", [2][]sqltypes.Value{intArgs(1, 2, 3), intArgs(0, 0, 1)}, [2]int{4, 4}},
	{"postgresql paging on ds1", "SELECT name FROM t_user WHERE uid = ? ORDER BY age LIMIT ? OFFSET ?", [2][]sqltypes.Value{intArgs(1, 10, 20), intArgs(3, 5, 0)}, [2]int{1, 1}},
	{"qualified in another case", "SELECT T_USER.name FROM t_user WHERE T_User.uid BETWEEN ? AND ? ORDER BY T_USER.age", [2][]sqltypes.Value{intArgs(1, 100), intArgs(4, 4)}, [2]int{4, 1}},
	{"star of a table", "SELECT T_USER.* FROM t_user WHERE uid IN (?, ?) ORDER BY name", [2][]sqltypes.Value{intArgs(1, 2), intArgs(4, 8)}, [2]int{2, 1}},
}

// bindTwice compiles a statement once — route skeleton and rewrite
// template — binds it with each argument set in turn, then with the first
// again (by then every form is memoized), and holds each binding and
// Rewriter.Rewrite's composition to referenceRewrite on a fresh parse.
// Each binding is also routed and rewritten into kept.
// It returns the unit count of each of the two argument sets' routes; a
// binding whose route fails is skipped (-1), one whose reference fails
// must fail the same way.
func bindTwice(t testing.TB, router *route.Router, dialect DialectFunc, sql string, args [2][]sqltypes.Value, kept *keptResults) [2]int {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	before := sqlparser.NewSerializer(sqlparser.DialectMySQL).Serialize(stmt)
	sk, _ := router.BuildSkeleton(stmt)
	tmpl, ok := NewTemplate(stmt, sqlparser.TableNames(stmt)...)
	if !ok {
		t.Fatal("NewTemplate refused")
	}
	units := [2]int{-1, -1}
	for _, i := range []int{0, 1, 0} {
		rt := &kept.rt
		if err := sk.RouteInto(rt, args[i]); err != nil {
			continue
		}
		units[i] = len(rt.Units)
		fresh, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		want, wantBound, wantErr := referenceRewrite(fresh, rt, args[i], dialect)
		for who, rewrite := range map[string]func() (*Result, error){
			"Template.Rewrite": func() (*Result, error) { return tmpl.Rewrite(rt, args[i], dialect) },
			"Rewriter.Rewrite": func() (*Result, error) { return New(dialect).Rewrite(stmt, rt, args[i]) },
			"Template.RewriteInto": func() (*Result, error) {
				return &kept.rw, tmpl.RewriteInto(&kept.rw, rt, args[i], dialect)
			},
		} {
			got, err := rewrite()
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("%s binding %d: error %v, reference %v", who, i, err, wantErr)
			}
			if err == nil {
				assertSameRewrite(t, who, dialect, got, want, wantBound)
			}
		}
	}
	if after := sqlparser.NewSerializer(sqlparser.DialectMySQL).Serialize(stmt); after != before {
		t.Fatalf("rewrite mutated the compiled statement:\n before %s\n after  %s", before, after)
	}
	return units
}

// keptResults are a route and a rewrite result that every binding writes
// into, as a session's statements do: what an earlier binding, of this
// statement or another, left there must not show.
type keptResults struct {
	rt route.Result
	rw Result
}

func TestRewriteEquivalence(t *testing.T) {
	router, dialect := equivalenceFixture(t)
	var kept keptResults
	for _, c := range equivalenceShapes {
		t.Run(c.name, func(t *testing.T) {
			if units := bindTwice(t, router, dialect, c.sql, c.args, &kept); units != c.units {
				t.Fatalf("routed to %v units, want %v", units, c.units)
			}
		})
	}
}

// assertSameRewrite holds a binding's units to the reference's: the same
// data source, tables and text, and the same text once bound — the unit's
// "?"s taking its arguments positionally, as a data node binds them, the
// reference's taking the arguments they stand for.
func assertSameRewrite(t testing.TB, who string, dialect DialectFunc, got, want *Result, wantBound []string) {
	t.Helper()
	if len(got.Units) != len(want.Units) {
		t.Fatalf("%s: %d units, want %d", who, len(got.Units), len(want.Units))
	}
	for i, u := range got.Units {
		if shape := (SQLUnit{DataSource: u.DataSource, SQL: u.SQL, LogicTable: u.LogicTable, ActualTable: u.ActualTable}); !reflect.DeepEqual(shape, want.Units[i]) {
			t.Errorf("%s unit %d:\n got %+v\nwant %+v", who, i, shape, want.Units[i])
			continue
		}
		parsed, err := sqlparser.Parse(u.SQL)
		if err != nil {
			t.Errorf("%s unit %d: %q does not parse: %v", who, i, u.SQL, err)
			continue
		}
		bound, n := boundText(parsed, u.Args, dialect(u.DataSource))
		if n != len(u.Args) {
			t.Errorf("%s unit %d: %q has %d placeholders, %d arguments %v", who, i, u.SQL, n, len(u.Args), u.Args)
		}
		if bound != wantBound[i] {
			t.Errorf("%s unit %d bound:\n got %s\nwant %s", who, i, bound, wantBound[i])
		}
	}
	gotCtx, wantCtx := got.Select, want.Select
	if gotCtx != nil && wantCtx != nil {
		// Each side compiled its own combine: compare that there is one.
		g, w := *gotCtx, *wantCtx
		if (g.Combine == nil) != (w.Combine == nil) {
			t.Errorf("%s combine %v, reference %v", who, g.Combine, w.Combine)
		}
		g.Combine, w.Combine = nil, nil
		gotCtx, wantCtx = &g, &w
	}
	if !reflect.DeepEqual(gotCtx, wantCtx) {
		t.Errorf("%s merge context:\n got %+v\nwant %+v", who, gotCtx, wantCtx)
	}
}
