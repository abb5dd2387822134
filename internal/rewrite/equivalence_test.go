package rewrite

import (
	"reflect"
	"testing"

	"shardingsphere/internal/route"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
)

// referenceRewrite is the rewriter as it was before statements were
// compiled once and spliced: derive on a clone, then clone + RenameTables +
// Serialize once per unit. The equivalence test holds the splice mechanism
// (Rewriter.Rewrite and Template.Rewrite) to its output, byte for byte.
func referenceRewrite(t *testing.T, stmt sqlparser.Statement, rt *route.Result, args []sqltypes.Value, dialect DialectFunc) *Result {
	t.Helper()
	out := &Result{}
	work := sqlparser.CloneStatement(stmt)
	if sel, ok := work.(*sqlparser.SelectStmt); ok {
		ctx := &SelectContext{Distinct: sel.Distinct}
		if sel.Limit != nil {
			li, err := evalLimit(sel.Limit, args)
			if err != nil {
				t.Fatal(err)
			}
			ctx.Limit = li
		}
		if !rt.SingleNode() {
			deriveColumns(sel, ctx)
			if len(sel.GroupBy) > 0 && len(sel.OrderBy) == 0 {
				for _, g := range sel.GroupBy {
					sel.OrderBy = append(sel.OrderBy, sqlparser.OrderItem{Expr: sqlparser.CloneExpr(g)})
				}
				ctx.GroupOrdered = true
				ctx.OrderBy = append([]OrderKey(nil), ctx.GroupBy...)
			} else if len(sel.GroupBy) > 0 && len(sel.OrderBy) > 0 {
				ctx.GroupOrdered = sameKeys(ctx.GroupBy, ctx.OrderBy)
			}
			if ctx.Limit != nil && ctx.Limit.Offset > 0 {
				sel.Limit = &sqlparser.Limit{
					Count: &sqlparser.Literal{Val: sqltypes.NewInt(ctx.Limit.Offset + ctx.Limit.Count)},
				}
				ctx.Limit.Revised = true
			}
		} else {
			ctx.Limit = nil
			resolveKeysForSingleNode(sel, ctx)
		}
		out.Select = ctx
	}
	for _, unit := range rt.Units {
		clone := sqlparser.CloneStatement(work)
		sqlparser.RenameTables(clone, unit.TableMap)
		logic, actual := unitTables(unit)
		out.Units = append(out.Units, SQLUnit{
			DataSource:  unit.DataSource,
			SQL:         sqlparser.NewSerializer(dialect(unit.DataSource)).Serialize(clone),
			Args:        args,
			LogicTable:  logic,
			ActualTable: actual,
		})
	}
	return out
}

func TestRewriteEquivalence(t *testing.T) {
	rs := sharding.NewRuleSet()
	rs.DefaultDataSource = "ds0"
	for _, table := range []string{"t_user", "t_order"} {
		rule, err := sharding.BuildAutoRule(sharding.AutoTableSpec{
			LogicTable: table, Resources: []string{"ds0", "ds1"},
			ShardingColumn: "uid", AlgorithmType: "MOD", ShardingCount: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		rs.AddRule(rule)
	}
	if err := rs.AddBindingGroup("t_user", "t_order"); err != nil {
		t.Fatal(err)
	}
	router := route.New(rs, []string{"ds0", "ds1"})
	// ds1 speaks PostgreSQL: half of every fan-out renders in each dialect.
	dialect := func(ds string) sqlparser.Dialect {
		if ds == "ds1" {
			return sqlparser.DialectPostgreSQL
		}
		return sqlparser.DialectMySQL
	}
	rw := New(dialect)
	ints := func(vs ...int64) []sqltypes.Value {
		out := make([]sqltypes.Value, len(vs))
		for i, v := range vs {
			out[i] = sqltypes.NewInt(v)
		}
		return out
	}

	cases := []struct {
		name, sql string
		args      []sqltypes.Value
		units     int
		// template: "yes" (Template.Rewrite must match too), "refuses"
		// (node text depends on bound values), "none" (not a single-table
		// statement: the kernel keeps it on Rewriter.Rewrite).
		template string
	}{
		{"plain range", "SELECT name FROM t_user WHERE uid BETWEEN ? AND ?", ints(1, 100), 4, "yes"},
		{"sum", "SELECT SUM(age) FROM t_user WHERE uid BETWEEN ? AND ?", ints(1, 100), 4, "yes"},
		{"avg and count", "SELECT AVG(age), COUNT(*), MAX(age) FROM t_user", nil, 4, "yes"},
		{"order by unselected column", "SELECT name FROM t_user ORDER BY age DESC, uid", nil, 4, "yes"},
		{"group by without order by", "SELECT age, COUNT(*) FROM t_user GROUP BY age", nil, 4, "yes"},
		{"group by with other order by", "SELECT age, SUM(uid) FROM t_user GROUP BY age ORDER BY SUM(uid)", nil, 4, "yes"},
		{"distinct order by", "SELECT DISTINCT name FROM t_user WHERE uid BETWEEN ? AND ? ORDER BY name", ints(1, 100), 4, "yes"},
		{"star", "SELECT * FROM t_user ORDER BY name", nil, 4, "yes"},
		{"aliases", "SELECT u.name AS n, u.age a FROM t_user u WHERE u.uid > ? ORDER BY n", ints(3), 4, "yes"},
		{"qualified by table name", "SELECT t_user.name FROM t_user WHERE t_user.uid IN (?, ?) ORDER BY t_user.age", ints(1, 2), 2, "yes"},
		{"limit without offset", "SELECT name FROM t_user ORDER BY uid LIMIT ?", ints(5), 4, "yes"},
		{"limit with zero offset", "SELECT name FROM t_user ORDER BY uid LIMIT ?, ?", ints(0, 5), 4, "yes"},
		{"limit with offset", "SELECT name FROM t_user ORDER BY uid LIMIT ?, ?", ints(20, 10), 4, "refuses"},
		{"single node keeps pagination", "SELECT name FROM t_user WHERE uid = ? ORDER BY age LIMIT 20, 10", ints(3), 1, "yes"},
		{"update fan-out", "UPDATE t_user SET age = age + 1 WHERE name = ?", []sqltypes.Value{sqltypes.NewString("x")}, 4, "yes"},
		{"delete two nodes", "DELETE FROM t_user WHERE uid IN (?, ?)", ints(1, 6), 2, "yes"},
		{"binding join", "SELECT u.name, o.amount FROM t_user u JOIN t_order o ON u.uid = o.uid WHERE u.uid IN (?, ?) ORDER BY o.amount", ints(1, 2), 2, "none"},
		{"binding join by table names", "SELECT t_user.name, t_order.amount FROM t_user JOIN t_order ON t_user.uid = t_order.uid", nil, 4, "none"},
		{"ddl", "CREATE INDEX idx_age ON t_user (age)", nil, 4, "none"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stmt, err := sqlparser.Parse(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			before := sqlparser.NewSerializer(sqlparser.DialectMySQL).Serialize(stmt)
			rt, err := router.Route(stmt, c.args, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(rt.Units) != c.units {
				t.Fatalf("routed to %d units, want %d", len(rt.Units), c.units)
			}
			want := referenceRewrite(t, stmt, rt, c.args, dialect)

			got, err := rw.Rewrite(stmt, rt, c.args)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRewrite(t, "Rewriter.Rewrite", got, want)

			if c.template != "none" {
				table := sqlparser.TableNames(stmt)[0]
				tmpl, ok := NewTemplate(stmt, table)
				if !ok {
					t.Fatal("NewTemplate refused")
				}
				// Twice: the second execution reads the memoized forms.
				for i := 0; i < 2; i++ {
					got, ok, err := tmpl.Rewrite(rt, table, c.args, dialect)
					if err != nil {
						t.Fatal(err)
					}
					if ok != (c.template == "yes") {
						t.Fatalf("Template.Rewrite ok = %v, want %q", ok, c.template)
					}
					if ok {
						assertSameRewrite(t, "Template.Rewrite", got, want)
					}
				}
			}
			if after := sqlparser.NewSerializer(sqlparser.DialectMySQL).Serialize(stmt); after != before {
				t.Fatalf("rewrite mutated the cached statement:\n before %s\n after  %s", before, after)
			}
		})
	}
}

func assertSameRewrite(t *testing.T, who string, got, want *Result) {
	t.Helper()
	if len(got.Units) != len(want.Units) {
		t.Fatalf("%s: %d units, want %d", who, len(got.Units), len(want.Units))
	}
	for i := range want.Units {
		if !reflect.DeepEqual(got.Units[i], want.Units[i]) {
			t.Errorf("%s unit %d:\n got %+v\nwant %+v", who, i, got.Units[i], want.Units[i])
		}
	}
	if !reflect.DeepEqual(got.Select, want.Select) {
		t.Errorf("%s merge context:\n got %+v\nwant %+v", who, got.Select, want.Select)
	}
}
